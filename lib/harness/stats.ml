type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: empty list";
  let n = List.length xs in
  let fn = float_of_int n in
  let mean = List.fold_left ( +. ) 0. xs /. fn in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. fn
  in
  {
    count = n;
    mean;
    stddev = sqrt var;
    min = List.fold_left Float.min infinity xs;
    max = List.fold_left Float.max neg_infinity xs;
    median = percentile xs 50.;
  }
