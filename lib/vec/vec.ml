type t = float array

let dim = Array.length
let of_array a = Array.copy a
let of_list = Array.of_list
let to_array = Array.copy
let to_list = Array.to_list
let get (v : t) d = v.(d)
let zero d = Array.make d 0.

let basis ~dim d s =
  if d < 0 || d >= dim then invalid_arg "Vec.basis";
  let v = Array.make dim 0. in
  v.(d) <- s;
  v

let make d x = Array.make d x

let check_dims u v =
  if Array.length u <> Array.length v then invalid_arg "Vec: dimension mismatch"

let add u v =
  check_dims u v;
  Array.mapi (fun i x -> x +. v.(i)) u

let sub u v =
  check_dims u v;
  Array.mapi (fun i x -> x -. v.(i)) u

let scale s v = Array.map (fun x -> s *. x) v
let neg v = scale (-1.) v

let dot u v =
  check_dims u v;
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. v.(i))) u;
  !acc

let dist2 u v =
  check_dims u v;
  let acc = ref 0. in
  for i = 0 to Array.length u - 1 do
    let d = u.(i) -. v.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let norm v = sqrt (dot v v)
let dist u v = sqrt (dist2 u v)
let midpoint a b = scale 0.5 (add a b)

let lincomb = function
  | [] -> invalid_arg "Vec.lincomb: empty list"
  | (l0, v0) :: rest ->
      let acc = scale l0 v0 in
      List.iter
        (fun (l, v) ->
          check_dims acc v;
          Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (l *. x)) v)
        rest;
      acc

let normalize v =
  let n = norm v in
  if n <= 1e-300 then None else Some (scale (1. /. n) v)

let rec compare_from (u : t) (v : t) i =
  if i = Array.length u then 0
  else
    let c = Float.compare u.(i) v.(i) in
    if c <> 0 then c else compare_from u v (i + 1)

let compare (u : t) (v : t) =
  let c = Stdlib.compare (Array.length u) (Array.length v) in
  if c <> 0 then c else compare_from u v 0

let equal ?(eps = 1e-9) u v =
  Array.length u = Array.length v
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= eps) u v

let rec equal_from (u : t) (v : t) i =
  i = Array.length u
  || (Float.compare u.(i) v.(i) = 0 && equal_from u v (i + 1))

let equal_exact (u : t) (v : t) =
  Array.length u = Array.length v && equal_from u v 0

(* Bit-level FNV-style hash. Every NaN is folded to one canonical word so
   the hash agrees with [equal_exact] (Float.compare puts all NaNs in one
   equivalence class); -0. and 0. hash apart, as Float.compare separates
   them. *)
let hash (v : t) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length v - 1 do
    let x = v.(i) in
    let w =
      if Float.is_nan x then 0x7ff8000000000
      else Int64.to_int (Int64.bits_of_float x)
    in
    h := (!h * 0x01000193) lxor (w land max_int) lxor (w lsr 32)
  done;
  !h land max_int

(* Every ordered pair, oriented lexicographically, replaces the best one
   when more than 1e-15 longer, or as long within 1e-15 and
   lexicographically smaller; the squared distance is summed in
   [dist2]'s order. A plain index loop: no closure, option or tuple per
   pair. *)
let diameter_pair = function
  | [] -> None
  | vs ->
      let vs = Array.of_list vs in
      let ba = ref 0 and bb = ref 0 and bd = ref 0. in
      for i = 0 to Array.length vs - 1 do
        for j = 0 to Array.length vs - 1 do
          let swap = compare vs.(i) vs.(j) > 0 in
          let a = if swap then j else i and b = if swap then i else j in
          let u = vs.(a) and v = vs.(b) in
          check_dims u v;
          let d = ref 0. in
          for k = 0 to Array.length u - 1 do
            let x = u.(k) -. v.(k) in
            d := !d +. (x *. x)
          done;
          let d = !d in
          if
            (i = 0 && j = 0)
            || d > !bd +. 1e-15
            || Float.abs (d -. !bd) <= 1e-15
               &&
               let c = compare u vs.(!ba) in
               c < 0 || (c = 0 && compare v vs.(!bb) < 0)
          then begin
            ba := a;
            bb := b;
            bd := d
          end
        done
      done;
      Some (vs.(!ba), vs.(!bb))

let diameter vs =
  match diameter_pair vs with None -> 0. | Some (a, b) -> dist a b

let centroid = function
  | [] -> invalid_arg "Vec.centroid: empty list"
  | vs ->
      let n = float_of_int (List.length vs) in
      lincomb (List.map (fun v -> (1. /. n, v)) vs)

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list v)

let to_string v = Format.asprintf "%a" pp v
