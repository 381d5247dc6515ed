type t = Vec.t array
type halfplane = { normal : Vec.t; offset : float }

let default_eps = 1e-9
let vertices t = Array.to_list t

let dedupe ?(eps = default_eps) pts =
  let close a b = Vec.dist a b <= eps in
  let rec go = function
    | a :: (b :: _ as rest) when close a b -> go rest
    | a :: rest -> a :: go rest
    | [] -> []
  in
  match go pts with
  | [] -> []
  | [ p ] -> [ p ]
  | first :: _ :: _ as l ->
      (* the list is cyclic: the final point may coincide with the first *)
      let rec drop_last = function
        | [ last ] when close last first -> []
        | [] -> []
        | x :: rest -> x :: drop_last rest
      in
      drop_last l

let of_points pts =
  match Hull2d.hull pts with
  | [] -> assert false
  | h -> Array.of_list h

let unit_normal_of_edge p q =
  (* interior of a CCW polygon is to the left of p→q; the outward normal
     points right: (dy, -dx) *)
  let d = Vec.sub q p in
  match Vec.normalize (Vec.of_list [ Vec.get d 1; -.Vec.get d 0 ]) with
  | Some n -> n
  | None -> invalid_arg "Polygon: zero-length edge"

(* A finite H-representation of the region (also for the degenerate
   cases: a segment is four half-planes, a point is four axis-aligned
   ones). *)
let halfplanes t =
  match Array.length t with
  | 0 -> assert false
  | 1 ->
      let p = t.(0) in
      let x = Vec.get p 0 and y = Vec.get p 1 in
      [
        { normal = Vec.of_list [ 1.; 0. ]; offset = x };
        { normal = Vec.of_list [ -1.; 0. ]; offset = -.x };
        { normal = Vec.of_list [ 0.; 1. ]; offset = y };
        { normal = Vec.of_list [ 0.; -1. ]; offset = -.y };
      ]
  | 2 ->
      let a = t.(0) and b = t.(1) in
      let n = unit_normal_of_edge a b in
      let d = Option.get (Vec.normalize (Vec.sub b a)) in
      [
        { normal = n; offset = Vec.dot n a };
        { normal = Vec.neg n; offset = -.Vec.dot n a };
        { normal = Vec.neg d; offset = -.Vec.dot d a };
        { normal = d; offset = Vec.dot d b };
      ]
  | k ->
      List.init k (fun i ->
          let p = t.(i) and q = t.((i + 1) mod k) in
          let n = unit_normal_of_edge p q in
          { normal = n; offset = Vec.dot n p })

let contains ?(eps = default_eps) t p =
  match Array.length t with
  | 1 -> Vec.dist t.(0) p <= eps
  | 2 ->
      (* distance from p to segment [a,b] *)
      let a = t.(0) and b = t.(1) in
      let ab = Vec.sub b a in
      let len2 = Vec.dot ab ab in
      let tt =
        if len2 <= 0. then 0.
        else Float.max 0. (Float.min 1. (Vec.dot (Vec.sub p a) ab /. len2))
      in
      Vec.dist p (Vec.add a (Vec.scale tt ab)) <= eps
  | _ ->
      List.for_all
        (fun { normal; offset } -> Vec.dot normal p <= offset +. eps)
        (halfplanes t)

let clip ?(eps = default_eps) t { normal; offset } =
  let inside p = Vec.dot normal p <= offset +. eps in
  let k = Array.length t in
  if k = 1 then if inside t.(0) then Some t else None
  else begin
    let out = ref [] in
    let push p = out := p :: !out in
    for i = 0 to k - 1 do
      let cur = t.(i) and next = t.((i + 1) mod k) in
      let dc = Vec.dot normal cur -. offset
      and dn = Vec.dot normal next -. offset in
      let ic = inside cur and inext = inside next in
      if ic then push cur;
      if ic <> inext then begin
        let denom = dc -. dn in
        if Float.abs denom > 1e-15 then
          let tt = dc /. denom in
          push (Vec.add cur (Vec.scale tt (Vec.sub next cur)))
      end
    done;
    match dedupe ~eps (List.rev !out) with
    | [] -> None
    | pts ->
        (* Re-hull to restore strict convexity after numerical noise. *)
        Some (of_points pts)
  end

let inter ?(eps = default_eps) a b =
  (* Clip the region with more vertices by the half-planes of the other:
     fewer clip passes and better behaviour when one side is degenerate. *)
  let subject, clipper =
    if Array.length a >= Array.length b then (a, b) else (b, a)
  in
  List.fold_left
    (fun acc h ->
      match acc with None -> None | Some r -> clip ~eps r h)
    (Some subject) (halfplanes clipper)

let inter_all ?(eps = default_eps) = function
  | [] -> invalid_arg "Polygon.inter_all: empty list"
  | first :: rest ->
      List.fold_left
        (fun acc r ->
          match acc with None -> None | Some x -> inter ~eps x r)
        (Some first) rest

let diameter_pair t =
  match Vec.diameter_pair (vertices t) with
  | Some pair -> pair
  | None -> assert false (* regions are non-empty *)

let diameter t = Vec.diameter (vertices t)

let area t =
  let k = Array.length t in
  if k < 3 then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to k - 1 do
      let p = t.(i) and q = t.((i + 1) mod k) in
      acc := !acc +. ((Vec.get p 0 *. Vec.get q 1) -. (Vec.get q 0 *. Vec.get p 1))
    done;
    Float.abs !acc /. 2.
  end

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Vec.pp)
    (vertices t)
