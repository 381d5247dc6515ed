(* A region is its extreme points in CCW order, stored flat: point [i] is
   [(t.(2i), t.(2i + 1))]. Parties recompute each other's safe areas bit
   for bit, so every float operation keeps {!Vec}'s order: a dot product
   is [(0 + a0·b0) + a1·b1] and normalising multiplies by [1 / norm]. *)
type t = float array
type halfplane = { normal : Vec.t; offset : float }

let default_eps = 1e-9
let npoints t = Array.length t / 2
let[@inline] xat (xs : float array) i = xs.(2 * i)
let[@inline] yat (xs : float array) i = xs.((2 * i) + 1)
let[@inline] set2 (a : float array) i x y = a.(2 * i) <- x; a.((2 * i) + 1) <- y
let[@inline] dot nx ny x y = (0. +. (nx *. x)) +. (ny *. y)
let[@inline] dist ax ay bx by =
  sqrt (dot (ax -. bx) (ay -. by) (ax -. bx) (ay -. by))

let vertices t =
  List.init (npoints t) (fun i -> Vec.of_array (Array.sub t (2 * i) 2))

(* [Vec.compare] on points [i] and [j]: it ties 0. with -0. *)
let compare_pts xs i j =
  let c = Float.compare (xat xs i) (xat xs j) in
  if c <> 0 then c else Float.compare (yat xs i) (yat xs j)

(* Of tied points, [List.sort_uniq] keeps the first in the leftmost leaf
   of its merge tree (n ≥ 4 splits at n/2), except that a three-element
   leaf whose first two points tie keeps its second. Swapping those two in
   the identity ranking makes the kept point the first in rank. *)
let rec rank_leaves r lo n =
  if n = 3 then (r.(lo) <- lo + 1; r.(lo + 1) <- lo)
  else if n > 3 then (
    rank_leaves r lo (n / 2);
    rank_leaves r (lo + (n / 2)) (n - (n / 2)))

(* Twice the signed area of [o → a → p]: positive for a left turn. *)
let[@inline] turn xs o a p =
  ((xat xs a -. xat xs o) *. (yat xs p -. yat xs o))
  -. ((yat xs a -. yat xs o) *. (xat xs p -. xat xs o))

(* Pushes [p] onto the chain [st.(0 .. top - 1)] after popping, down to
   index [lo - 1], each point that does not turn left by more than 1e-12
   on the way to [p]; returns the new top. *)
let push_chain xs st ~lo top p =
  let top = ref top in
  while !top >= lo && turn xs st.(!top - 2) st.(!top - 1) p <= 1e-12 do
    decr top
  done;
  st.(!top) <- p;
  !top + 1

(* Andrew's monotone chain over the first [n ≥ 1] points of [xs]: a stable
   insertion sort of the ranks, deduplicated as [List.sort_uniq
   Vec.compare] does, then the lower chain and the upper one back to the
   first point, which is not repeated. *)
let hull xs n =
  let idx = Array.init n Fun.id and u = ref 1 and top = ref 0 in
  rank_leaves idx 0 n;
  for q = 1 to n - 1 do
    let x = idx.(q) and j = ref (q - 1) in
    while !j >= 0 && compare_pts xs idx.(!j) x > 0 do
      idx.(!j + 1) <- idx.(!j); decr j
    done;
    idx.(!j + 1) <- x
  done;
  for q = 1 to n - 1 do
    if compare_pts xs idx.(!u - 1) idx.(q) <> 0 then (
      idx.(!u) <- idx.(q); incr u)
  done;
  let st = Array.make (2 * !u) 0 in
  for q = 0 to !u - 1 do top := push_chain xs st ~lo:2 !top idx.(q) done;
  let lo = !top + 1 in
  for q = !u - 2 downto 0 do top := push_chain xs st ~lo !top idx.(q) done;
  let k = max 1 (!top - 1) in
  let t = Array.create_float (2 * k) in
  for i = 0 to k - 1 do set2 t i (xat xs st.(i)) (yat xs st.(i)) done;
  t

let of_points pts =
  if pts = [] then invalid_arg "Polygon.of_points: empty list";
  let xs = Array.create_float (2 * List.length pts) in
  List.iteri
    (fun i p ->
      if Vec.dim p <> 2 then invalid_arg "Polygon.of_points: not 2-D";
      set2 xs i (Vec.get p 0) (Vec.get p 1))
    pts;
  hull xs (List.length pts)

(* Half-planes are flat [normal x; normal y; offset] triples. *)
let[@inline] set3 (hp : float array) j nx ny off =
  hp.(3 * j) <- nx; hp.((3 * j) + 1) <- ny; hp.((3 * j) + 2) <- off

(* Half-plane [j]: the outward unit normal of the CCW edge from point [i]
   to point [q] of [t], which points right of it, and its offset. *)
let set_edge hp j t i q =
  let vx = yat t q -. yat t i and vy = -.(xat t q -. xat t i) in
  let norm = sqrt (dot vx vy vx vy) in
  if norm <= 1e-300 then invalid_arg "Polygon: zero-length edge";
  let nx = (1. /. norm) *. vx and ny = (1. /. norm) *. vy in
  set3 hp j nx ny (dot nx ny (xat t i) (yat t i))

(* A finite H-representation of the region, also for the degenerate
   cases: a segment is four half-planes, a point four axis-aligned ones. *)
let halfplanes t =
  match npoints t with
  | 1 ->
      [| 1.; 0.; t.(0); -1.; 0.; -.t.(0); 0.; 1.; t.(1); 0.; -1.; -.t.(1) |]
  | 2 ->
      let hp = Array.create_float 12 in
      set_edge hp 0 t 0 1;
      set3 hp 1 (-1. *. hp.(0)) (-1. *. hp.(1)) (-.hp.(2));
      let ex = t.(2) -. t.(0) and ey = t.(3) -. t.(1) in
      let r = 1. /. sqrt (dot ex ey ex ey) in
      let dx = r *. ex and dy = r *. ey in
      set3 hp 2 (-1. *. dx) (-1. *. dy) (-.dot dx dy t.(0) t.(1));
      set3 hp 3 dx dy (dot dx dy t.(2) t.(3));
      hp
  | k ->
      let hp = Array.create_float (3 * k) in
      for i = 0 to k - 1 do set_edge hp i t i ((i + 1) mod k) done;
      hp

let contains ?(eps = default_eps) t p =
  let px = Vec.get p 0 and py = Vec.get p 1 in
  match npoints t with
  | 1 -> dist t.(0) t.(1) px py <= eps
  | 2 ->
      (* distance from p to segment [a,b] *)
      let ax = t.(0) and ay = t.(1) in
      let abx = t.(2) -. ax and aby = t.(3) -. ay in
      let len2 = dot abx aby abx aby in
      let s = dot (px -. ax) (py -. ay) abx aby /. len2 in
      let tt = if len2 <= 0. then 0. else Float.max 0. (Float.min 1. s) in
      dist px py (ax +. (tt *. abx)) (ay +. (tt *. aby)) <= eps
  | k ->
      let hp = halfplanes t in
      let rec inside j =
        j = k
        || dot hp.(3 * j) hp.((3 * j) + 1) px py <= hp.((3 * j) + 2) +. eps
           && inside (j + 1)
      in
      inside 0

(* Drops each point within [eps] of its successor, so that a close run
   keeps its last point, then a last point within [eps] of the first: the
   sequence is cyclic. Compacts the first [n] points of [xs] in place and
   returns how many remain. *)
let dedupe ~eps xs n =
  let w = ref 0 in
  for i = 0 to n - 1 do
    let x = xat xs i and y = yat xs i in
    if i = n - 1 || not (dist x y (xat xs (i + 1)) (yat xs (i + 1)) <= eps)
    then (set2 xs !w x y; incr w)
  done;
  let w = !w in
  if w >= 2 && dist (xat xs (w - 1)) (yat xs (w - 1)) xs.(0) xs.(1) <= eps
  then w - 1
  else w

(* Clips [t] by half-plane [j] of [hp]. The kept and the crossing points
   go into one buffer, which is deduplicated in place and re-hulled to
   restore strict convexity after numerical noise. *)
let clip_hp ~eps t hp j =
  let nx = hp.(3 * j) and ny = hp.((3 * j) + 1) and off = hp.((3 * j) + 2) in
  let k = npoints t in
  let buf = Array.create_float (4 * k) and w = ref 0 in
  for i = 0 to k - 1 do
    let q = (i + 1) mod k in
    let cx = xat t i and cy = yat t i and qx = xat t q and qy = yat t q in
    let dc = dot nx ny cx cy -. off and dq = dot nx ny qx qy -. off in
    let ic = dot nx ny cx cy <= off +. eps in
    if ic then (set2 buf !w cx cy; incr w);
    if ic <> (dot nx ny qx qy <= off +. eps) && Float.abs (dc -. dq) > 1e-15
    then begin
      let tt = dc /. (dc -. dq) in
      set2 buf !w (cx +. (tt *. (qx -. cx))) (cy +. (tt *. (qy -. cy)));
      incr w
    end
  done;
  match dedupe ~eps buf !w with 0 -> None | n -> Some (hull buf n)

let clip ?(eps = default_eps) t { normal; offset } =
  clip_hp ~eps t [| Vec.get normal 0; Vec.get normal 1; offset |] 0

let inter ?(eps = default_eps) a b =
  (* Clip the region with more vertices by the half-planes of the other:
     fewer clip passes and better behaviour when one side is degenerate. *)
  let subject, clipper =
    if Array.length a >= Array.length b then (a, b) else (b, a)
  in
  let hp = halfplanes clipper in
  let rec go r j =
    if 3 * j = Array.length hp then Some r
    else Option.bind (clip_hp ~eps r hp j) (fun r -> go r (j + 1))
  in
  go subject 0

let inter_all ?(eps = default_eps) = function
  | [] -> invalid_arg "Polygon.inter_all: empty list"
  | first :: rest ->
      List.fold_left
        (fun acc r -> Option.bind acc (fun x -> inter ~eps x r))
        (Some first) rest

(* regions are non-empty *)
let diameter_pair t = Option.get (Vec.diameter_pair (vertices t))
let diameter t = Vec.diameter (vertices t)

let area t =
  let k = npoints t and acc = ref 0. in
  for i = 0 to k - 1 do
    let q = (i + 1) mod k in
    acc := !acc +. ((xat t i *. yat t q) -. (xat t q *. yat t i))
  done;
  if k < 3 then 0. else Float.abs !acc /. 2.

let pp ppf t =
  let pp_sep ppf () = Format.fprintf ppf "; " in
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep Vec.pp) (vertices t)
