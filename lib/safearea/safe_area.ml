type t =
  | Interval of { lo : float; hi : float }
  | Planar of Polygon.t
  | Spatial of Hull3d.poly
  | Implicit of Hullset.t

let compute_1d ~t vs =
  let arr = Array.map (fun v -> Vec.get v 0) vs in
  Array.sort Float.compare arr;
  let m = Array.length arr in
  (* The intersection's lower end is the largest attainable subset minimum,
     reached by dropping the [t] smallest values; symmetrically above. *)
  let lo = arr.(t) and hi = arr.(m - 1 - t) in
  if lo > hi then None else Some (Interval { lo; hi })

let compute_2d ~t vs =
  let polys =
    Restrict.subsets_arr ~t vs
    |> Array.map (fun sub -> Polygon.of_points (Array.to_list sub))
    |> Array.to_list
  in
  Option.map (fun p -> Planar p) (Polygon.inter_all polys)

let compute_nd_of subs =
  let hs = Hullset.of_arrays subs in
  if Hullset.is_empty hs then None else Some (Implicit hs)

let compute_nd ~t vs = compute_nd_of (Restrict.subsets_arr ~t vs)

(* D = 3 fast path: the exact clipped-polytope kernel. Degenerate inputs
   (affinely dependent subsets, tolerance-thin intersections) and advisory
   emptiness both fall back to the LP-backed implicit kernel, so the
   emptiness *decision* — which the protocol's non-emptiness assertion
   (Lemma 5.5) leans on — is always the LP's. The fallback condition is a
   pure function of the input bits, so all parties take the same arm. *)
let compute_3d ~t vs =
  let subs = Restrict.subsets_arr ~t vs in
  match Hull3d.inter_hulls subs with
  | `Poly p -> Some (Spatial p)
  | `Empty | `Degenerate -> compute_nd_of subs

(* Array-native core: the multiset arrives as an array, is canonicalised in
   place, and flows into the per-dimension kernels without intermediate
   lists. [compute] wraps it for list-based callers. *)
let compute_arr ~t vs =
  let m = Array.length vs in
  if m = 0 then invalid_arg "Safe_area.compute: empty multiset";
  if t < 0 || t >= m then invalid_arg "Safe_area.compute: need 0 <= t < |M|";
  (* Canonicalise the multiset order so the result — including its floating
     point noise — is independent of the order values were received in.
     (Vectors comparing equal are coordinate-identical, so the unstable
     sort cannot perturb the value sequence.) *)
  let vs = Array.copy vs in
  Array.sort Vec.compare vs;
  match Vec.dim vs.(0) with
  | 1 -> compute_1d ~t vs
  | 2 -> compute_2d ~t vs
  | 3 -> compute_3d ~t vs
  | _ -> compute_nd ~t vs

let compute ~t vs = compute_arr ~t (Array.of_list vs)

let contains ?(eps = 1e-9) area p =
  match area with
  | Interval { lo; hi } ->
      let x = Vec.get p 0 in
      x >= lo -. eps && x <= hi +. eps
  | Planar poly -> Polygon.contains ~eps poly p
  | Spatial poly -> Hull3d.contains ~eps poly p
  | Implicit hs -> Hullset.contains ~eps hs p

let diameter_pair = function
  | Interval { lo; hi } -> (Vec.of_list [ lo ], Vec.of_list [ hi ])
  | Planar poly -> Polygon.diameter_pair poly
  | Spatial poly -> Hull3d.diameter_pair poly
  | Implicit hs -> (
      match Hullset.diameter_pair hs with
      | Some pair -> pair
      | None -> assert false (* Implicit areas are non-empty by construction *))

let diameter area =
  let a, b = diameter_pair area in
  Vec.dist a b

let midpoint_value area =
  let a, b = diameter_pair area in
  Vec.midpoint a b

(* Rank 0: the safe area of one repeated point is that point, at every D,
   so no kernel runs once the arguments are valid (invalid ones raise in
   [compute_arr]). [midpoint p p] is what the D ≤ 2 arms return, also where
   [p + p] overflows; 0. and -0. differ here, as those arms may keep either. *)
let new_value_arr ~t vs =
  let m = Array.length vs in
  if m > 0 && t >= 0 && t < m && Array.for_all (Vec.same_bits vs.(0)) vs then
    Some (Vec.midpoint vs.(0) vs.(0))
  else Option.map midpoint_value (compute_arr ~t vs)

let new_value ~t vs = new_value_arr ~t (Array.of_list vs)

let interior_point = function
  | Interval { lo; hi } -> Vec.of_list [ (lo +. hi) /. 2. ]
  | Planar poly -> Vec.centroid (Polygon.vertices poly)
  | Spatial poly -> Hull3d.centroid poly
  | Implicit hs -> (
      match Hullset.find_point hs with
      | Some p -> p
      | None -> assert false (* Implicit areas are non-empty *))
