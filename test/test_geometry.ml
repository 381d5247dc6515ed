(* Tests for 2-D hulls, convex polygon operations, and the LP-backed
   general-dimension hull machinery. *)

let v = Vec.of_list
let vec = Alcotest.testable Vec.pp (fun a b -> Vec.compare a b = 0)

let hull pts = Polygon.vertices (Polygon.of_points pts)

let test_hull_square () =
  let pts =
    [ v [ 0.; 0. ]; v [ 1.; 0. ]; v [ 1.; 1. ]; v [ 0.; 1. ]; v [ 0.5; 0.5 ] ]
  in
  Alcotest.(check (list vec))
    "square hull CCW"
    [ v [ 0.; 0. ]; v [ 1.; 0. ]; v [ 1.; 1. ]; v [ 0.; 1. ] ]
    (hull pts)

let test_hull_degenerate () =
  Alcotest.(check (list vec)) "point" [ v [ 1.; 2. ] ] (hull [ v [ 1.; 2. ] ]);
  Alcotest.(check (list vec))
    "duplicates collapse" [ v [ 1.; 2. ] ]
    (hull [ v [ 1.; 2. ]; v [ 1.; 2. ] ]);
  Alcotest.(check (list vec))
    "collinear keeps extremes"
    [ v [ 0.; 0. ]; v [ 3.; 3. ] ]
    (hull [ v [ 1.; 1. ]; v [ 0.; 0. ]; v [ 3.; 3. ]; v [ 2.; 2. ] ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Polygon.of_points: empty list") (fun () ->
      ignore (Polygon.of_points []))

let test_hull_collinear_on_edge () =
  (* midpoint of an edge must be dropped *)
  let h = hull [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 1.; 0. ]; v [ 1.; 1. ] ] in
  Alcotest.(check int) "3 vertices" 3 (List.length h)

(* a clockwise input comes out counter-clockwise: every consecutive
   triple of hull vertices turns left *)
let test_cross () =
  let cross o a b =
    let x p = Vec.get p 0 and y p = Vec.get p 1 in
    ((x a -. x o) *. (y b -. y o)) -. ((y a -. y o) *. (x b -. x o))
  in
  match hull [ v [ 0.; 0. ]; v [ 0.; 1. ]; v [ 1.; 1. ]; v [ 1.; 0. ] ] with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "ccw positive" true
        (List.for_all (fun (o, a, b) -> cross o a b > 0.)
           [ (a, b, c); (b, c, d); (c, d, a); (d, a, b) ])
  | _ -> Alcotest.fail "four vertices"

(* --- Polygon --- *)

let triangle = Polygon.of_points [ v [ 0.; 0. ]; v [ 4.; 0. ]; v [ 0.; 4. ] ]
let square01 = Polygon.of_points [ v [ 0.; 0. ]; v [ 1.; 0. ]; v [ 1.; 1. ]; v [ 0.; 1. ] ]

let test_polygon_contains () =
  Alcotest.(check bool) "inside" true (Polygon.contains triangle (v [ 1.; 1. ]));
  Alcotest.(check bool) "boundary" true (Polygon.contains triangle (v [ 2.; 2. ]));
  Alcotest.(check bool) "vertex" true (Polygon.contains triangle (v [ 0.; 0. ]));
  Alcotest.(check bool) "outside" false (Polygon.contains triangle (v [ 3.; 3. ]))

let test_polygon_contains_degenerate () =
  let seg = Polygon.of_points [ v [ 0.; 0. ]; v [ 2.; 2. ] ] in
  Alcotest.(check bool) "on segment" true (Polygon.contains seg (v [ 1.; 1. ]));
  Alcotest.(check bool) "off segment" false (Polygon.contains seg (v [ 1.; 1.5 ]));
  Alcotest.(check bool) "past endpoint" false (Polygon.contains seg (v [ 3.; 3. ]));
  let pt = Polygon.of_points [ v [ 1.; 1. ] ] in
  Alcotest.(check bool) "point self" true (Polygon.contains pt (v [ 1.; 1. ]));
  Alcotest.(check bool) "point other" false (Polygon.contains pt (v [ 1.; 1.1 ]))

let test_polygon_clip () =
  (* clip the 4x4 triangle to x <= 2 *)
  let h = { Polygon.normal = v [ 1.; 0. ]; offset = 2. } in
  match Polygon.clip triangle h with
  | None -> Alcotest.fail "clip should be non-empty"
  | Some p ->
      Alcotest.(check (float 1e-9)) "area" 6. (Polygon.area p);
      Alcotest.(check bool) "kept" true (Polygon.contains p (v [ 1.; 1. ]));
      Alcotest.(check bool) "cut" false (Polygon.contains p (v [ 3.; 0.5 ]))

let test_polygon_clip_away () =
  let h = { Polygon.normal = v [ 1.; 0. ]; offset = -1. } in
  Alcotest.(check bool) "clipped away" true (Polygon.clip triangle h = None)

let test_polygon_inter () =
  (* unit square moved by (0.5, 0.5) overlaps in a 0.5x0.5 square *)
  let other =
    Polygon.of_points
      [ v [ 0.5; 0.5 ]; v [ 1.5; 0.5 ]; v [ 1.5; 1.5 ]; v [ 0.5; 1.5 ] ]
  in
  match Polygon.inter square01 other with
  | None -> Alcotest.fail "should intersect"
  | Some p -> Alcotest.(check (float 1e-9)) "area" 0.25 (Polygon.area p)

let test_polygon_inter_empty () =
  let far = Polygon.of_points [ v [ 5.; 5. ]; v [ 6.; 5. ]; v [ 5.; 6. ] ] in
  Alcotest.(check bool) "disjoint" true (Polygon.inter square01 far = None)

let test_polygon_inter_point () =
  (* two squares sharing exactly one corner *)
  let other =
    Polygon.of_points [ v [ 1.; 1. ]; v [ 2.; 1. ]; v [ 2.; 2. ]; v [ 1.; 2. ] ]
  in
  match Polygon.inter square01 other with
  | None -> Alcotest.fail "corner intersection lost"
  | Some p ->
      Alcotest.(check int) "single point" 1 (List.length (Polygon.vertices p));
      Alcotest.(check bool) "is the corner" true (Polygon.contains p (v [ 1.; 1. ]))

let test_polygon_inter_segments () =
  (* crossing segments meet in a point *)
  let s1 = Polygon.of_points [ v [ 0.; 0. ]; v [ 2.; 2. ] ] in
  let s2 = Polygon.of_points [ v [ 0.; 2. ]; v [ 2.; 0. ] ] in
  (match Polygon.inter s1 s2 with
  | None -> Alcotest.fail "crossing segments"
  | Some p ->
      Alcotest.(check bool) "center" true (Polygon.contains p (v [ 1.; 1. ])));
  (* collinear overlapping segments meet in a segment *)
  let s3 = Polygon.of_points [ v [ 1.; 1. ]; v [ 3.; 3. ] ] in
  match Polygon.inter s1 s3 with
  | None -> Alcotest.fail "collinear overlap"
  | Some p ->
      Alcotest.(check bool) "low end" true (Polygon.contains p (v [ 1.; 1. ]));
      Alcotest.(check bool) "high end" true (Polygon.contains p (v [ 2.; 2. ]));
      Alcotest.(check bool) "outside overlap" false
        (Polygon.contains p (v [ 0.5; 0.5 ]))

let test_polygon_diameter () =
  let a, b = Polygon.diameter_pair triangle in
  Alcotest.(check (float 1e-9)) "diameter" (4. *. sqrt 2.) (Vec.dist a b);
  Alcotest.(check (float 1e-9)) "diameter fn" (4. *. sqrt 2.)
    (Polygon.diameter triangle)

let test_polygon_inter_all () =
  let t2 = Polygon.of_points [ v [ 0.; 0. ]; v [ 4.; 0. ]; v [ 4.; 4. ] ] in
  let t3 = Polygon.of_points [ v [ 0.; 0. ]; v [ 4.; 4. ]; v [ 0.; 4. ] ] in
  match Polygon.inter_all [ triangle; t2; t3 ] with
  | None -> Alcotest.fail "non-empty"
  | Some p ->
      Alcotest.(check bool) "origin in all" true (Polygon.contains p (v [ 0.; 0. ]))

(* --- Membership (LP) --- *)

let test_membership_simplex () =
  let pts = [ v [ 0.; 0.; 0. ]; v [ 1.; 0.; 0. ]; v [ 0.; 1.; 0. ]; v [ 0.; 0.; 1. ] ] in
  Alcotest.(check bool) "centroid inside" true
    (Membership.in_hull pts (v [ 0.25; 0.25; 0.25 ]));
  Alcotest.(check bool) "vertex inside" true
    (Membership.in_hull pts (v [ 0.; 0.; 1. ]));
  Alcotest.(check bool) "outside" false
    (Membership.in_hull pts (v [ 0.5; 0.5; 0.5 ]));
  Alcotest.(check bool) "negative outside" false
    (Membership.in_hull pts (v [ -0.1; 0.; 0. ]))

let test_membership_coeffs () =
  let pts = [ v [ 0. ]; v [ 2. ] ] in
  match Membership.coeffs pts (v [ 0.5 ]) with
  | None -> Alcotest.fail "inside"
  | Some lam ->
      Alcotest.(check (float 1e-7)) "lambda0" 0.75 lam.(0);
      Alcotest.(check (float 1e-7)) "lambda1" 0.25 lam.(1)

(* membership must agree with the exact polygon test in 2-D *)
let prop_membership_agrees_2d =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 3 8)
           (list_repeat 2 (float_range (-10.) 10.)))
        (list_repeat 2 (float_range (-12.) 12.)))
  in
  QCheck.Test.make ~name:"LP membership agrees with polygon test" ~count:150
    (QCheck.make gen) (fun (pts_l, p_l) ->
      let pts = List.map Vec.of_list pts_l and p = Vec.of_list p_l in
      let poly = Polygon.of_points pts in
      (* skip points within 1e-6 of the boundary, where the two eps regimes
         may legitimately disagree *)
      let inside = Polygon.contains ~eps:(-1e-6) poly p in
      let outside = not (Polygon.contains ~eps:1e-6 poly p) in
      QCheck.assume (inside || outside);
      Membership.in_hull pts p = inside)

let gen_poly_pts =
  QCheck.Gen.(list_size (int_range 3 9) (list_repeat 2 (float_range (-10.) 10.)))

let prop_hull_idempotent =
  QCheck.Test.make ~name:"hull is idempotent" ~count:200 (QCheck.make gen_poly_pts)
    (fun pts_l ->
      let pts = List.map Vec.of_list pts_l in
      let h = hull pts in
      hull h = h)

let prop_hull_contains_inputs =
  QCheck.Test.make ~name:"hull contains all inputs" ~count:200
    (QCheck.make gen_poly_pts) (fun pts_l ->
      let pts = List.map Vec.of_list pts_l in
      let poly = Polygon.of_points pts in
      List.for_all (fun p -> Polygon.contains ~eps:1e-7 poly p) pts)

let prop_clip_stays_inside =
  QCheck.Test.make ~name:"clip result stays inside the polygon" ~count:150
    (QCheck.make QCheck.Gen.(pair gen_poly_pts (pair (float_range (-1.) 1.) (float_range (-10.) 10.))))
    (fun (pts_l, (nx, off)) ->
      let pts = List.map Vec.of_list pts_l in
      let poly = Polygon.of_points pts in
      let ny = sqrt (Float.max 0. (1. -. (nx *. nx))) in
      let h = { Polygon.normal = Vec.of_list [ nx; ny ]; offset = off } in
      match Polygon.clip poly h with
      | None -> true
      | Some clipped ->
          List.for_all
            (fun p ->
              Polygon.contains ~eps:1e-6 poly p
              && Vec.dot (Vec.of_list [ nx; ny ]) p <= off +. 1e-6)
            (Polygon.vertices clipped))

let prop_inter_inside_both =
  QCheck.Test.make ~name:"intersection inside both polygons" ~count:150
    (QCheck.make QCheck.Gen.(pair gen_poly_pts gen_poly_pts))
    (fun (a_l, b_l) ->
      let pa = Polygon.of_points (List.map Vec.of_list a_l) in
      let pb = Polygon.of_points (List.map Vec.of_list b_l) in
      match Polygon.inter pa pb with
      | None -> true
      | Some r ->
          List.for_all
            (fun p ->
              Polygon.contains ~eps:1e-6 pa p && Polygon.contains ~eps:1e-6 pb p)
            (Polygon.vertices r))

let prop_inter_area_shrinks =
  QCheck.Test.make ~name:"intersection area bounded by both" ~count:150
    (QCheck.make QCheck.Gen.(pair gen_poly_pts gen_poly_pts))
    (fun (a_l, b_l) ->
      let pa = Polygon.of_points (List.map Vec.of_list a_l) in
      let pb = Polygon.of_points (List.map Vec.of_list b_l) in
      match Polygon.inter pa pb with
      | None -> true
      | Some r ->
          Polygon.area r <= Polygon.area pa +. 1e-6
          && Polygon.area r <= Polygon.area pb +. 1e-6)

(* --- Hullset --- *)

let test_hullset_basic () =
  let h1 = [ v [ 0.; 0. ]; v [ 4.; 0. ]; v [ 0.; 4. ] ] in
  let h2 = [ v [ 1.; 1. ]; v [ 5.; 1. ]; v [ 1.; 5. ] ] in
  let hs = Hullset.make [ h1; h2 ] in
  Alcotest.(check bool) "non-empty" false (Hullset.is_empty hs);
  Alcotest.(check bool) "contains" true (Hullset.contains hs (v [ 1.5; 1.5 ]));
  Alcotest.(check bool) "not contains" false (Hullset.contains hs (v [ 0.5; 0.5 ]));
  match Hullset.find_point hs with
  | None -> Alcotest.fail "point"
  | Some p -> Alcotest.(check bool) "found point inside" true (Hullset.contains hs p)

let test_hullset_empty () =
  let h1 = [ v [ 0.; 0. ]; v [ 1.; 0. ] ] in
  let h2 = [ v [ 0.; 1. ]; v [ 1.; 1. ] ] in
  Alcotest.(check bool) "empty" true (Hullset.is_empty (Hullset.make [ h1; h2 ]))

let test_hullset_support () =
  let hs = Hullset.make [ [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 2.; 2. ]; v [ 0.; 2. ] ] ] in
  match Hullset.support hs ~dir:(v [ 1.; 1. ]) with
  | None -> Alcotest.fail "support"
  | Some (value, p) ->
      Alcotest.(check (float 1e-7)) "value" 4. value;
      Alcotest.(check bool) "maximiser" true (Vec.dist p (v [ 2.; 2. ]) <= 1e-6)

let test_hullset_diameter_square () =
  let hs = Hullset.make [ [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 2.; 2. ]; v [ 0.; 2. ] ] ] in
  match Hullset.diameter_pair hs with
  | None -> Alcotest.fail "diameter"
  | Some (a, b) ->
      Alcotest.(check (float 1e-6)) "diagonal" (2. *. sqrt 2.) (Vec.dist a b)

let test_hullset_diameter_3d () =
  (* intersection of two tetrahedra = octahedron-ish region; check that the
     approximation at least finds points inside and a sensible diameter *)
  let cube =
    [
      v [ 0.; 0.; 0. ]; v [ 1.; 0.; 0. ]; v [ 0.; 1.; 0. ]; v [ 0.; 0.; 1. ];
      v [ 1.; 1.; 0. ]; v [ 1.; 0.; 1. ]; v [ 0.; 1.; 1. ]; v [ 1.; 1.; 1. ];
    ]
  in
  let shifted = List.map (fun p -> Vec.add p (v [ 0.5; 0.; 0. ])) cube in
  let hs = Hullset.make [ cube; shifted ] in
  match Hullset.diameter_pair hs with
  | None -> Alcotest.fail "diameter"
  | Some (a, b) ->
      Alcotest.(check bool) "a in K" true (Hullset.contains hs a);
      Alcotest.(check bool) "b in K" true (Hullset.contains hs b);
      (* exact diameter: the 0.5 x 1 x 1 box diagonal = sqrt(2.25) = 1.5 *)
      let d = Vec.dist a b in
      Alcotest.(check bool) "close to exact" true (Float.abs (d -. 1.5) <= 0.02)

let test_hullset_of_arrays () =
  let h1 = [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 2.; 2. ]; v [ 0.; 2. ] ] in
  let h2 = [ v [ 1.; 1. ]; v [ 3.; 1. ]; v [ 3.; 3. ]; v [ 1.; 3. ] ] in
  let from_lists = Hullset.make [ h1; h2 ] in
  let from_arrays =
    Hullset.of_arrays [| Array.of_list h1; Array.of_list h2 |]
  in
  Alcotest.(check bool) "same find_point" true
    (Hullset.find_point from_lists = Hullset.find_point from_arrays);
  Alcotest.(check bool) "same diameter" true
    (Hullset.diameter_pair from_lists = Hullset.diameter_pair from_arrays);
  Alcotest.check_raises "no hulls" (Invalid_argument "Hullset.make: no hulls")
    (fun () -> ignore (Hullset.of_arrays [||]));
  Alcotest.check_raises "empty hull"
    (Invalid_argument "Hullset.make: empty hull") (fun () ->
      ignore (Hullset.of_arrays [| [| v [ 0.; 0. ] |]; [||] |]))

(* --- cached workspace vs the one-shot reference path --- *)

let vec_opt_bits_eq a b =
  match (a, b) with
  | None, None -> true
  | Some u, Some w -> Vec.compare u w = 0
  | _ -> false

let pair_opt_bits_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (u1, u2), Some (w1, w2) ->
      Vec.compare u1 w1 = 0 && Vec.compare u2 w2 = 0
  | _ -> false

(* The workspace-backed queries must be bit-identical to the pre-workspace
   one-shot path (Hullset.Reference), per the solver's replay guarantee —
   this is what keeps cached recomputation protocol-safe. Exercised on the
   full safe-area shape: hullsets built from restrict_t subset families of
   random point sets in D ∈ {3, 4}. *)
let prop_workspace_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 3 4 >>= fun d ->
      int_range 5 6 >>= fun n ->
      list_repeat n (list_repeat d (float_range (-10.) 10.)) >|= fun pts ->
      (d, List.map Vec.of_list pts))
  in
  QCheck.Test.make ~name:"workspace queries ≡ one-shot reference" ~count:25
    (QCheck.make ~print:(fun (d, pts) ->
         Printf.sprintf "d=%d n=%d %s" d (List.length pts)
           (String.concat " " (List.map Vec.to_string pts)))
       gen)
    (fun (d, pts) ->
      let hs = Hullset.of_arrays (Restrict.subsets_arr ~t:1 (Array.of_list pts)) in
      let dp = Hullset.diameter_pair hs in
      let axis = Vec.basis ~dim:d 0 1. in
      vec_opt_bits_eq (Hullset.find_point hs) (Hullset.Reference.find_point hs)
      && pair_opt_bits_eq dp (Hullset.Reference.diameter_pair hs)
      && (match (Hullset.support hs ~dir:axis, Hullset.Reference.support hs ~dir:axis) with
         | None, None -> true
         | Some (v1, p1), Some (v2, p2) ->
             Int64.bits_of_float v1 = Int64.bits_of_float v2
             && Vec.compare p1 p2 = 0
         | _ -> false)
      (* and the cached answers are stable under repetition *)
      && pair_opt_bits_eq dp (Hullset.diameter_pair hs))

(* Support-cache hits must be bit-identical to cold queries: a twin hullset
   answers each direction cold exactly once, while the probed hullset
   answers the same direction repeatedly from its memo table — every answer
   must carry the same bits. An eps change in between must drop the memo
   and reproduce the cold answer again. *)
let prop_support_cache_hits_bit_identical =
  let gen =
    QCheck.Gen.(
      int_range 3 4 >>= fun d ->
      int_range 5 6 >>= fun n ->
      list_repeat n (list_repeat d (float_range (-10.) 10.)) >|= fun pts ->
      (d, List.map Vec.of_list pts))
  in
  QCheck.Test.make ~name:"support-cache hits ≡ cold queries" ~count:25
    (QCheck.make ~print:(fun (d, pts) ->
         Printf.sprintf "d=%d n=%d %s" d (List.length pts)
           (String.concat " " (List.map Vec.to_string pts)))
       gen)
    (fun (d, pts) ->
      let mk () =
        Hullset.of_arrays (Restrict.subsets_arr ~t:1 (Array.of_list pts))
      in
      let cold = mk () and hot = mk () in
      let support_bits_eq a b =
        match (a, b) with
        | None, None -> true
        | Some (v1, p1), Some (v2, p2) ->
            Int64.bits_of_float v1 = Int64.bits_of_float v2
            && Vec.compare p1 p2 = 0
        | _ -> false
      in
      let dirs =
        List.init d (fun c -> Vec.basis ~dim:d c 1.)
        @ List.init d (fun c -> Vec.basis ~dim:d c (-1.))
      in
      List.for_all
        (fun dir ->
          let reference = Hullset.support cold ~dir in
          let first = Hullset.support hot ~dir in
          let hit = Hullset.support hot ~dir in
          (* a different eps resets the memo; returning must restore the
             original bits via a fresh cold solve *)
          ignore (Hullset.support hot ~eps:1e-6 ~dir);
          let after_reset = Hullset.support hot ~dir in
          support_bits_eq reference first && support_bits_eq first hit
          && support_bits_eq reference after_reset)
        dirs
      && vec_opt_bits_eq (Hullset.find_point hot) (Hullset.find_point hot)
      && vec_opt_bits_eq (Hullset.find_point hot) (Hullset.find_point cold))

let test_hullset_deterministic () =
  let h1 = [ v [ 0.; 0.; 0. ]; v [ 2.; 0.; 0. ]; v [ 0.; 2.; 0. ]; v [ 0.; 0.; 2. ] ] in
  let h2 = [ v [ 1.; 1.; 1. ]; v [ -1.; 0.; 0. ]; v [ 0.; -1.; 0. ]; v [ 0.; 0.; 1. ] ] in
  let hs () = Hullset.make [ h1; h2 ] in
  let p1 = Hullset.diameter_pair (hs ()) and p2 = Hullset.diameter_pair (hs ()) in
  Alcotest.(check bool) "same result" true (p1 = p2)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "geometry"
    [
      ( "hull2d",
        [
          Alcotest.test_case "square" `Quick test_hull_square;
          Alcotest.test_case "degenerate" `Quick test_hull_degenerate;
          Alcotest.test_case "collinear on edge" `Quick test_hull_collinear_on_edge;
          Alcotest.test_case "cross" `Quick test_cross;
        ] );
      ( "polygon",
        [
          Alcotest.test_case "contains" `Quick test_polygon_contains;
          Alcotest.test_case "contains degenerate" `Quick
            test_polygon_contains_degenerate;
          Alcotest.test_case "clip" `Quick test_polygon_clip;
          Alcotest.test_case "clip away" `Quick test_polygon_clip_away;
          Alcotest.test_case "inter" `Quick test_polygon_inter;
          Alcotest.test_case "inter empty" `Quick test_polygon_inter_empty;
          Alcotest.test_case "inter point" `Quick test_polygon_inter_point;
          Alcotest.test_case "inter segments" `Quick test_polygon_inter_segments;
          Alcotest.test_case "diameter" `Quick test_polygon_diameter;
          Alcotest.test_case "inter_all" `Quick test_polygon_inter_all;
        ] );
      ( "membership",
        [
          Alcotest.test_case "simplex 3d" `Quick test_membership_simplex;
          Alcotest.test_case "coeffs" `Quick test_membership_coeffs;
        ] );
      ( "hullset",
        [
          Alcotest.test_case "basic" `Quick test_hullset_basic;
          Alcotest.test_case "empty" `Quick test_hullset_empty;
          Alcotest.test_case "support" `Quick test_hullset_support;
          Alcotest.test_case "diameter square" `Quick test_hullset_diameter_square;
          Alcotest.test_case "diameter 3d" `Quick test_hullset_diameter_3d;
          Alcotest.test_case "deterministic" `Quick test_hullset_deterministic;
          Alcotest.test_case "of_arrays" `Quick test_hullset_of_arrays;
        ] );
      ( "properties",
        q
          [
            prop_workspace_matches_reference;
            prop_support_cache_hits_bit_identical;
            prop_membership_agrees_2d;
            prop_hull_idempotent;
            prop_hull_contains_inputs;
            prop_clip_stays_inside;
            prop_inter_inside_both;
            prop_inter_area_shrinks;
          ] );
    ]
