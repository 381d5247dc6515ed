(* The exact D = 3 kernel, differentially against the LP-backed oracle.

   Hull3d is the fast path for D = 3 safe areas; Hullset.Reference (the
   seed one-shot LP implementation) is the ground truth it must agree
   with: containment both ways at ε and diameter within tolerance, over
   random and adversarial point sets. All grids are seeded with the
   repo's SplitMix64 generator, so the cases — and hence the verdicts —
   are identical on every run. *)

let vec3 x y z = Vec.of_list [ x; y; z ]

let poly_exn = function
  | `Poly p -> p
  | `Degenerate -> Alcotest.fail "unexpected `Degenerate"

(* --- unit tests on the primitives --- *)

let unit_cube_pts =
  [
    vec3 0. 0. 0.;
    vec3 1. 0. 0.;
    vec3 0. 1. 0.;
    vec3 1. 1. 0.;
    vec3 0. 0. 1.;
    vec3 1. 0. 1.;
    vec3 0. 1. 1.;
    vec3 1. 1. 1.;
  ]

let test_cube () =
  let p = poly_exn (Hull3d.of_points unit_cube_pts) in
  Alcotest.(check int) "6 faces" 6 (Hull3d.nfaces p);
  Alcotest.(check int) "8 vertices" 8 (List.length (Hull3d.vertices p));
  Alcotest.(check (float 1e-9)) "diameter √3" (sqrt 3.) (Hull3d.diameter p);
  let c = Hull3d.centroid p in
  Alcotest.(check (float 1e-9)) "centroid x" 0.5 (Vec.get c 0);
  Alcotest.(check bool) "contains centre" true
    (Hull3d.contains p (vec3 0.5 0.5 0.5));
  Alcotest.(check bool) "excludes outside" false
    (Hull3d.contains p (vec3 1.5 0.5 0.5))

let test_cube_interior_ignored () =
  (* interior and duplicate generators change nothing *)
  let p =
    poly_exn
      (Hull3d.of_points
         (unit_cube_pts @ [ vec3 0.5 0.5 0.5; vec3 1. 1. 1.; vec3 0.25 0.5 0.5 ]))
  in
  Alcotest.(check int) "still 6 faces" 6 (Hull3d.nfaces p);
  Alcotest.(check int) "still 8 vertices" 8 (List.length (Hull3d.vertices p))

let test_tetrahedron () =
  let p =
    poly_exn
      (Hull3d.of_points
         [ vec3 0. 0. 0.; vec3 2. 0. 0.; vec3 0. 2. 0.; vec3 0. 0. 2. ])
  in
  Alcotest.(check int) "4 faces" 4 (Hull3d.nfaces p);
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull3d.vertices p));
  let a, b = Hull3d.diameter_pair p in
  Alcotest.(check (float 1e-9)) "diameter 2√2" (2. *. sqrt 2.) (Vec.dist a b)

let test_degenerate_inputs () =
  let deg pts =
    match Hull3d.of_points pts with `Degenerate -> true | `Poly _ -> false
  in
  Alcotest.(check bool) "too few points" true
    (deg [ vec3 0. 0. 0.; vec3 1. 0. 0.; vec3 0. 1. 0. ]);
  Alcotest.(check bool) "coplanar" true
    (deg [ vec3 0. 0. 0.; vec3 1. 0. 0.; vec3 0. 1. 0.; vec3 1. 1. 0. ]);
  Alcotest.(check bool) "collinear" true
    (deg [ vec3 0. 0. 0.; vec3 1. 1. 1.; vec3 2. 2. 2.; vec3 3. 3. 3. ]);
  Alcotest.(check bool) "all equal" true
    (deg (List.init 5 (fun _ -> vec3 1. 2. 3.)))

let test_inter_hulls () =
  let shift d = List.map (fun v -> Vec.add v (vec3 d 0. 0.)) unit_cube_pts in
  (* overlapping cubes: a 0.5 × 1 × 1 box *)
  (match
     Hull3d.inter_hulls
       [| Array.of_list unit_cube_pts; Array.of_list (shift 0.5) |]
   with
  | `Poly p ->
      Alcotest.(check (float 1e-9))
        "slab diameter" (sqrt 2.25) (Hull3d.diameter p);
      Alcotest.(check bool) "slab member" true
        (Hull3d.contains p (vec3 0.75 0.5 0.5));
      Alcotest.(check bool) "slab non-member" false
        (Hull3d.contains p (vec3 0.25 0.5 0.5))
  | `Empty | `Degenerate -> Alcotest.fail "expected a proper intersection");
  (* disjoint cubes *)
  match
    Hull3d.inter_hulls
      [| Array.of_list unit_cube_pts; Array.of_list (shift 3.) |]
  with
  | `Empty -> ()
  | `Poly _ | `Degenerate -> Alcotest.fail "expected `Empty"

(* --- differential grid vs the LP oracle --- *)

let eps_member = 1e-6

(* One case: compare the Safe_area D = 3 result against the reference
   one-shot LP queries on the very same trimmed-subset family. *)
let check_case ~name ~t pts =
  let vs = Array.of_list pts in
  Array.sort Vec.compare vs;
  (* t < |M| is a caller invariant of Safe_area.compute *)
  match Safe_area.compute_arr ~t vs with
  | None ->
      (* the exact kernel never decides emptiness alone: the LP must agree *)
      let hs = Hullset.of_arrays (Restrict.subsets_arr ~t vs) in
      Alcotest.(check bool) (name ^ ": reference agrees empty") true
        (Hullset.is_empty hs)
  | Some (Safe_area.Spatial p) -> (
      let hs = Hullset.of_arrays (Restrict.subsets_arr ~t vs) in
      (* every polytope vertex is in the reference intersection *)
      List.iter
        (fun v ->
          if not (Hullset.contains ~eps:eps_member hs v) then
            Alcotest.failf "%s: hull3d vertex %s outside reference" name
              (Vec.to_string v))
        (Hull3d.vertices p);
      (* the reference's witness points are in the polytope *)
      (match Hullset.Reference.find_point hs with
      | None -> Alcotest.failf "%s: reference empty but hull3d non-empty" name
      | Some q ->
          Alcotest.(check bool)
            (name ^ ": reference point inside")
            true
            (Hull3d.contains ~eps:eps_member p q));
      match Hullset.Reference.diameter_pair hs with
      | None -> Alcotest.failf "%s: reference diameter missing" name
      | Some (a, b) ->
          Alcotest.(check bool)
            (name ^ ": reference pair inside")
            true
            (Hull3d.contains ~eps:eps_member p a
            && Hull3d.contains ~eps:eps_member p b);
          let d3 = Hull3d.diameter p and dref = Vec.dist a b in
          (* the exact diameter dominates the LP search's lower bound and
             stays within its convergence band *)
          if d3 +. 1e-6 < dref then
            Alcotest.failf "%s: exact diameter %.9g below reference %.9g" name
              d3 dref;
          if d3 > (dref *. 1.25) +. 1e-6 then
            Alcotest.failf
              "%s: exact diameter %.9g implausibly above reference %.9g" name
              d3 dref)
  | Some (Safe_area.Implicit _) ->
      (* degenerate fallback: the LP kernel is the oracle itself; nothing to
         compare, but the arm choice must be deterministic — recompute *)
      let again =
        match Safe_area.compute_arr ~t vs with
        | Some (Safe_area.Implicit _) -> true
        | _ -> false
      in
      Alcotest.(check bool) (name ^ ": fallback deterministic") true again
  | Some _ -> Alcotest.failf "%s: non-D-3 representation" name

let test_differential_random () =
  let rng = Rng.create 2026L in
  for n = 4 to 8 do
    for t = 1 to min 2 (n - 2) do
      for rep = 1 to 6 do
        let pts =
          List.init n (fun _ ->
              vec3
                (Rng.float_range rng (-10.) 10.)
                (Rng.float_range rng (-10.) 10.)
                (Rng.float_range rng (-10.) 10.))
        in
        check_case ~name:(Printf.sprintf "rand n=%d t=%d rep=%d" n t rep) ~t
          pts
      done
    done
  done

let test_differential_adversarial () =
  let rng = Rng.create 4096L in
  (* clustered: two tight clouds far apart *)
  for rep = 1 to 4 do
    let cloud c k =
      List.init k (fun _ ->
          Vec.add c
            (vec3
               (Rng.float_range rng (-0.01) 0.01)
               (Rng.float_range rng (-0.01) 0.01)
               (Rng.float_range rng (-0.01) 0.01)))
    in
    check_case
      ~name:(Printf.sprintf "clusters rep=%d" rep)
      ~t:1
      (cloud (vec3 (-5.) 0. 0.) 4 @ cloud (vec3 5. 1. 1.) 4)
  done;
  (* duplicates surviving the trim *)
  check_case ~name:"duplicates" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 0. 0. 0.;
      vec3 4. 0. 0.;
      vec3 0. 4. 0.;
      vec3 0. 0. 4.;
      vec3 1. 1. 1.;
    ];
  (* coplanar multiset: must fall back (degenerate) and stay consistent *)
  check_case ~name:"coplanar" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 1. 0. 0.;
      vec3 0. 1. 0.;
      vec3 1. 1. 0.;
      vec3 0.5 0.5 0.;
    ];
  (* near-coplanar: thickness far below the membership tolerance *)
  check_case ~name:"near-coplanar" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 1. 0. 0.;
      vec3 0. 1. 0.;
      vec3 1. 1. 1e-12;
      vec3 0.5 0.25 0.;
    ];
  (* simplex corners with an outlier the trim removes *)
  check_case ~name:"simplex+outlier" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 10. 0. 0.;
      vec3 0. 10. 0.;
      vec3 0. 0. 10.;
      vec3 3. 3. 3.;
      vec3 1000. 1000. 1000.;
    ];
  (* a scaled-down copy of the same shape: tolerance must be relative *)
  check_case ~name:"tiny scale" ~t:1
    (List.map
       (fun v -> Vec.scale 1e-6 v)
       [
         vec3 0. 0. 0.;
         vec3 10. 0. 0.;
         vec3 0. 10. 0.;
         vec3 0. 0. 10.;
         vec3 3. 3. 3.;
         vec3 9. 9. 9.;
       ])

(* --- golden bits: the kernel's exact output, pinned --- *)

(* Multisets of the shapes the D = 3 kernel meets: the sync-d3-poison
   workload (seven values in [0,10]³ and a poisoner at 1000·1, t = 1), the
   experiments' n = 6, t = 1, signed-zero coordinates (ties of
   [Vec.compare]), duplicated values, subsets that are coplanar (the kernel
   must answer [`Degenerate]) and extreme scales. *)
let golden_cases =
  let cube rng k lo hi =
    List.init k (fun _ ->
        vec3 (Rng.float_range rng lo hi) (Rng.float_range rng lo hi)
          (Rng.float_range rng lo hi))
  in
  let poison seed =
    cube (Rng.create seed) 7 0. 10. @ [ vec3 1000. 1000. 1000. ]
  in
  let n6 = cube (Rng.create 61L) 6 (-10.) 10. in
  let dup =
    match cube (Rng.create 62L) 6 0. 10. with
    | a :: b :: _ as l -> l @ [ a; b ]
    | _ -> assert false
  in
  let octahedron r =
    [
      vec3 (-0.) 0. r;
      vec3 0. (-0.) (-.r);
      vec3 r 0. (-0.);
      vec3 (-.r) (-0.) 0.;
      vec3 0. r 0.;
      vec3 (-0.) (-.r) (-0.);
    ]
  in
  [
    ("poison seed 7", 1, poison 7L);
    ("poison seed 8", 1, poison 8L);
    ("poison seed 9", 1, poison 9L);
    ("n=6", 1, n6);
    ("n=6 seed 63", 1, cube (Rng.create 63L) 6 (-10.) 10.);
    ("n=7 t=2", 2, cube (Rng.create 64L) 7 (-10.) 10.);
    ( "signed zeros, cube",
      1,
      [
        vec3 0. 0. 0.;
        vec3 1. (-0.) 0.;
        vec3 (-0.) 1. 0.;
        vec3 0. 0. 1.;
        vec3 1. 1. (-0.);
        vec3 (-0.) 1. 1.;
        vec3 1. (-0.) 1.;
        vec3 1. 1. 1.;
        vec3 0.5 0.5 0.5;
      ] );
    ( "signed zeros, cube, t=0",
      0,
      [
        vec3 0. (-0.) 0.;
        vec3 1. 0. (-0.);
        vec3 (-0.) 1. 0.;
        vec3 0. (-0.) 1.;
        vec3 1. 1. 0.;
        vec3 (-0.) 1. 1.;
        vec3 1. 0. 1.;
        vec3 1. 1. 1.;
      ] );
    ("signed zeros, octahedron", 1, octahedron 2. @ [ vec3 0. 0. 0. ]);
    ("signed zeros, nested octahedra", 1, octahedron 2. @ octahedron 1.);
    ("duplicates", 1, dup);
    ("duplicates, poison", 1, poison 10L @ [ vec3 1000. 1000. 1000. ]);
    ( "coplanar subsets",
      1,
      [
        vec3 0. 0. 0.;
        vec3 4. 0. 0.;
        vec3 0. 4. 0.;
        vec3 4. 4. 0.;
        vec3 1. 2. 0.;
        vec3 2. 2. 3.;
      ] );
    ("all identical", 1, List.init 6 (fun _ -> vec3 1. 2. 3.));
    ("scale 1e-6", 1, List.map (Vec.scale 1e-6) (poison 7L));
    ("scale 1e6", 1, List.map (Vec.scale 1e6) n6);
  ]

(* Every float in hex, so a one-ulp change anywhere shows. The polytope's
   vertices and face halfspaces are pinned through an MD5 of that text. *)
let hex_vec v = String.concat "," (List.map (Printf.sprintf "%h") (Vec.to_list v))

let render_golden ~t pts =
  let vs = Array.of_list pts in
  Array.sort Vec.compare vs;
  let value =
    match Safe_area.new_value_arr ~t vs with
    | None -> "none"
    | Some v -> hex_vec v
  in
  let poly =
    match Hull3d.inter_hulls (Restrict.subsets_arr ~t vs) with
    | `Empty -> "empty"
    | `Degenerate -> "degenerate"
    | `Poly p ->
        let verts = Hull3d.vertices p in
        let text =
          String.concat ";" (List.map hex_vec verts)
          ^ "/"
          ^ String.concat ";"
              (List.map
                 (fun { Hull3d.n; o } -> hex_vec n ^ "|" ^ Printf.sprintf "%h" o)
                 (Hull3d.halfspaces p))
        in
        Printf.sprintf "faces=%d verts=%d md5=%s" (Hull3d.nfaces p)
          (List.length verts)
          (Digest.to_hex (Digest.string text))
  in
  value ^ " " ^ poly

let golden_expected =
  [
    ( "poison seed 7",
      "0x1.121fc30afbd3dp+3,0x1.419720dfad728p+2,0x1.ac523f5b9017ep+2"
      ^ " faces=14 verts=22 md5=f70087a1d27b6cb14f762c819bd758ea" );
    ( "poison seed 8",
      "0x1.4adaf3a1a2fefp+2,0x1.c6f8ae99ecb9fp+1,0x1.b1367a53fee8ap+2"
      ^ " faces=11 verts=16 md5=c2df5819e505a8d9e62e791aef916609" );
    ( "poison seed 9",
      "0x1.af8fca1904704p+1,0x1.97fb8bbcb061p+2,0x1.07b28cc292915p+3"
      ^ " faces=13 verts=16 md5=373889d182779dad1cff058e73a482f0" );
    ( "n=6",
      "-0x1.22d1f10d4eef4p+2,-0x1.7d24b629ea6a7p+2,-0x1.e7a7f7d51a1cp+0"
      ^ " faces=5 verts=6 md5=c0237b381fc21e05bb7e45dc8380a909" );
    ( "n=6 seed 63",
      "0x1.c84c4ae4728acp-3,-0x1.2d27361c4d8f2p+2,-0x1.755dc483d43bbp+1"
      ^ " faces=6 verts=8 md5=f12763f22db12eb60e328e1367459a15" );
    ("n=7 t=2", "none empty");
    ( "signed zeros, cube",
      "0x1p-1,0x1p-1,0x1p-1"
      ^ " faces=8 verts=6 md5=6f8f39a57dd106894e1a6b7f0451945e" );
    ( "signed zeros, cube, t=0",
      "0x1p-1,0x1p-1,0x1p-1"
      ^ " faces=6 verts=8 md5=5521f9c9f86a4a42b6b26bddeef44ee9" );
    ("signed zeros, octahedron", "0x0p+0,0x0p+0,0x0p+0 empty");
    ( "signed zeros, nested octahedra",
      "-0x1.3593547836c76p-51,-0x1p-52,0x1.be1d173bed813p-54"
      ^ " faces=24 verts=54 md5=89706b5c0898acbcf9da93f364ac71ba" );
    ( "duplicates",
      "0x1.ce392ce7e2347p+2,0x1.956300de2131cp+2,0x1.69e481819ed74p+1"
      ^ " faces=5 verts=5 md5=409674cabe5a596a3ea0f3dc71ee3a56" );
    ( "duplicates, poison",
      "0x1.f4c2fca0b2f9cp+8,0x1.f7b875ac872f4p+8,0x1.f44850d911bf3p+8"
      ^ " faces=12 verts=14 md5=8be5a49566a0661af372137c26a7bb68" );
    ("coplanar subsets", "0x1.8p+0,0x1p+1,0x0p+0 degenerate");
    ("all identical", "0x1p+0,0x1p+1,0x1.8p+1 degenerate");
    ( "scale 1e-6",
      "0x1.1f709ea461456p-17,0x1.51364041b8df9p-18,0x1.c1209e2f8bf8p-18"
      ^ " faces=14 verts=22 md5=cb21eeda40da7a58d479f4d9b8314468" );
    ( "scale 1e6",
      "-0x1.1558ff46951b2p+22,-0x1.6b7c96c991527p+22,-0x1.d110abd5f6d9ep+20"
      ^ " faces=5 verts=6 md5=7800da81c4e9f08e122b358ce47c4caa" );
  ]

let test_golden_bits () =
  let bad =
    List.filter_map
      (fun (name, t, pts) ->
        let got = render_golden ~t pts in
        match List.assoc_opt name golden_expected with
        | Some want when want = got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);" name got))
      golden_cases
  in
  if bad <> [] then
    Alcotest.failf "golden bits differ:\n%s" (String.concat "\n" bad)

(* Allocation budget of one D = 3 new-value computation on the pinned
   sync-d3-poison multiset, in minor words. The count is deterministic, so
   this guards the allocation-free kernel without timing. The list-based
   kernel allocated about 296,000 words here and the flat one about 1,700;
   the first call only sizes the domain's workspace. *)
let test_alloc_budget () =
  let _, t, pts = List.find (fun (n, _, _) -> n = "poison seed 7") golden_cases in
  let vs = Array.of_list pts in
  Array.sort Vec.compare vs;
  ignore (Safe_area.new_value_arr ~t vs);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Safe_area.new_value_arr ~t vs));
  let words = Gc.minor_words () -. before in
  if words > 10_000. then
    Alcotest.failf "%.0f minor words per new value, budget 10000" words

(* --- E7's centroid ablation rule stays inside the area --- *)

let test_centroid_value_in_area () =
  let rng = Rng.create 77L in
  for d = 1 to 4 do
    for rep = 1 to 8 do
      let n = 5 + (rep mod 3) in
      let pts =
        List.init n (fun _ ->
            Vec.of_list
              (List.init d (fun _ -> Rng.float_range rng (-10.) 10.)))
      in
      let vs = Array.of_list pts in
      match Safe_area.compute_arr ~t:1 vs with
      | None -> ()
      | Some area ->
          let c = Safe_area.centroid_value area in
          Alcotest.(check bool)
            (Printf.sprintf "centroid in area d=%d rep=%d" d rep)
            true
            (Safe_area.contains ~eps:1e-6 area c);
          (* D = 1: the interval centroid IS the midpoint rule *)
          if d = 1 then
            match Safe_area.new_value_arr ~t:1 vs with
            | Some m ->
                Alcotest.(check bool) "1-D centroid ≡ midpoint" true
                  (Vec.compare c m = 0)
            | None -> Alcotest.fail "midpoint missing"
    done
  done

let () =
  Alcotest.run "hull3d"
    [
      ( "primitives",
        [
          Alcotest.test_case "unit cube" `Quick test_cube;
          Alcotest.test_case "interior points ignored" `Quick
            test_cube_interior_ignored;
          Alcotest.test_case "tetrahedron" `Quick test_tetrahedron;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "hull intersection" `Quick test_inter_hulls;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random grid vs reference" `Quick
            test_differential_random;
          Alcotest.test_case "adversarial sets vs reference" `Quick
            test_differential_adversarial;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pinned output bits" `Quick test_golden_bits;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "centroid value stays in area" `Quick
            test_centroid_value_in_area;
        ] );
    ]
