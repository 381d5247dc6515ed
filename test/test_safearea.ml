(* Tests for restrict_t enumeration and the safe-area machinery, including
   the paper's worked examples (Figure 2 and the Section 5 empty-area
   example). *)

let v = Vec.of_list

(* --- Restrict --- *)

let test_restrict_count () =
  Alcotest.(check int) "C(5,2)" 10 (Restrict.count ~m:5 ~t:2);
  Alcotest.(check int) "C(5,0)" 1 (Restrict.count ~m:5 ~t:0);
  Alcotest.(check int) "C(5,5)" 1 (Restrict.count ~m:5 ~t:5);
  Alcotest.(check int) "C(5,6)" 0 (Restrict.count ~m:5 ~t:6);
  Alcotest.(check int) "C(12,4)" 495 (Restrict.count ~m:12 ~t:4)

let test_restrict_subsets () =
  let subs = Restrict.subsets ~t:1 [ 1; 2; 3 ] in
  Alcotest.(check int) "3 subsets" 3 (List.length subs);
  List.iter
    (fun s -> Alcotest.(check int) "size 2" 2 (List.length s))
    subs;
  let sorted = List.sort compare subs in
  Alcotest.(check bool) "exact family" true
    (sorted = [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]);
  Alcotest.(check bool) "t=0 is identity" true
    (Restrict.subsets ~t:0 [ 1; 2; 3 ] = [ [ 1; 2; 3 ] ])

let test_restrict_invalid () =
  Alcotest.check_raises "bad t" (Invalid_argument "Restrict.subsets: bad t")
    (fun () -> ignore (Restrict.subsets ~t:4 [ 1; 2; 3 ]))

let test_restrict_preserves_order () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "ascending" true (List.sort compare s = s))
    (Restrict.subsets ~t:2 [ 1; 2; 3; 4; 5 ])

(* --- Safe areas, D = 1 --- *)

let floats_1d xs = List.map (fun x -> v [ x ]) xs

let test_safe_1d () =
  match Safe_area.compute ~t:1 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 1. lo;
      Alcotest.(check (float 1e-12)) "hi" 3. hi
  | _ -> Alcotest.fail "expected interval"

let test_safe_1d_point () =
  match Safe_area.compute ~t:2 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 2. lo;
      Alcotest.(check (float 1e-12)) "hi" 2. hi
  | _ -> Alcotest.fail "expected point interval"

let test_safe_1d_empty () =
  Alcotest.(check bool) "empty" true
    (Safe_area.compute ~t:2 (floats_1d [ 0.; 1.; 2.; 3. ]) = None)

let test_safe_1d_duplicates () =
  (* multiset semantics: duplicated values count separately *)
  match Safe_area.compute ~t:1 (floats_1d [ 0.; 0.; 5. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 0. lo;
      Alcotest.(check (float 1e-12)) "hi" 0. hi
  | _ -> Alcotest.fail "expected interval"

let test_safe_1d_new_value () =
  match Safe_area.new_value ~t:1 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some nv -> Alcotest.(check (float 1e-12)) "midpoint" 2. (Vec.get nv 0)
  | None -> Alcotest.fail "non-empty"

(* --- Safe areas, D = 2: the paper's examples --- *)

(* Figure 2: four points in convex position with t = 1; the safe area is the
   single intersection point of the diagonals. *)
let test_figure2_single_point () =
  let pts = [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 2.; 2. ]; v [ 0.; 2. ] ] in
  match Safe_area.compute ~t:1 pts with
  | Some (Safe_area.Planar poly as area) ->
      Alcotest.(check int) "single vertex" 1 (List.length (Polygon.vertices poly));
      Alcotest.(check bool) "is diagonal crossing" true
        (Safe_area.contains area (v [ 1.; 1. ]));
      Alcotest.(check (float 1e-9)) "diameter 0" 0. (Safe_area.diameter area)
  | _ -> Alcotest.fail "expected planar point"

(* interior point variant: safe_1 of a triangle plus an interior point is
   exactly the interior point *)
let test_interior_point () =
  let d = v [ 1.; 1. ] in
  let pts = [ v [ 0.; 0. ]; v [ 4.; 0. ]; v [ 0.; 4. ]; d ] in
  match Safe_area.compute ~t:1 pts with
  | Some area ->
      Alcotest.(check bool) "d in safe" true (Safe_area.contains area d);
      Alcotest.(check (float 1e-6)) "only d" 0. (Safe_area.diameter area);
      let nv = Safe_area.midpoint_value area in
      Alcotest.(check bool) "new value is d" true (Vec.dist nv d <= 1e-6)
  | None -> Alcotest.fail "non-empty"

(* Section 5's motivating example: three honest values with t = ts = 1 give
   an empty safe area — the reason the protocol trims max(k, ta) instead. *)
let test_paper_empty_example () =
  let pts = [ v [ 0.; 0. ]; v [ 0.; 1. ]; v [ 1.; 0. ] ] in
  Alcotest.(check bool) "safe_1 empty" true (Safe_area.compute ~t:1 pts = None);
  (* with the paper's fix, k = 0 and ta = 0 trim nothing *)
  match Safe_area.compute ~t:0 pts with
  | Some area ->
      Alcotest.(check bool) "full hull" true
        (Safe_area.contains area (v [ 0.3; 0.3 ]))
  | None -> Alcotest.fail "safe_0 is the hull itself"

let test_safe_2d_diameter_pair_deterministic () =
  let pts =
    [ v [ 0.; 0. ]; v [ 3.; 0. ]; v [ 3.; 3. ]; v [ 0.; 3. ]; v [ 1.; 1. ] ]
  in
  let area order =
    match Safe_area.compute ~t:1 order with
    | Some a -> Safe_area.diameter_pair a
    | None -> Alcotest.fail "non-empty"
  in
  Alcotest.(check bool) "order independent" true
    (area pts = area (List.rev pts))

(* --- D = 2 golden bits ---

   Parties recompute each other's safe areas bit for bit, so the D = 2
   kernel's float operations are pinned: for every family of multisets
   below, at m = 4..12 and t = 1, 2, the new value and the vertices of the
   intersected subset hulls, every float as hex bits, hash to the recorded
   digest. The multisets are a fixed seeded grid, not QCheck draws. *)

let golden_2d_family name ~m rng =
  let r () = Rng.float_range rng (-10.) 10. in
  let pick a = a.(Rng.int rng (Array.length a)) in
  match name with
  | "general" -> List.init m (fun _ -> v [ r (); r () ])
  | "collinear" ->
      List.init m (fun _ ->
          let x = r () in
          v [ x; (0.5 *. x) +. 1. ])
  | "duplicates" ->
      let base = Array.init 3 (fun _ -> v [ r (); r () ]) in
      List.init m (fun _ -> pick base)
  | "all equal" ->
      let p = v [ r (); r () ] in
      List.init m (fun _ -> p)
  | "segment" ->
      let a = v [ r (); r () ] and b = v [ r (); r () ] in
      List.init m (fun i -> if i mod 2 = 0 then a else b)
  | "1e-10 apart" ->
      let x = r () and y = r () in
      List.init m (fun _ -> v [ x +. (1e-11 *. r ()); y +. (1e-11 *. r ()) ])
  | "signed zeros" ->
      let c = [| 0.; -0.; 1.; -1. |] in
      List.init m (fun _ -> v [ pick c; pick c ])
  | _ -> invalid_arg name

let render_2d ~t pts =
  let hex x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let hex_vec p = hex (Vec.get p 0) ^ "," ^ hex (Vec.get p 1) in
  let vs = Array.of_list pts in
  Array.sort Vec.compare vs;
  let value =
    match Safe_area.new_value_arr ~t vs with
    | None -> "none"
    | Some p -> hex_vec p
  in
  let hulls =
    Array.to_list
      (Array.map
         (fun sub -> Polygon.of_points (Array.to_list sub))
         (Restrict.subsets_arr ~t vs))
  in
  let verts =
    match Polygon.inter_all hulls with
    | None -> "empty"
    | Some r -> String.concat ";" (List.map hex_vec (Polygon.vertices r))
  in
  value ^ " " ^ verts

let golden_2d_expected =
  [
    ("general", "3b31cb5e3e6016525606a361eeffd5f4");
    ("collinear", "f314a81afa0398f6bb1f5bef76d3c04b");
    ("duplicates", "df95bb0991d7c4386abc04c46c8fb9e9");
    ("all equal", "eacf9508c6b44a3de3b2df800af311b4");
    ("segment", "9989b727e4f8f69c1a352d8d2e0efa9b");
    ("1e-10 apart", "9188a2f3314ccd81ca50177693e9f2b8");
    ("signed zeros", "0fb377939cd7c04eed9d7d218b23b765");
  ]

let test_golden_2d_bits () =
  let bad =
    List.filter_map
      (fun (name, want) ->
        let rng = Rng.create 2026L in
        let rows =
          List.concat_map
            (fun m ->
              List.map
                (fun t ->
                  let pts = golden_2d_family name ~m rng in
                  Printf.sprintf "m=%d t=%d %s" m t (render_2d ~t pts))
                [ 1; 2 ])
            (List.init 9 (fun i -> i + 4))
        in
        let got = Digest.to_hex (Digest.string (String.concat "\n" rows)) in
        if got = want then None
        else
          Some
            (Printf.sprintf "(%S, %S);\n  %s" name got
               (String.concat "\n  " rows)))
      golden_2d_expected
  in
  if bad <> [] then
    Alcotest.failf "D = 2 golden bits differ:\n%s" (String.concat "\n" bad)

(* --- allocation budgets, in minor words: deterministic, so they guard
   the flat kernels without timing --- *)

let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* One D = 2 new value on six points in general position: about 1,900
   words. The list-based polygon kernel allocated about 20,900 here. *)
let test_alloc_2d () =
  let vs =
    Array.map Vec.of_list
      [| [ 0.; 0. ]; [ 4.; 0.5 ]; [ 5.; 3. ]; [ 3.; 5.5 ]; [ 0.5; 4. ]; [ 2.; 2.2 ] |]
  in
  let words = minor_words (fun () -> Safe_area.new_value_arr ~t:1 vs) in
  if words > 5_000. then
    Alcotest.failf "%.0f minor words per D=2 new value, budget 5000" words

(* Rank 0: eight copies of one D = 3 point skip the kernels (54 words).
   The LP detour they took allocated about 8,800 words. *)
let test_alloc_rank0 () =
  let vs = Array.make 8 (v [ 1.; 2.; 3. ]) in
  let words = minor_words (fun () -> Safe_area.new_value_arr ~t:1 vs) in
  if words > 100. then
    Alcotest.failf "%.0f minor words per rank-0 new value, budget 100" words

(* --- the run-scoped memo --- *)

let bits r = Option.map (fun u -> Printf.sprintf "%h" (Vec.get u 0)) r

(* A hit must return exactly the kernel's answer. Multisets of -0. and of
   0. compare equal under [Vec.compare] but their new values differ in
   the sign bit, so they must be different keys. *)
let test_cache_signed_zero () =
  let ones xs = Array.map (fun x -> v [ x ]) xs in
  let neg = ones [| -0.; -0.; -0.; -0.; 1. |]
  and pos = ones [| 0.; 0.; 0.; 0.; 1. |] in
  let c = Safe_cache.create () in
  Alcotest.(check (option string))
    "-0. primes its own entry" (Some "-0x0p+0")
    (bits (Safe_cache.new_value_arr c ~t:1 neg));
  Alcotest.(check (option string))
    "0. is a miss with the uncached bits"
    (bits (Safe_area.new_value_arr ~t:1 pos))
    (bits (Safe_cache.new_value_arr c ~t:1 pos));
  Alcotest.(check int) "two misses" 2 (Safe_cache.misses c)

(* A hit copies and sorts the multiset and builds its key: about 80
   words for these eight D = 3 points. Comparing the key against the
   stored one allocates nothing; a compare that boxed each coordinate's
   bits would add at least 6 words per coordinate, 144 here. *)
let test_alloc_cache_hit () =
  let vs =
    Array.init 8 (fun i -> v [ float_of_int i; 0.5; float_of_int (i * i) ])
  in
  let c = Safe_cache.create () in
  let words = minor_words (fun () -> Safe_cache.new_value_arr c ~t:1 vs) in
  Alcotest.(check int) "one miss" 1 (Safe_cache.misses c);
  if words > 100. then
    Alcotest.failf "%.0f minor words per cache hit, budget 100" words

(* --- properties --- *)

let gen_pts ~d ~m =
  QCheck.Gen.(list_repeat m (list_repeat d (float_range (-10.) 10.) >|= Vec.of_list))

let print_pts l = String.concat " " (List.map Vec.to_string l)

(* Lemma 5.5 instance: n = 8, ts = 2, ta = 1, D = 2 satisfies
   n > (D+1)ts + ta. With |M| = n - ts + k values, trimming max(k, ta)
   must leave a non-empty area. *)
let prop_lemma_5_5 =
  QCheck.Test.make ~name:"lemma 5.5: safe area non-empty" ~count:60
    (QCheck.make ~print:print_pts
       QCheck.Gen.(int_range 0 2 >>= fun k -> gen_pts ~d:2 ~m:(8 - 2 + k)))
    (fun pts ->
      let n = 8 and ts = 2 and ta = 1 in
      let k = List.length pts - (n - ts) in
      let t = max k ta in
      Safe_area.compute ~t pts <> None)

(* Lemma 5.6: the new value lies in the safe area. *)
let prop_lemma_5_6 =
  QCheck.Test.make ~name:"lemma 5.6: midpoint inside area" ~count:60
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:7))
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          Safe_area.contains ~eps:1e-6 area (Safe_area.midpoint_value area))

(* Lemma 5.7: safe_t(M) is inside the hull of every (|M|-t)-subset. *)
let prop_lemma_5_7 =
  QCheck.Test.make ~name:"lemma 5.7: safe area inside every subset hull"
    ~count:40
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:6))
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          let a, b = Safe_area.diameter_pair area in
          let mid = Safe_area.midpoint_value area in
          List.for_all
            (fun sub ->
              List.for_all
                (fun p -> Membership.in_hull ~eps:1e-6 sub p)
                [ a; b; mid ])
            (Restrict.subsets ~t:1 pts))

(* agreement of the three representations: a point is in safe_t iff it is in
   every subset hull (checked via LP), in dimensions 2 and 3 *)
let prop_contains_agrees =
  QCheck.Test.make ~name:"contains agrees with subset-hull definition"
    ~count:40
    (QCheck.make
       ~print:(fun (pts, p) -> print_pts pts ^ " @ " ^ Vec.to_string p)
       QCheck.Gen.(
         pair (gen_pts ~d:3 ~m:6)
           (list_repeat 3 (float_range (-10.) 10.) >|= Vec.of_list)))
    (fun (pts, p) ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          let by_def eps =
            List.for_all
              (fun sub -> Membership.in_hull ~eps sub p)
              (Restrict.subsets ~t:1 pts)
          in
          (* skip boundary-ambiguous points *)
          let strict_in = by_def 1e-9 and loose_out = not (by_def 1e-5) in
          QCheck.assume (strict_in || loose_out);
          Safe_area.contains ~eps:1e-6 area p = strict_in)

(* Lemma 5.8 shape: two sets sharing a core of n - ts values have
   intersecting safe areas. Construction: n = 8, ts = 2, ta = 1. *)
let prop_lemma_5_8 =
  QCheck.Test.make ~name:"lemma 5.8: honest safe areas intersect" ~count:40
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:8))
    (fun pts ->
      let n = 8 and ts = 2 and ta = 1 in
      let core = List.filteri (fun i _ -> i < n - ts) pts in
      let extra = List.filteri (fun i _ -> i >= n - ts) pts in
      let m1 = core @ [ List.nth extra 0 ] in
      let m2 = core @ [ List.nth extra 1 ] in
      let t_of m = max (List.length m - (n - ts)) ta in
      match
        (Safe_area.compute ~t:(t_of m1) m1, Safe_area.compute ~t:(t_of m2) m2)
      with
      | Some (Safe_area.Planar p1), Some (Safe_area.Planar p2) ->
          Polygon.inter p1 p2 <> None
      | _ -> false)

(* brute force: the family has exactly C(m, t) distinct members *)
let prop_restrict_complete =
  QCheck.Test.make ~name:"restrict family complete and distinct" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 4))
    (fun (m, t) ->
      QCheck.assume (t <= m);
      let subs = Restrict.subsets ~t (List.init m Fun.id) in
      List.length subs = Restrict.count ~m ~t
      && List.length (List.sort_uniq compare subs) = List.length subs
      && List.for_all (fun sub -> List.length sub = m - t) subs)

(* brute force: the 1-D fast path equals the naive subset-interval
   intersection *)
let prop_safe_1d_matches_bruteforce =
  QCheck.Test.make ~name:"1-D safe area equals brute force" ~count:150
    QCheck.(pair (list_of_size (Gen.int_range 3 9) (float_range (-50.) 50.)) (int_range 0 3))
    (fun (xs, t) ->
      QCheck.assume (t < List.length xs);
      let vs = List.map (fun x -> Vec.of_list [ x ]) xs in
      let brute =
        Restrict.subsets ~t xs
        |> List.map (fun sub ->
               ( List.fold_left Float.min infinity sub,
                 List.fold_left Float.max neg_infinity sub ))
        |> List.fold_left
             (fun (lo, hi) (l, h) -> (Float.max lo l, Float.min hi h))
             (neg_infinity, infinity)
      in
      match (Safe_area.compute ~t vs, brute) with
      | None, (lo, hi) -> lo > hi
      | Some (Safe_area.Interval { lo; hi }), (blo, bhi) ->
          Float.abs (lo -. blo) <= 1e-12 && Float.abs (hi -. bhi) <= 1e-12
      | Some _, _ -> false)

(* Regression for the quadratic [List.length rest >= k] the recursive
   enumerator used to hide: the iterative kernel must produce exactly
   C(m, t) subsets across a whole m × t grid. *)
let test_subsets_grid () =
  for m = 0 to 12 do
    let l = List.init m Fun.id in
    for t = 0 to m do
      let subs = Restrict.subsets ~t l in
      Alcotest.(check int)
        (Printf.sprintf "|subsets ~t:%d| of %d" t m)
        (Restrict.count ~m ~t) (List.length subs)
    done
  done

(* The list API is a view of the array kernel: same family, same order. *)
let test_subsets_arr_consistent () =
  let l = List.init 7 Fun.id in
  for t = 0 to 7 do
    let via_arr =
      Restrict.subsets_arr ~t (Array.of_list l)
      |> Array.map Array.to_list |> Array.to_list
    in
    Alcotest.(check bool)
      (Printf.sprintf "t=%d" t)
      true
      (via_arr = Restrict.subsets ~t l)
  done;
  (* lexicographic order of the kept index sets, explicitly *)
  Alcotest.(check bool) "lexicographic" true
    (Restrict.subsets ~t:2 [ 0; 1; 2; 3 ]
    = [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ])

let vec_opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some u, Some w -> Vec.compare u w = 0
  | _ -> false

(* The array-native entry point the protocol now uses must be bit-identical
   to the list path, in every dimension regime (order statistics, polygon
   clipping, LP workspace). *)
let prop_new_value_arr_matches =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun d ->
      int_range (d + 2) 7 >>= fun n ->
      int_range 1 2 >>= fun t ->
      list_repeat n (list_repeat d (float_range (-10.) 10.)) >|= fun pts ->
      (t, List.map Vec.of_list pts))
  in
  QCheck.Test.make ~name:"new_value_arr ≡ new_value" ~count:60
    (QCheck.make ~print:(fun (t, pts) ->
         Printf.sprintf "t=%d %s" t (print_pts pts))
       gen)
    (fun (t, pts) ->
      QCheck.assume (t < List.length pts);
      vec_opt_eq
        (Safe_area.new_value_arr ~t (Array.of_list pts))
        (Safe_area.new_value ~t pts))

(* For implicit (D ≥ 4) areas, the cached-workspace diameter must match the
   pre-workspace one-shot search on the very same hullset. (D = 3 now takes
   the exact [Spatial] kernel; its differential grid against
   [Hullset.Reference] lives in test_hull3d.ml.) *)
let prop_implicit_diameter_matches_reference =
  let gen =
    QCheck.Gen.(
      list_repeat 6 (list_repeat 4 (float_range (-10.) 10.)) >|= fun pts ->
      List.map Vec.of_list pts)
  in
  QCheck.Test.make ~name:"implicit diameter ≡ reference" ~count:20
    (QCheck.make ~print:print_pts gen)
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | Some (Safe_area.Implicit hs) -> (
          let a, b = Safe_area.diameter_pair (Safe_area.Implicit hs) in
          match Hullset.Reference.diameter_pair hs with
          | Some (a', b') -> Vec.compare a a' = 0 && Vec.compare b b' = 0
          | None -> false)
      | Some _ -> false
      | None -> QCheck.assume_fail ())

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "safearea"
    [
      ( "restrict",
        [
          Alcotest.test_case "count" `Quick test_restrict_count;
          Alcotest.test_case "subsets" `Quick test_restrict_subsets;
          Alcotest.test_case "invalid" `Quick test_restrict_invalid;
          Alcotest.test_case "order preserved" `Quick
            test_restrict_preserves_order;
          Alcotest.test_case "count grid" `Quick test_subsets_grid;
          Alcotest.test_case "array kernel consistent" `Quick
            test_subsets_arr_consistent;
        ] );
      ( "safe-1d",
        [
          Alcotest.test_case "interval" `Quick test_safe_1d;
          Alcotest.test_case "point" `Quick test_safe_1d_point;
          Alcotest.test_case "empty" `Quick test_safe_1d_empty;
          Alcotest.test_case "duplicates" `Quick test_safe_1d_duplicates;
          Alcotest.test_case "new value" `Quick test_safe_1d_new_value;
        ] );
      ( "safe-2d",
        [
          Alcotest.test_case "figure 2: single point" `Quick
            test_figure2_single_point;
          Alcotest.test_case "interior point" `Quick test_interior_point;
          Alcotest.test_case "paper empty example" `Quick
            test_paper_empty_example;
          Alcotest.test_case "deterministic diameter pair" `Quick
            test_safe_2d_diameter_pair_deterministic;
          Alcotest.test_case "golden pinned bits" `Quick test_golden_2d_bits;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "D=2 new value" `Quick test_alloc_2d;
          Alcotest.test_case "rank-0 new value" `Quick test_alloc_rank0;
          Alcotest.test_case "safe-cache hit" `Quick test_alloc_cache_hit;
        ] );
      ( "safe-cache",
        [
          Alcotest.test_case "0. and -0. are distinct keys" `Quick
            test_cache_signed_zero;
        ] );
      ( "properties",
        q
          [
            prop_lemma_5_5;
            prop_lemma_5_6;
            prop_lemma_5_7;
            prop_contains_agrees;
            prop_lemma_5_8;
            prop_restrict_complete;
            prop_safe_1d_matches_bruteforce;
            prop_new_value_arr_matches;
            prop_implicit_diameter_matches_reference;
          ] );
    ]
