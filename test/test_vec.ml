(* Unit and property tests for the Vec and Pairset modules. *)

let vec = Alcotest.testable Vec.pp (fun a b -> Vec.compare a b = 0)

let test_basics () =
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  Alcotest.(check int) "dim" 3 (Vec.dim v);
  Alcotest.(check (float 1e-12)) "get" 2. (Vec.get v 1);
  Alcotest.(check vec) "add" (Vec.of_list [ 2.; 4.; 6. ]) (Vec.add v v);
  Alcotest.(check vec) "sub" (Vec.zero 3) (Vec.sub v v);
  Alcotest.(check vec) "scale" (Vec.of_list [ 2.; 4.; 6. ]) (Vec.scale 2. v);
  Alcotest.(check vec) "neg" (Vec.of_list [ -1.; -2.; -3. ]) (Vec.neg v);
  Alcotest.(check (float 1e-12)) "dot" 14. (Vec.dot v v);
  Alcotest.(check (float 1e-12)) "norm" (sqrt 14.) (Vec.norm v)

let test_basis () =
  let e1 = Vec.basis ~dim:3 1 5. in
  Alcotest.(check vec) "basis" (Vec.of_list [ 0.; 5.; 0. ]) e1;
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis")
    (fun () -> ignore (Vec.basis ~dim:2 2 1.))

let test_dist () =
  let a = Vec.of_list [ 0.; 0. ] and b = Vec.of_list [ 3.; 4. ] in
  Alcotest.(check (float 1e-12)) "dist 3-4-5" 5. (Vec.dist a b);
  Alcotest.(check (float 1e-12)) "dist2" 25. (Vec.dist2 a b);
  Alcotest.(check vec) "midpoint" (Vec.of_list [ 1.5; 2. ]) (Vec.midpoint a b)

let test_lincomb () =
  let a = Vec.of_list [ 1.; 0. ] and b = Vec.of_list [ 0.; 1. ] in
  Alcotest.(check vec) "lincomb"
    (Vec.of_list [ 0.25; 0.75 ])
    (Vec.lincomb [ (0.25, a); (0.75, b) ]);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.lincomb: empty list")
    (fun () -> ignore (Vec.lincomb []))

let test_compare () =
  let a = Vec.of_list [ 1.; 2. ] and b = Vec.of_list [ 1.; 3. ] in
  Alcotest.(check bool) "lt" true (Vec.compare a b < 0);
  Alcotest.(check bool) "gt" true (Vec.compare b a > 0);
  Alcotest.(check bool) "eq" true (Vec.compare a a = 0);
  Alcotest.(check bool) "shorter first" true
    (Vec.compare (Vec.of_list [ 9. ]) a < 0)

let test_normalize () =
  (match Vec.normalize (Vec.of_list [ 3.; 4. ]) with
  | Some n -> Alcotest.(check (float 1e-12)) "unit" 1. (Vec.norm n)
  | None -> Alcotest.fail "normalize failed");
  Alcotest.(check bool) "zero" true (Vec.normalize (Vec.zero 2) = None)

let test_diameter () =
  let pts =
    [ Vec.of_list [ 0.; 0. ]; Vec.of_list [ 1.; 0. ]; Vec.of_list [ 0.; 1. ] ]
  in
  Alcotest.(check (float 1e-12)) "diameter" (sqrt 2.) (Vec.diameter pts);
  (match Vec.diameter_pair pts with
  | Some (a, b) ->
      Alcotest.(check vec) "pair fst" (Vec.of_list [ 0.; 1. ]) a;
      Alcotest.(check vec) "pair snd" (Vec.of_list [ 1.; 0. ]) b
  | None -> Alcotest.fail "no pair");
  Alcotest.(check (float 1e-12)) "singleton" 0. (Vec.diameter [ Vec.zero 2 ]);
  Alcotest.(check (float 1e-12)) "empty" 0. (Vec.diameter [])

let test_diameter_deterministic () =
  (* All four corners of a square: ties between the two diagonals must be
     broken the same way regardless of input order. *)
  let corners =
    [
      Vec.of_list [ 0.; 0. ]; Vec.of_list [ 1.; 0. ];
      Vec.of_list [ 0.; 1. ]; Vec.of_list [ 1.; 1. ];
    ]
  in
  let p1 = Vec.diameter_pair corners in
  let p2 = Vec.diameter_pair (List.rev corners) in
  Alcotest.(check bool) "order independent" true (p1 = p2)

let test_centroid () =
  let pts = [ Vec.of_list [ 0.; 0. ]; Vec.of_list [ 2.; 4. ] ] in
  Alcotest.(check vec) "centroid" (Vec.of_list [ 1.; 2. ]) (Vec.centroid pts)

(* --- Pairset --- *)

let v1 = Vec.of_list [ 1.; 1. ]
let v2 = Vec.of_list [ 2.; 2. ]
let v3 = Vec.of_list [ 3.; 3. ]

let test_pairset_basics () =
  let m = Pairset.empty |> Pairset.add ~party:1 v1 |> Pairset.add ~party:0 v2 in
  Alcotest.(check int) "cardinal" 2 (Pairset.cardinal m);
  Alcotest.(check bool) "mem" true (Pairset.mem_party 1 m);
  Alcotest.(check bool) "not mem" false (Pairset.mem_party 5 m);
  Alcotest.(check (list int)) "parties sorted" [ 0; 1 ] (Pairset.parties m);
  Alcotest.(check (list vec)) "values by party order" [ v2; v1 ]
    (Pairset.values m)

let test_pairset_first_wins () =
  let m = Pairset.empty |> Pairset.add ~party:0 v1 |> Pairset.add ~party:0 v2 in
  Alcotest.(check (option vec)) "first value kept" (Some v1)
    (Pairset.find_party 0 m)

let test_pairset_subset_inter () =
  let m = Pairset.of_bindings [ (0, v1); (1, v2); (2, v3) ] in
  let m' = Pairset.of_bindings [ (0, v1); (1, v2) ] in
  Alcotest.(check bool) "subset" true (Pairset.subset m' m);
  Alcotest.(check bool) "not subset" false (Pairset.subset m m');
  let conflicting = Pairset.of_bindings [ (0, v2) ] in
  Alcotest.(check bool) "subset needs same value" false
    (Pairset.subset conflicting m);
  Alcotest.(check int) "inter" 2 (Pairset.cardinal (Pairset.inter m m'));
  Alcotest.(check int) "inter conflicting" 0
    (Pairset.cardinal (Pairset.inter conflicting m'));
  Alcotest.(check int) "union" 3 (Pairset.cardinal (Pairset.union m' m))

let test_pairset_diameter () =
  let m = Pairset.of_bindings [ (0, v1); (1, v3) ] in
  Alcotest.(check (float 1e-12)) "diameter" (Vec.dist v1 v3)
    (Pairset.diameter m)

(* --- properties --- *)

let gen_vec d =
  QCheck.Gen.(list_repeat d (float_range (-100.) 100.) >|= Vec.of_list)

let arb_vec d = QCheck.make ~print:Vec.to_string (gen_vec d)

let arb_vec_list d =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map Vec.to_string l))
    QCheck.Gen.(list_size (int_range 1 12) (gen_vec d))

let prop_triangle =
  QCheck.Test.make ~name:"triangle inequality" ~count:300
    (QCheck.triple (arb_vec 3) (arb_vec 3) (arb_vec 3))
    (fun (a, b, c) -> Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-9)

let prop_diameter_max =
  QCheck.Test.make ~name:"diameter is max pairwise distance" ~count:200
    (arb_vec_list 2) (fun vs ->
      let d = Vec.diameter vs in
      List.for_all
        (fun a -> List.for_all (fun b -> Vec.dist a b <= d +. 1e-9) vs)
        vs)

let prop_diameter_order_independent =
  QCheck.Test.make ~name:"diameter pair is order independent" ~count:200
    (arb_vec_list 2) (fun vs ->
      Vec.diameter_pair vs = Vec.diameter_pair (List.rev vs))

(* The list-and-closure [Vec.diameter_pair] the index loop replaced,
   kept as its oracle together with the [compare] and [dist2] bodies it
   ran on. *)
let oracle_diameter_pair vs =
  let compare (u : Vec.t) (v : Vec.t) =
    let u = (u :> float array) and v = (v :> float array) in
    let c = Stdlib.compare (Array.length u) (Array.length v) in
    if c <> 0 then c
    else
      let rec go i =
        if i = Array.length u then 0
        else
          let c = Float.compare u.(i) v.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
  in
  let dist2 (u : Vec.t) (v : Vec.t) =
    let u = (u :> float array) and v = (v :> float array) in
    let acc = ref 0. in
    Array.iteri
      (fun i x ->
        let d = x -. v.(i) in
        acc := !acc +. (d *. d))
      u;
    !acc
  in
  match vs with
  | [] -> None
  | [ v ] -> Some (v, v)
  | _ ->
      let best = ref None in
      let better a b d2 =
        match !best with
        | None -> true
        | Some (a', b', d2') ->
            d2 > d2' +. 1e-15
            ||
            (Float.abs (d2 -. d2') <= 1e-15
            &&
            let c = compare a a' in
            c < 0 || (c = 0 && compare b b' < 0))
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let a, b = if compare a b <= 0 then (a, b) else (b, a) in
              let d2 = dist2 a b in
              if better a b d2 then best := Some (a, b, d2))
            vs)
        vs;
      Option.map (fun (a, b, _) -> (a, b)) !best

(* Tie-heavy multisets: coordinates from a pool with both zeros and
   equal spacings, so duplicates, ±0 and equidistant pairs are common;
   some points repeat an earlier one physically. *)
let arb_tie_list =
  let open QCheck.Gen in
  let coord = oneofl [ -1.; -0.; 0.; 0.5; 1.; 2.; 1e-16 ] in
  let gen =
    int_range 1 4 >>= fun d ->
    list_size (int_range 1 10) (list_repeat d coord >|= Vec.of_list)
    >>= fun pts ->
    list_repeat (List.length pts) (int_range 0 3) >|= fun picks ->
    List.mapi
      (fun i (p, k) -> if k = 0 && i > 0 then List.nth pts (i - 1) else p)
      (List.combine pts picks)
  in
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map Vec.to_string l))
    gen

let prop_diameter_pair_oracle =
  QCheck.Test.make ~name:"diameter pair is the oracle's, physically"
    ~count:2000 arb_tie_list (fun vs ->
      match (Vec.diameter_pair vs, oracle_diameter_pair vs) with
      | None, None -> true
      | Some (a, b), Some (a', b') -> a == a' && b == b'
      | _ -> false)

let prop_midpoint_between =
  QCheck.Test.make ~name:"midpoint halves the distance" ~count:300
    (QCheck.pair (arb_vec 4) (arb_vec 4))
    (fun (a, b) ->
      let m = Vec.midpoint a b in
      Float.abs (Vec.dist a m -. (Vec.dist a b /. 2.)) <= 1e-9)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vec"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "basis" `Quick test_basis;
          Alcotest.test_case "dist" `Quick test_dist;
          Alcotest.test_case "lincomb" `Quick test_lincomb;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "diameter deterministic" `Quick
            test_diameter_deterministic;
          Alcotest.test_case "centroid" `Quick test_centroid;
        ] );
      ( "pairset",
        [
          Alcotest.test_case "basics" `Quick test_pairset_basics;
          Alcotest.test_case "first value wins" `Quick test_pairset_first_wins;
          Alcotest.test_case "subset/inter/union" `Quick
            test_pairset_subset_inter;
          Alcotest.test_case "diameter" `Quick test_pairset_diameter;
        ] );
      ( "vec properties",
        q
          [
            prop_triangle;
            prop_diameter_max;
            prop_diameter_order_independent;
            prop_diameter_pair_oracle;
            prop_midpoint_between;
          ] );
    ]
