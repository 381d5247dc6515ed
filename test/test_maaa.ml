(* End-to-end tests of the full hybrid protocol ΠAA (Theorem 5.19), run
   through the harness against assorted adversaries and networks. *)

let cfg_2d = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

let grid_inputs n d =
  List.init n (fun i ->
      Vec.of_list
        (List.init d (fun c -> float_of_int ((i + c) mod 4) +. (0.1 *. float_of_int i))))

let check_all name r =
  if not r.Runner.live then Alcotest.failf "%s: liveness failed" name;
  if not r.Runner.valid then Alcotest.failf "%s: validity failed" name;
  if not r.Runner.agreement then
    Alcotest.failf "%s: agreement failed (diam %.3e > eps %g)" name
      r.Runner.diameter r.Runner.eps

let run ?name ?seed ?policy ?sync_network ?corruptions ~cfg inputs =
  Runner.run
    (Scenario.make ?name ?seed ?policy ?sync_network ?corruptions ~cfg ~inputs ())

(* --- configuration validation --- *)

let test_config_validation () =
  let ok n ts ta d = Result.is_ok (Config.make ~n ~ts ~ta ~d ~eps:0.1 ~delta:1) in
  Alcotest.(check bool) "feasible" true (ok 8 2 1 2);
  Alcotest.(check bool) "boundary rejected" false (ok 7 2 1 2);
  Alcotest.(check bool) "ta > ts rejected" false (ok 20 1 2 2);
  Alcotest.(check bool) "rbc bound for D=1" false (ok 6 2 0 1);
  Alcotest.(check bool) "D=1 with n > 3ts" true (ok 7 2 0 1);
  Alcotest.(check bool) "ta = ts async optimum" true (ok 9 2 2 2);
  Alcotest.(check bool) "feasibility helper" true
    (Config.feasible ~n:8 ~ts:2 ~ta:1 ~d:2);
  Alcotest.(check bool) "feasibility helper boundary" false
    (Config.feasible ~n:7 ~ts:2 ~ta:1 ~d:2)

(* --- synchronous network, ts corruptions --- *)

let test_sync_honest () =
  check_all "sync honest" (run ~cfg:cfg_2d (grid_inputs 8 2))

let test_sync_poisoned () =
  (* ts extreme-value corruptions: the strongest in-protocol attack *)
  let far = Vec.of_list [ 1000.; -1000. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (5, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "sync poisoned" r

let test_sync_silent () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (0, Behavior.Silent); (7, Behavior.Silent) ]
      (grid_inputs 8 2)
  in
  check_all "sync silent" r

let test_sync_crash_mid_protocol () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (2, Behavior.Crash_at 45); (4, Behavior.Crash_at 95) ]
      (grid_inputs 8 2)
  in
  check_all "sync crash" r

let test_sync_equivocator () =
  let va = Vec.of_list [ 50.; 50. ] and vb = Vec.of_list [ -50.; -50. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (3, Behavior.Equivocate (va, vb)) ]
      (grid_inputs 8 2)
  in
  check_all "sync equivocator" r

let test_sync_halt_liar () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [
          (0, Behavior.Halt_liar 1);
          (6, Behavior.Halt_liar 1);
        ]
      (grid_inputs 8 2)
  in
  check_all "sync halt liars" r

let test_sync_spam () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (7, Behavior.Spam { period = 3; payload_bytes = 64; until = 2000 }) ]
      (grid_inputs 8 2)
  in
  check_all "sync spam" r

let test_sync_mixed_adversary () =
  let far = Vec.of_list [ 300.; 300. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (4, Behavior.Silent) ]
      ~policy:(Network.rushing ~delta:10 ~corrupt:(fun i -> i = 1 || i = 4))
      (grid_inputs 8 2)
  in
  check_all "sync mixed + rushing" r

(* --- asynchronous network, ta corruptions --- *)

let test_async_starved_honest () =
  (* one crash corruption (= ta) plus starvation of an honest party: the
     fallback regime *)
  let r =
    run ~cfg:cfg_2d
      ~policy:(Network.async_starve ~victims:(fun i -> i = 2) ~release:900 ~fast:4)
      ~sync_network:false
      ~corruptions:[ (6, Behavior.Silent) ]
      (grid_inputs 8 2)
  in
  check_all "async starved" r

let test_async_heavy_tail_poison () =
  let far = Vec.of_list [ -500.; 500. ] in
  let r =
    run ~cfg:cfg_2d
      ~policy:(Network.async_heavy_tail ~base:12)
      ~sync_network:false
      ~corruptions:[ (3, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "async heavy tail" r

(* --- dimensions 1 and 3 --- *)

let test_d1 () =
  let cfg = Config.make_exn ~n:7 ~ts:2 ~ta:0 ~d:1 ~eps:0.05 ~delta:10 in
  let inputs = List.init 7 (fun i -> Vec.of_list [ float_of_int i ]) in
  let far = Vec.of_list [ 10000. ] in
  let r =
    run ~cfg
      ~corruptions:
        [ (0, Behavior.Honest_with_input far); (3, Behavior.Honest_with_input far) ]
      inputs
  in
  check_all "1-dimensional" r

let test_d3 () =
  let cfg = Config.make_exn ~n:6 ~ts:1 ~ta:0 ~d:3 ~eps:0.1 ~delta:10 in
  let inputs =
    List.init 6 (fun i ->
        Vec.of_list
          [ float_of_int (i mod 2); float_of_int (i mod 3); float_of_int i /. 2. ])
  in
  let far = Vec.of_list [ 100.; 100.; 100. ] in
  let r = run ~cfg ~corruptions:[ (2, Behavior.Honest_with_input far) ] inputs in
  check_all "3-dimensional" r

(* --- quantitative claims --- *)

let test_contraction_bound () =
  (* Lemma 5.15: every fully-honest-iteration contraction <= sqrt(7/8),
     up to numerical noise. Poisoning forces a spread so there is something
     to contract. *)
  let cfg = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:1e-3 ~delta:10 in
  let far = Vec.of_list [ 40.; -30. ] in
  let r =
    run ~cfg
      ~seed:5L
      ~policy:(Network.sync_uniform ~delta:10)
      ~corruptions:[ (2, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "contraction run" r;
  List.iter
    (fun (it, ratio) ->
      if ratio > Params.conv_factor +. 1e-6 then
        Alcotest.failf "iteration %d contracted only by %.4f > sqrt(7/8)" it ratio)
    (Runner.contraction_ratios r)

let test_sync_round_count () =
  (* Theorem 5.19 timing: completion within c_init + (T + 1) * c_AA-it + c'_rBC
     rounds of Δ under lockstep (plus the final halt delivery). *)
  let r = run ~cfg:cfg_2d ~policy:(Network.lockstep ~delta:10) (grid_inputs 8 2) in
  check_all "round count run" r;
  let t_max =
    List.fold_left (fun acc (_, t) -> max acc t) 1 r.Runner.t_estimates
  in
  let bound =
    float_of_int
      (Params.c_init + ((t_max + 1) * Params.c_aa_it) + Params.c_rbc')
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f rounds within %.1f" r.Runner.completion_rounds bound)
    true
    (r.Runner.completion_rounds <= bound +. 1e-9)

let test_validity_exact_hull_membership () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (0, Behavior.Honest_with_input (Vec.of_list [ 9999.; 9999. ])) ]
      (grid_inputs 8 2)
  in
  check_all "hull membership run" r;
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "inside honest hull" true
        (Membership.in_hull ~eps:1e-6 r.Runner.honest_inputs v))
    r.Runner.outputs

let test_determinism () =
  let go () =
    let r =
      run ~cfg:cfg_2d ~seed:33L
        ~policy:(Network.sync_uniform ~delta:10)
        ~corruptions:[ (5, Behavior.Silent) ]
        (grid_inputs 8 2)
    in
    List.map (fun (i, v) -> (i, Vec.to_list v)) r.Runner.outputs
  in
  Alcotest.(check bool) "bit-identical reruns" true (go () = go ())

(* --- Fixed_t mode (the known-bounds variant, E16) --- *)

let test_fixed_t_mode () =
  let inputs = grid_inputs 8 2 in
  let t_true = Baseline_runner.rounds_for ~eps:cfg_2d.Config.eps ~inputs in
  let engine =
    Engine.create ~seed:5L ~size_of:Message.size_of ~n:8
      ~policy:(Network.sync_uniform ~delta:10) ()
  in
  let parties =
    List.init 8 (fun i ->
        Party.attach
          ~opts:{ Party.default_opts with mode = Party.Fixed_t t_true }
          ~cfg:cfg_2d ~me:i engine)
  in
  List.iteri (fun i p -> Party.start p (List.nth inputs i)) parties;
  Engine.run engine;
  let outs = List.filter_map Party.output parties in
  Alcotest.(check int) "all output" 8 (List.length outs);
  Alcotest.(check bool) "agreement" true
    (Vec.diameter outs <= cfg_2d.Config.eps);
  List.iter
    (fun v ->
      Alcotest.(check bool) "validity" true
        (Membership.in_hull ~eps:1e-6 inputs v))
    outs;
  (* iteration 0 in this mode is the party's own input *)
  List.iter
    (fun p ->
      match Party.value_history p with
      | (0, v0) :: _ ->
          Alcotest.(check bool) "seeded from input" true
            (List.exists (fun i -> Vec.compare i v0 = 0) inputs)
      | _ -> Alcotest.fail "missing iteration 0")
    parties

let test_fixed_t_validation () =
  let engine = Engine.create ~n:8 ~policy:Network.instant () in
  let p =
    Party.attach
      ~opts:{ Party.default_opts with mode = Party.Fixed_t 0 }
      ~cfg:cfg_2d ~me:0 engine
  in
  Alcotest.check_raises "T >= 1 required"
    (Invalid_argument "Party.start: Fixed_t needs T >= 1") (fun () ->
      Party.start p (Vec.zero 2))

let test_party_start_validation () =
  let engine = Engine.create ~n:8 ~policy:Network.instant () in
  let p = Party.attach ~cfg:cfg_2d ~me:0 engine in
  Alcotest.check_raises "dimension check"
    (Invalid_argument "Party.start: wrong dimension") (fun () ->
      Party.start p (Vec.zero 3));
  Party.start p (Vec.zero 2);
  Alcotest.check_raises "double start"
    (Invalid_argument "Party.start: already started") (fun () ->
      Party.start p (Vec.zero 2))

(* --- property: random scenarios stay correct --- *)

let prop_random_scenarios =
  QCheck.Test.make ~name:"random sync scenarios satisfy D-AA" ~count:15
    QCheck.(pair (int_range 0 10000) (int_range 0 2))
    (fun (seed, n_corrupt) ->
      let rng = Rng.create (Int64.of_int (seed + 77)) in
      let inputs = Inputs.uniform_cube rng ~d:2 ~n:8 ~side:10. in
      let corruptions =
        List.init n_corrupt (fun i ->
            ( i * 3,
              if i mod 2 = 0 then Behavior.Silent
              else Behavior.Honest_with_input (Vec.of_list [ 1e4; -1e4 ]) ))
      in
      let r =
        run ~cfg:cfg_2d
          ~seed:(Int64.of_int seed)
          ~policy:(Network.sync_uniform ~delta:10)
          ~corruptions inputs
      in
      r.Runner.live && r.Runner.valid && r.Runner.agreement)

let prop_random_async_scenarios =
  QCheck.Test.make ~name:"random async scenarios satisfy D-AA" ~count:10
    (QCheck.int_range 0 10000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 13)) in
      let inputs = Inputs.two_clusters rng ~d:2 ~n:8 ~separation:8. in
      let victim = seed mod 8 in
      let corrupt = (victim + 4) mod 8 in
      let r =
        run ~cfg:cfg_2d
          ~seed:(Int64.of_int seed)
          ~policy:
            (Network.async_starve ~victims:(fun i -> i = victim)
               ~release:(500 + (seed mod 400))
               ~fast:5)
          ~sync_network:false
          ~corruptions:[ (corrupt, Behavior.Silent) ]
          inputs
      in
      r.Runner.live && r.Runner.valid && r.Runner.agreement)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "maaa"
    [
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "synchronous",
        [
          Alcotest.test_case "honest" `Quick test_sync_honest;
          Alcotest.test_case "ts poisoned" `Quick test_sync_poisoned;
          Alcotest.test_case "ts silent" `Quick test_sync_silent;
          Alcotest.test_case "crash mid-protocol" `Quick
            test_sync_crash_mid_protocol;
          Alcotest.test_case "equivocator" `Quick test_sync_equivocator;
          Alcotest.test_case "halt liars" `Quick test_sync_halt_liar;
          Alcotest.test_case "spam" `Quick test_sync_spam;
          Alcotest.test_case "mixed + rushing" `Quick test_sync_mixed_adversary;
        ] );
      ( "asynchronous",
        [
          Alcotest.test_case "starved honest party" `Quick
            test_async_starved_honest;
          Alcotest.test_case "heavy tail + poison" `Quick
            test_async_heavy_tail_poison;
        ] );
      ( "dimensions",
        [
          Alcotest.test_case "D = 1" `Quick test_d1;
          Alcotest.test_case "D = 3" `Quick test_d3;
        ] );
      ( "modes",
        [
          Alcotest.test_case "fixed T" `Quick test_fixed_t_mode;
          Alcotest.test_case "fixed T validation" `Quick test_fixed_t_validation;
          Alcotest.test_case "start validation" `Quick test_party_start_validation;
        ] );
      ( "quantitative",
        [
          Alcotest.test_case "contraction bound" `Quick test_contraction_bound;
          Alcotest.test_case "sync round count" `Quick test_sync_round_count;
          Alcotest.test_case "hull membership" `Quick
            test_validity_exact_hull_membership;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "properties",
        q [ prop_random_scenarios; prop_random_async_scenarios ] );
    ]
