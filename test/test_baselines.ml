(* Tests for the two baseline protocols: correct inside their envelopes,
   demonstrably broken outside (the regimes E12 measures). *)

let inputs_2d n =
  List.init n (fun i ->
      Vec.of_list [ float_of_int (i mod 3); float_of_int (i mod 5) ])

let check_result name ~live ~valid ~agreement (r : Runner.result) =
  Alcotest.(check bool) (name ^ " live") live r.Runner.live;
  Alcotest.(check bool) (name ^ " valid") valid r.Runner.valid;
  Alcotest.(check bool) (name ^ " agreement") agreement r.Runner.agreement

let run ?(policy = Network.lockstep ~delta:10) ?(sync_network = true)
    ?(corruptions = []) ~n ~ts ~ta ~d ~eps ~inputs protocol =
  Runner.run
    (Scenario.make ~cfg:(Config.make_exn ~n ~ts ~ta ~d ~eps ~delta:10) ~inputs
       ~policy ~sync_network ~corruptions ~protocol ())

(* A starved round adopts nothing, so it leaves no history entry. *)
let starved_rounds ~rounds (r : Runner.result) =
  List.fold_left
    (fun acc (_, h) -> acc + rounds + 1 - List.length h)
    0 r.Runner.histories

let test_rounds_for () =
  let inputs = [ Vec.of_list [ 0. ]; Vec.of_list [ 10. ] ] in
  let r = Baseline_runner.rounds_for ~eps:0.1 ~inputs in
  (* log_{sqrt(7/8)}(0.1 / 10) = 2 * ln 100 / ln(8/7) ~ 69 *)
  Alcotest.(check bool) "about 69 rounds" true (r >= 65 && r <= 75);
  Alcotest.(check int) "already close" 1
    (Baseline_runner.rounds_for ~eps:1. ~inputs:[ Vec.of_list [ 0. ] ])

(* --- pure-synchronous baseline --- *)

let test_sync_baseline_home_setting () =
  let inputs = inputs_2d 8 in
  let rounds = Baseline_runner.rounds_for ~eps:0.05 ~inputs in
  let r =
    run ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~inputs
      ~policy:(Network.sync_uniform ~delta:10)
      ~corruptions:
        [
          (1, Behavior.Honest_with_input (Vec.of_list [ 1000.; 1000. ]));
          (5, Behavior.Silent);
        ]
      (Scenario.Pure_sync { rounds })
  in
  check_result "sync baseline" ~live:true ~valid:true ~agreement:true r;
  Alcotest.(check int) "no starvation under synchrony" 0
    (starved_rounds ~rounds r)

let test_sync_baseline_breaks_off_synchrony () =
  let inputs = inputs_2d 8 in
  let rounds = Baseline_runner.rounds_for ~eps:0.05 ~inputs in
  let r =
    run ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~inputs
      ~policy:
        (Network.async_starve ~victims:(fun i -> i = 0) ~release:100_000 ~fast:4)
      ~sync_network:false
      ~corruptions:[ (5, Behavior.Silent) ]
      (Scenario.Pure_sync { rounds })
  in
  Alcotest.(check bool) "starved rounds observed" true
    (starved_rounds ~rounds r > 0);
  Alcotest.(check bool) "agreement lost" false r.agreement

let test_sync_baseline_zero_rounds () =
  let r =
    run ~n:4 ~ts:1 ~ta:0 ~d:2 ~eps:100. ~inputs:(inputs_2d 4)
      (Scenario.Pure_sync { rounds = 0 })
  in
  (* with no rounds everyone outputs its input *)
  check_result "zero rounds" ~live:true ~valid:true ~agreement:true r

(* --- pure-asynchronous baseline --- *)

let test_async_baseline_home_setting () =
  let inputs = inputs_2d 8 in
  let iters = Baseline_runner.rounds_for ~eps:0.05 ~inputs in
  (* n = 8, D = 2: tolerates t = 1 < n / (D + 2) *)
  let r =
    run ~n:8 ~ts:1 ~ta:1 ~d:2 ~eps:0.05 ~inputs
      ~policy:(Network.async_heavy_tail ~base:12)
      ~sync_network:false
      ~corruptions:[ (3, Behavior.Honest_with_input (Vec.of_list [ -500.; 500. ])) ]
      (Scenario.Pure_async { iters })
  in
  check_result "async baseline" ~live:true ~valid:true ~agreement:true r

let test_async_baseline_breaks_beyond_threshold () =
  (* two poison corruptions exceed its t = 1 envelope: validity is lost
     (the converged value is dragged outside the honest hull) *)
  let inputs = inputs_2d 8 in
  let iters = Baseline_runner.rounds_for ~eps:0.05 ~inputs in
  let far = Vec.of_list [ 500.; -500. ] in
  let r =
    run ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~inputs
      ~policy:(Network.sync_uniform ~delta:10)
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (5, Behavior.Honest_with_input far) ]
      (Scenario.Pure_async { iters })
  in
  Alcotest.(check bool) "lives" true r.live;
  Alcotest.(check bool) "validity lost" false r.valid

let test_async_baseline_no_clocks () =
  (* purely count-driven: an extreme scheduler only slows it down *)
  let r =
    run ~n:7 ~ts:1 ~ta:1 ~d:2 ~eps:10. ~inputs:(inputs_2d 7)
      ~policy:
        (Network.async_starve ~victims:(fun i -> i = 2) ~release:3000 ~fast:3)
      ~sync_network:false
      ~corruptions:[ (6, Behavior.Silent) ]
      (Scenario.Pure_async { iters = 10 })
  in
  check_result "async no clocks" ~live:true ~valid:true ~agreement:true r

(* --- histories --- *)

let inputs_1d n = List.init n (fun i -> Vec.of_list [ float_of_int i ])

let check_histories ~len (r : Runner.result) =
  Alcotest.(check int) "every party outputs" 4 (List.length r.Runner.outputs);
  Alcotest.(check int) "output times recorded" 4
    (List.length r.Runner.output_times);
  List.iter
    (fun (_, h) -> Alcotest.(check int) "history = rounds + 1" len (List.length h))
    r.Runner.histories

let test_sync_aa_history () =
  check_histories ~len:4
    (run ~n:4 ~ts:1 ~ta:1 ~d:1 ~eps:10. ~inputs:(inputs_1d 4)
       (Scenario.Pure_sync { rounds = 3 }))

let test_async_aa_history () =
  check_histories ~len:4
    (run ~n:4 ~ts:1 ~ta:1 ~d:1 ~eps:10. ~inputs:(inputs_1d 4)
       ~policy:Network.instant ~sync_network:false
       (Scenario.Pure_async { iters = 3 }))

(* --- golden: E12's two settings, pinned bit for bit --- *)

(* E12's workload: n = 8, D = 2, ts = 2, ta = 1 (= the best a pure-async
   protocol tolerates at this n, D), seeded uniform inputs. *)
let e12_inputs () = Inputs.uniform_cube (Rng.create 777L) ~d:2 ~n:8 ~side:10.
let e12_far = Vec.of_list [ 500.; -500. ]
let e12_starve = Network.async_starve ~victims:(fun i -> i = 0) ~release:2000 ~fast:4

let golden ~live ~valid ~agreement ~msgs outputs =
  Printf.sprintf "live=%b valid=%b agreement=%b msgs=%d %s" live valid
    agreement msgs
    (String.concat " "
       (List.map
          (fun (i, v) ->
            Printf.sprintf "%d:%s" i
              (String.concat "," (List.map (Printf.sprintf "%h") (Vec.to_list v))))
          outputs))

let golden_of (r : Runner.result) =
  golden ~live:r.live ~valid:r.valid ~agreement:r.agreement
    ~msgs:r.stats.Engine.messages_sent r.outputs

(* E12's scenarios: every row of both settings, through Runner.run *)
let e12_runs () =
  let inputs = e12_inputs () in
  let rounds = Baseline_runner.rounds_for ~eps:0.05 ~inputs in
  let poison =
    [ (1, Behavior.Honest_with_input e12_far); (5, Behavior.Honest_with_input e12_far) ]
  in
  let mute = [ (5, Behavior.Silent) ] in
  let run ~policy ~sync_network corruptions protocol =
    golden_of
      (run ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~inputs ~policy ~sync_network
         ~corruptions protocol)
  in
  let sync_a = run ~policy:(Network.sync_uniform ~delta:10) ~sync_network:true poison in
  let starve_b = run ~policy:e12_starve ~sync_network:false mute in
  [
    ("A pure-sync", sync_a (Scenario.Pure_sync { rounds }));
    ("A pure-async", sync_a (Scenario.Pure_async { iters = rounds }));
    ("B pure-sync", starve_b (Scenario.Pure_sync { rounds }));
    ("B pure-async", starve_b (Scenario.Pure_async { iters = rounds }));
  ]

let e12_pinned =
  [
    ("A pure-sync", "live=true valid=true agreement=true msgs=5056 0:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1 2:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1 3:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1 4:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1 6:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1 7:0x1.ba487f34bc6ap+2,0x1.72ba3734cf1c7p+1");
    ("A pure-async", "live=true valid=false agreement=true msgs=171904 0:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7 2:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7 3:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7 4:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7 6:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7 7:0x1.f8c267470bda5p+7,-0x1.ed795beb21534p+7");
    ("B pure-sync", "live=true valid=true agreement=false msgs=4424 0:0x1.3099d1c2f693ap+2,0x1.a1a90537ab30ap+2 1:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2 2:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2 3:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2 4:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2 6:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2 7:0x1.1c5eb39fb2d7fp+2,0x1.03a1484f479d4p+2");
    ("B pure-async", "live=true valid=true agreement=true msgs=132720 0:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 1:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 2:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 3:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 4:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 6:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2 7:0x1.43e41827e4a03p+2,0x1.3cf3cde3d7b69p+2");
  ]

let test_e12_golden () =
  List.iter
    (fun (name, got) ->
      Alcotest.(check string) name (List.assoc name e12_pinned) got)
    (e12_runs ())

let () =
  Alcotest.run "baselines"
    [
      ("rounds", [ Alcotest.test_case "rounds_for" `Quick test_rounds_for ]);
      ("e12", [ Alcotest.test_case "golden" `Quick test_e12_golden ]);
      ( "pure-sync",
        [
          Alcotest.test_case "home setting" `Quick test_sync_baseline_home_setting;
          Alcotest.test_case "breaks off-synchrony" `Quick
            test_sync_baseline_breaks_off_synchrony;
          Alcotest.test_case "zero rounds" `Quick test_sync_baseline_zero_rounds;
          Alcotest.test_case "history" `Quick test_sync_aa_history;
        ] );
      ( "pure-async",
        [
          Alcotest.test_case "home setting" `Quick test_async_baseline_home_setting;
          Alcotest.test_case "breaks beyond threshold" `Quick
            test_async_baseline_breaks_beyond_threshold;
          Alcotest.test_case "count-driven" `Quick test_async_baseline_no_clocks;
          Alcotest.test_case "history" `Quick test_async_aa_history;
        ] );
    ]
