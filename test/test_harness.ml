(* Tests for the harness: input generators, scenario validation, metric
   extraction, tables, and the isolated sub-protocol fixtures. *)

(* --- Inputs --- *)

let test_simplex_corners () =
  let pts = Inputs.simplex_corners ~d:3 ~scale:2. ~n:5 in
  Alcotest.(check int) "count" 5 (List.length pts);
  Alcotest.(check bool) "first is origin" true
    (Vec.compare (List.hd pts) (Vec.zero 3) = 0);
  Alcotest.(check bool) "second is 2 e_0" true
    (Vec.compare (List.nth pts 1) (Vec.basis ~dim:3 0 2.) = 0);
  (* wraps around after d + 1 corners *)
  Alcotest.(check bool) "wraps" true
    (Vec.compare (List.nth pts 4) (Vec.zero 3) = 0)

let test_uniform_cube () =
  let rng = Rng.create 1L in
  let pts = Inputs.uniform_cube rng ~d:4 ~n:50 ~side:3. in
  Alcotest.(check int) "count" 50 (List.length pts);
  List.iter
    (fun p ->
      List.iter
        (fun x -> Alcotest.(check bool) "in cube" true (x >= 0. && x <= 3.))
        (Vec.to_list p))
    pts

let test_gaussian_cluster () =
  let rng = Rng.create 2L in
  let center = Vec.of_list [ 5.; 5. ] in
  let pts = Inputs.gaussian_cluster rng ~d:2 ~n:200 ~center ~spread:0.5 in
  let c = Vec.centroid pts in
  Alcotest.(check bool) "centroid near center" true (Vec.dist c center < 0.3)

let test_two_clusters () =
  let rng = Rng.create 3L in
  let pts = Inputs.two_clusters rng ~d:2 ~n:20 ~separation:100. in
  let near_origin =
    List.filter (fun p -> Vec.norm p < 50.) pts |> List.length
  in
  Alcotest.(check int) "half near origin" 10 near_origin

let test_gradients () =
  let rng = Rng.create 4L in
  let truth = Vec.of_list [ 1.; 2.; 3. ] in
  let pts = Inputs.gradients rng ~d:3 ~n:100 ~truth ~noise:0.1 in
  let c = Vec.centroid pts in
  Alcotest.(check bool) "centered on truth" true (Vec.dist c truth < 0.1)

let test_ring () =
  let pts = Inputs.ring ~n:12 ~radius:7. in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "on the circle" 7. (Vec.norm p))
    pts

(* --- Scenario --- *)

let cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:2 ~eps:0.1 ~delta:10
let inputs4 = List.init 4 (fun i -> Vec.of_list [ float_of_int i; 0. ])

let test_scenario_validation () =
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Scenario.make: need one input per party") (fun () ->
      ignore (Scenario.make ~cfg ~inputs:[ Vec.zero 2 ] ()));
  Alcotest.check_raises "wrong dimension"
    (Invalid_argument "Scenario.make: input dimension mismatch") (fun () ->
      ignore
        (Scenario.make ~cfg ~inputs:(List.init 4 (fun _ -> Vec.zero 3)) ()));
  Alcotest.check_raises "corruption out of range"
    (Invalid_argument "Scenario.make: corrupted party out of range") (fun () ->
      ignore
        (Scenario.make ~cfg ~inputs:inputs4
           ~corruptions:[ (9, Behavior.Silent) ]
           ()));
  Alcotest.check_raises "duplicate corruption"
    (Invalid_argument "Scenario.make: duplicate corruption") (fun () ->
      ignore
        (Scenario.make ~cfg ~inputs:inputs4
           ~corruptions:[ (1, Behavior.Silent); (1, Behavior.Silent) ]
           ()))

let test_scenario_accessors () =
  let s =
    Scenario.make ~cfg ~inputs:inputs4 ~corruptions:[ (2, Behavior.Silent) ] ()
  in
  Alcotest.(check (list int)) "honest" [ 0; 1; 3 ] (Scenario.honest s);
  Alcotest.(check int) "corrupt count" 1 (Scenario.corrupt_count s);
  Alcotest.(check int) "honest inputs" 3 (List.length (Scenario.honest_inputs s))

(* --- Runner metrics --- *)

let test_runner_contraction_and_diameters () =
  let s = Scenario.make ~cfg ~inputs:inputs4 () in
  let r = Runner.run s in
  let diams = Runner.iteration_diameters r in
  Alcotest.(check bool) "diameters non-empty" true (diams <> []);
  Alcotest.(check bool) "iteration 0 present" true
    (List.mem_assoc 0 diams);
  List.iter
    (fun (_, ratio) ->
      Alcotest.(check bool) "ratio sane" true (ratio >= 0. && ratio <= 1.))
    (Runner.contraction_ratios r)

let test_runner_reports_dead_run () =
  (* an infeasible adversary (all corrupt) is not constructible, but a
     network that never delivers within the horizon leaves liveness false
     rather than raising *)
  let s =
    Scenario.make ~cfg ~inputs:inputs4
      ~corruptions:[ (0, Behavior.Silent); (1, Behavior.Silent) ]
        (* 2 > ts: outside the budget, liveness may fail; must not raise *)
      ()
  in
  let r = Runner.run s in
  Alcotest.(check bool) "no exception; some verdict" true
    (r.Runner.live || not r.Runner.live);
  (* even with no honest output the Δ-round metric stays nan-free *)
  Alcotest.(check bool) "completion_rounds nan-free" true
    (Float.is_finite r.Runner.completion_rounds
    && r.Runner.completion_rounds >= 0.)

(* --- Table --- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

(* --- Fixtures --- *)

let test_fixture_rbc_crashed_sender_still_consistent () =
  (* sender not in [honest]: its raw Init still gets echoed by honest
     parties and delivered consistently *)
  let obs =
    Fixtures.run_rbc ~n:4 ~t:1 ~policy:Network.instant ~honest:[ 0; 1; 2 ]
      ~sender:(`Honest (3, Message.Pint 5))
      ()
  in
  Alcotest.(check int) "3 deliveries" 3 (List.length obs.Fixtures.rbc_deliveries)

let test_fixture_obc_start_delays () =
  let inputs = List.init 4 (fun i -> (i, Vec.of_list [ float_of_int i ])) in
  let obs =
    Fixtures.run_obc ~n:4 ~ts:1 ~delta:10 ~policy:Network.instant
      ~start_delays:[ (3, 15) ] ~inputs ()
  in
  Alcotest.(check int) "all output" 4 (List.length obs.Fixtures.obc_outputs)

let test_fixture_init_outputs () =
  let inputs = List.init 4 (fun i -> (i, Vec.of_list [ float_of_int i; 0. ])) in
  let obs =
    Fixtures.run_init ~n:4 ~ts:1 ~ta:0 ~delta:10 ~eps:0.1
      ~policy:(Network.lockstep ~delta:10) ~inputs ()
  in
  Alcotest.(check int) "all output" 4 (List.length obs.Fixtures.init_results);
  List.iter
    (fun (_, t, v0, _) ->
      Alcotest.(check bool) "T >= 1" true (t >= 1);
      Alcotest.(check bool) "v0 in hull" true
        (Membership.in_hull ~eps:1e-6 (List.map snd inputs) v0))
    obs.Fixtures.init_results

let test_init_estimation_consistency () =
  (* Πinit's consistency argument: two honest parties that both marked P'
     as a witness computed the same estimation for P' (the estimations are
     deterministic functions of reliably-broadcast reports). *)
  let inputs =
    List.init 6 (fun i ->
        (i, Vec.of_list [ float_of_int (i mod 3); float_of_int (i mod 4) ]))
  in
  let obs =
    Fixtures.run_init ~seed:9L ~n:6 ~ts:1 ~ta:1 ~delta:10 ~eps:0.1
      ~policy:(Network.sync_uniform ~delta:10) ~inputs ()
  in
  let sets = List.map snd obs.Fixtures.init_estimations in
  List.iter
    (fun s ->
      List.iter
        (fun s' ->
          List.iter
            (fun p ->
              match (Pairset.find_party p s, Pairset.find_party p s') with
              | Some v, Some v' ->
                  Alcotest.(check bool) "same estimation" true
                    (Vec.compare v v' = 0)
              | _ -> ())
            (List.init 6 Fun.id))
        sets)
    sets

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3. s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 3. s.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1. s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5. s.Stats.max;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.) s.Stats.stddev

let test_stats_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  Alcotest.(check (float 1e-9)) "p0" 10. (Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 40. (Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p50" 25. (Stats.percentile xs 50.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile [] 50.))

(* --- Traffic --- *)

let test_traffic_classification () =
  let v = Vec.of_list [ 1.; 2. ] in
  let checks =
    [
      ( Message.Rbc
          ({ tag = Message.Init_value; origin = 0 },
            Message.Echo,
            Message.Pvec v ),
        Traffic.Init_rbc );
      ( Message.Rbc
          ({ tag = Message.Obc_value 3; origin = 0 },
            Message.Ready,
            Message.Pvec v ),
        Traffic.Iteration_rbc );
      ( Message.Rbc
          ({ tag = Message.Halt 2; origin = 0 },
            Message.Init,
            Message.Pint 2 ),
        Traffic.Halt_rbc );
      (Message.Obc_report { iter = 1; pairs = [] },
        Traffic.Obc_reports );
      (Message.Witness_set { parties = [ 1 ] },
        Traffic.Witness_sets );
      (Message.Sync_round { round = 0; value = v }, Traffic.Baseline);
      (Message.Junk 3, Traffic.Junk);
    ]
  in
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string) "class"
        (Traffic.klass_name expected)
        (Traffic.klass_name (Traffic.klass_of msg)))
    checks

let traffic_engine ~n =
  Engine.create ~size_of:Message.size_of ~classes:Traffic.num_klasses
    ~classify:Traffic.classify_into ~n ~policy:Network.instant ()

let test_traffic_counters () =
  let engine = traffic_engine ~n:2 in
  Engine.set_party engine 1 (fun _ -> ());
  Engine.send engine ~src:0 ~dst:1 (Message.Junk 10);
  Engine.send engine ~src:0 ~dst:1 (Message.Junk 20);
  Engine.run engine;
  let t = Traffic.of_engine engine in
  Alcotest.(check int) "count" 2 (Traffic.count t Traffic.Junk);
  Alcotest.(check int) "bytes" (16 + 10 + 16 + 20) (Traffic.bytes t Traffic.Junk);
  Alcotest.(check int) "total" 2 (Traffic.total t)

(* A broadcast sizes and classifies its message once and scales the
   counts by n: the rows and totals must equal those of n single sends,
   and the tracer must still see one [Sent] per destination, in order. *)
let test_broadcast_accounts_like_sends () =
  let v = Vec.of_list [ 1.; 2. ] in
  let id = { Message.tag = Message.Obc_value 1; origin = 0 } in
  let halt = { Message.tag = Message.Halt 2; origin = 3 } in
  List.iter
    (fun (name, msg) ->
      let a = traffic_engine ~n:4 and b = traffic_engine ~n:4 in
      let dsts = ref [] in
      Engine.set_tracer a (function
        | Engine.Sent { dst; _ } -> dsts := dst :: !dsts
        | _ -> ());
      Engine.broadcast a ~src:0 msg;
      for dst = 0 to 3 do
        Engine.send b ~src:0 ~dst msg
      done;
      let rows e = Traffic.to_rows (Traffic.of_engine e) in
      Alcotest.(check (list (triple string int int)))
        (name ^ ": rows") (rows b) (rows a);
      let sa = Engine.stats a and sb = Engine.stats b in
      Alcotest.(check int)
        (name ^ ": messages") sb.Engine.messages_sent sa.Engine.messages_sent;
      Alcotest.(check int)
        (name ^ ": bytes") sb.Engine.bytes_sent sa.Engine.bytes_sent;
      Alcotest.(check (list int))
        (name ^ ": Sent in dst order") [ 0; 1; 2; 3 ] (List.rev !dsts))
    [
      ("rbc vote", Message.Rbc (id, Message.Echo, Message.Pvec v));
      ( "rbc batch",
        Message.Rbc_batch
          [
            (id, Message.Init, Message.Pvec v);
            (halt, Message.Ready, Message.Pint 2);
          ] );
      ("obc report", Message.Obc_report { iter = 1; pairs = [ (0, v); (2, v) ] });
    ]

(* --- Baseline runner corruption plumbing --- *)

let test_baseline_runner_mute_excluded () =
  let inputs = List.init 4 (fun i -> Vec.of_list [ float_of_int i; 0. ]) in
  let r =
    Baseline_runner.run_sync_baseline ~n:4 ~t:1 ~rounds:2 ~delta:10 ~eps:10.
      ~inputs
      ~corruptions:[ (3, Baseline_runner.Mute) ]
      ()
  in
  Alcotest.(check int) "3 honest outputs" 3 (List.length r.Baseline_runner.outputs)

let () =
  Alcotest.run "harness"
    [
      ( "inputs",
        [
          Alcotest.test_case "simplex corners" `Quick test_simplex_corners;
          Alcotest.test_case "uniform cube" `Quick test_uniform_cube;
          Alcotest.test_case "gaussian cluster" `Quick test_gaussian_cluster;
          Alcotest.test_case "two clusters" `Quick test_two_clusters;
          Alcotest.test_case "gradients" `Quick test_gradients;
          Alcotest.test_case "ring" `Quick test_ring;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "accessors" `Quick test_scenario_accessors;
        ] );
      ( "runner",
        [
          Alcotest.test_case "metrics" `Quick test_runner_contraction_and_diameters;
          Alcotest.test_case "graceful on dead runs" `Quick
            test_runner_reports_dead_run;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "fixtures",
        [
          Alcotest.test_case "rbc crashed sender" `Quick
            test_fixture_rbc_crashed_sender_still_consistent;
          Alcotest.test_case "obc start delays" `Quick test_fixture_obc_start_delays;
          Alcotest.test_case "init outputs" `Quick test_fixture_init_outputs;
          Alcotest.test_case "init estimation consistency" `Quick
            test_init_estimation_consistency;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "classification" `Quick test_traffic_classification;
          Alcotest.test_case "counters" `Quick test_traffic_counters;
          Alcotest.test_case "broadcast accounts like sends" `Quick
            test_broadcast_accounts_like_sends;
        ] );
      ( "baseline runner",
        [
          Alcotest.test_case "mute excluded" `Quick
            test_baseline_runner_mute_excluded;
        ] );
    ]
