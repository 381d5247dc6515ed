(* Tests for the chaos layer (fault-plan DSL, generator, shrinker), the
   online invariant monitor, and the soak driver that ties them together:
   seeded reproducibility, the network-model bounds of compiled plans,
   monitor unit checks, mutant detection end-to-end and the byte-identical
   parallel soak report. *)

let cfg8 = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

(* --- Fault_plan.validate --- *)

let ok_or_fail name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: unexpectedly rejected: %s" name msg

let expect_error name = function
  | Ok () -> Alcotest.failf "%s: expected a validation error" name
  | Error _ -> ()

let test_validate () =
  let corrupt p =
    Fault_plan.Corrupt_at { tick = 5; party = p; behavior = Behavior.Silent }
  in
  ok_or_fail "two adaptive under ts=2"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [ corrupt 1; corrupt 2 ]);
  expect_error "three adaptive under ts=2"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [ corrupt 1; corrupt 2; corrupt 3 ]);
  expect_error "budget shared with static corruptions"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[ 0; 4 ] [ corrupt 1 ]);
  expect_error "re-targeting a static corruption"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[ 1 ] [ corrupt 1 ]);
  expect_error "async budget is ta=1"
    (Fault_plan.validate ~cfg:cfg8 ~sync:false ~existing:[]
       [ corrupt 1; corrupt 2 ]);
  expect_error "party out of range"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[] [ corrupt 9 ]);
  ok_or_fail "empty window is a legal no-op"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [ Fault_plan.Delay_spike { from_tick = 30; until_tick = 30; factor = 2 } ]);
  expect_error "inverted window"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [ Fault_plan.Delay_spike { from_tick = 30; until_tick = 29; factor = 2 } ]);
  expect_error "partition group array length"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [
         Fault_plan.Partition
           { from_tick = 0; until_tick = 10; group_of = [| 0; 1 |] };
       ]);
  expect_error "percent over 100"
    (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[]
       [ Fault_plan.Duplicate { from_tick = 0; until_tick = 10; percent = 150 } ])

(* --- Fault_gen: seeded reproducibility --- *)

let test_gen_deterministic () =
  let sample seed =
    Fault_gen.sample (Rng.create seed) ~cfg:cfg8 ~sync:true ~existing:[ 0 ]
      ~horizon:400
  in
  List.iter
    (fun seed ->
      let p1 = sample seed and p2 = sample seed in
      Alcotest.(check (list string))
        "same seed, same plan"
        (Fault_plan.to_strings p1) (Fault_plan.to_strings p2);
      ok_or_fail "sampled plan validates"
        (Fault_plan.validate ~cfg:cfg8 ~sync:true ~existing:[ 0 ] p1))
    [ 1L; 2L; 3L; 17L; 255L ]

let test_gen_respects_async_budget () =
  (* ta = 1 and one existing corruption: no adaptive atoms may be drawn *)
  for seed = 1 to 30 do
    let plan =
      Fault_gen.sample
        (Rng.create (Int64.of_int seed))
        ~cfg:cfg8 ~sync:false ~existing:[ 3 ] ~horizon:400
    in
    Alcotest.(check (list int)) "no adaptive corruption" []
      (Fault_plan.corrupted plan);
    ok_or_fail "validates" (Fault_plan.validate ~cfg:cfg8 ~sync:false ~existing:[ 3 ] plan)
  done

(* --- Fault_plan.compile: network-model bounds --- *)

let test_compile_sync_bounded_by_delta () =
  (* whatever atoms a plan stacks, compiled synchronous delays stay in
     [1, Δ] — chaos degrades the schedule, never breaks the model *)
  for seed = 1 to 25 do
    let gen = Rng.create (Int64.of_int seed) in
    let plan = Fault_gen.sample gen ~cfg:cfg8 ~sync:true ~existing:[] ~horizon:400 in
    let policy =
      Fault_plan.compile ~sync:true ~delta:10
        ~base:(Network.sync_uniform ~delta:10) plan
    in
    let rng = Rng.create 77L in
    for now = 0 to 120 do
      for src = 0 to 7 do
        for dst = 0 to 7 do
          let d = policy ~rng ~now ~src ~dst in
          if d < 1 || d > 10 then
            Alcotest.failf "sync delay %d outside [1, 10] (seed %d, now %d)" d
              seed now
        done
      done
    done
  done

let test_compile_async_finite_and_positive () =
  for seed = 1 to 25 do
    let gen = Rng.create (Int64.of_int seed) in
    let plan =
      Fault_gen.sample gen ~cfg:cfg8 ~sync:false ~existing:[] ~horizon:400
    in
    let policy =
      Fault_plan.compile ~sync:false ~delta:10
        ~base:(Network.async_uniform ~max_delay:50) plan
    in
    let rng = Rng.create 78L in
    for now = 0 to 120 do
      let d = policy ~rng ~now ~src:(now mod 8) ~dst:((now + 3) mod 8) in
      if d < 1 then Alcotest.failf "async delay %d < 1 (seed %d)" d seed
    done
  done

let test_compile_partition_holds_until_heal () =
  let plan =
    [
      Fault_plan.Partition
        { from_tick = 5; until_tick = 20; group_of = [| 0; 1; 0; 1; 0; 1; 0; 1 |] };
    ]
  in
  let policy = Fault_plan.compile ~sync:false ~delta:10 ~base:Network.instant plan in
  let rng = Rng.create 1L in
  (* crossing the cut inside the window: held until the partition heals *)
  let d = policy ~rng ~now:10 ~src:0 ~dst:1 in
  Alcotest.(check bool) "cross-cut held" true (10 + d > 20);
  (* same side: base delay *)
  Alcotest.(check int) "same side fast" 1 (policy ~rng ~now:10 ~src:0 ~dst:2);
  (* outside the window: base delay *)
  Alcotest.(check int) "healed" 1 (policy ~rng ~now:25 ~src:0 ~dst:1)

(* --- Fault_shrink: synthetic oracle --- *)

let test_shrink_synthetic_predicate () =
  (* "bug" := a Delay_spike with factor >= 4 AND a Corrupt_at of party 2;
     the shrinker must land on exactly those two atoms, numerically
     weakened as far as the predicate allows *)
  let plan =
    [
      Fault_plan.Delay_spike { from_tick = 10; until_tick = 60; factor = 6 };
      Fault_plan.Corrupt_at
        {
          tick = 40;
          party = 2;
          behavior = Behavior.Equivocate (Vec.of_list [ 1.; 1. ], Vec.of_list [ 2.; 2. ]);
        };
      Fault_plan.Duplicate { from_tick = 0; until_tick = 30; percent = 50 };
      Fault_plan.Reorder { from_tick = 5; until_tick = 25; window = 4 };
      Fault_plan.Corrupt_at { tick = 7; party = 0; behavior = Behavior.Silent };
    ]
  in
  let reproduces p =
    List.exists
      (function Fault_plan.Delay_spike { factor; _ } -> factor >= 4 | _ -> false)
      p
    && List.exists
         (function Fault_plan.Corrupt_at { party = 2; _ } -> true | _ -> false)
         p
  in
  let o = Fault_shrink.shrink ~reproduces:(fun p _ -> reproduces p) plan in
  Alcotest.(check bool) "still reproduces" true (reproduces o.Fault_shrink.plan);
  Alcotest.(check bool) "1-minimal" true o.Fault_shrink.minimal;
  Alcotest.(check int) "two atoms survive" 2 (List.length o.Fault_shrink.plan);
  List.iter
    (function
      | Fault_plan.Delay_spike { factor; _ } ->
          Alcotest.(check bool) "factor not below the threshold" true (factor >= 4)
      | Fault_plan.Corrupt_at { tick; party; behavior } ->
          Alcotest.(check int) "party pinned" 2 party;
          Alcotest.(check int) "tick driven to 0" 0 tick;
          (match behavior with
          | Behavior.Silent -> ()
          | b ->
              Alcotest.failf "behaviour not weakened to Silent: %s"
                (Fault_plan.atom_to_string
                   (Fault_plan.Corrupt_at { tick; party; behavior = b })))
      | a -> Alcotest.failf "unexpected survivor: %s" (Fault_plan.atom_to_string a))
    o.Fault_shrink.plan

let test_shrink_respects_try_budget () =
  let plan =
    List.init 6 (fun i ->
        Fault_plan.Delay_spike
          { from_tick = i * 10; until_tick = (i * 10) + 5; factor = 2 })
  in
  let calls = ref 0 in
  let reproduces _ =
    incr calls;
    true
  in
  let o = Fault_shrink.shrink ~max_tries:3 ~reproduces:(fun p _ -> reproduces p) plan in
  Alcotest.(check bool) "oracle budget respected" true (o.Fault_shrink.tries <= 3);
  Alcotest.(check bool) "budget exhaustion reported" false o.Fault_shrink.minimal;
  Alcotest.(check bool) "result still reproduces" true (reproduces o.Fault_shrink.plan)

(* --- Monitor units --- *)

let mcfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:1 ~eps:0.1 ~delta:10
let v1 x = Vec.of_list [ x ]
let minputs = List.map v1 [ 0.; 1.; 2.; 3. ]

let fresh_monitor () =
  Monitor.create ~cfg:mcfg ~honest:[ 0; 1; 2; 3 ] ~honest_inputs:minputs

let count s name =
  match List.assoc_opt name s.Monitor.counts with Some c -> c | None -> 0

let test_monitor_clean_run () =
  let m = fresh_monitor () in
  List.iteri
    (fun i x -> Monitor.on_iteration m ~party:i ~now:1 ~iter:0 (v1 x))
    [ 0.; 1.; 2.; 3. ];
  List.iteri
    (fun i x -> Monitor.on_iteration m ~party:i ~now:2 ~iter:1 (v1 x))
    [ 1.; 1.5; 2.; 2.5 ];
  List.iteri
    (fun i x -> Monitor.on_output m ~party:i ~now:3 ~iter:1 (v1 x))
    [ 2.; 2.05; 2.; 2.05 ];
  Monitor.on_trace m
    (Engine.Sent
       {
         src = 0;
         dst = 1;
         at = 1;
         deliver_at = 2;
         msg =
           Message.Rbc
             ( { Message.tag = Message.Obc_value 1; origin = 0 },
               Message.Init,
               Message.Pvec (v1 1.) );
       });
  let s = Monitor.summary m in
  Alcotest.(check int) "no violations" 0 (Monitor.total_violations s);
  Alcotest.(check bool) "checks counted" true (s.Monitor.checks > 0);
  Alcotest.(check int) "all outputs seen" 4 s.Monitor.honest_outputs;
  Alcotest.(check (float 1e-9)) "final diameter" 0.05 s.Monitor.final_diameter;
  (* summary is idempotent *)
  Alcotest.(check int) "idempotent" 0 (Monitor.total_violations (Monitor.summary m))

let test_monitor_validity_violation () =
  let m = fresh_monitor () in
  Monitor.on_output m ~party:0 ~now:5 ~iter:1 (v1 10.);
  let s = Monitor.summary m in
  Alcotest.(check int) "flagged" 1 (count s "validity")

let test_monitor_agreement_violation () =
  let m = fresh_monitor () in
  Monitor.on_output m ~party:0 ~now:5 ~iter:1 (v1 0.);
  Monitor.on_output m ~party:1 ~now:5 ~iter:1 (v1 1.);
  let s = Monitor.summary m in
  Alcotest.(check int) "pairwise distance > eps" 1 (count s "agreement");
  Alcotest.(check (float 1e-9)) "diameter reported" 1. s.Monitor.final_diameter

let test_monitor_double_output () =
  let m = fresh_monitor () in
  Monitor.on_output m ~party:1 ~now:5 ~iter:1 (v1 1.5);
  Monitor.on_output m ~party:1 ~now:6 ~iter:2 (v1 1.5);
  let s = Monitor.summary m in
  Alcotest.(check int) "flagged" 1 (count s "double-output")

let test_monitor_contraction_violation () =
  let m = fresh_monitor () in
  List.iteri
    (fun i x -> Monitor.on_iteration m ~party:i ~now:1 ~iter:0 (v1 x))
    [ 0.; 1.; 2.; 3. ];
  (* iteration-1 value outside the hull of ALL iteration-0 values: the
     deferred re-check in summary must catch it *)
  Monitor.on_iteration m ~party:0 ~now:2 ~iter:1 (v1 5.);
  let s = Monitor.summary m in
  Alcotest.(check int) "flagged" 1 (count s "contraction")

let test_monitor_malformed_honest_message () =
  let m = fresh_monitor () in
  let send msg =
    Monitor.on_trace m (Engine.Sent { src = 0; dst = 1; at = 0; deliver_at = 1; msg })
  in
  send (Message.Junk 9);
  send
    (Message.Rbc
       ( { Message.tag = Message.Obc_value 1; origin = 9 },
         Message.Init,
         Message.Pvec (v1 1.) ));
  send (Message.Sync_round { round = 1; value = Vec.of_list [ 1.; 2. ] });
  let s = Monitor.summary m in
  Alcotest.(check int) "all three flagged" 3 (count s "malformed-message");
  (* a corrupt sender's junk is NOT flagged — only honest senders are held
     to the protocol's message grammar *)
  let m2 = Monitor.create ~cfg:mcfg ~honest:[ 0; 1; 2 ] ~honest_inputs:(List.map v1 [ 0.; 1.; 2. ]) in
  Monitor.on_trace m2
    (Engine.Sent { src = 3; dst = 1; at = 0; deliver_at = 1; msg = Message.Junk 9 });
  Alcotest.(check int) "corrupt junk ignored" 0
    (Monitor.total_violations (Monitor.summary m2))

(* --- Soak end-to-end --- *)

let test_soak_real_protocol_clean () =
  let config = { Soak.default with Soak.cases = 8; seed = 42L; domains = 1 } in
  let o = Soak.execute config in
  Alcotest.(check int) "all cases ran" 8 o.Soak.total;
  Alcotest.(check int) "zero violations" 0 o.Soak.violations_total;
  Alcotest.(check int) "no honest party missing an output" 0 o.Soak.missing_outputs;
  Alcotest.(check bool) "checks performed" true (o.Soak.checks > 0);
  Alcotest.(check bool) "worst diameter within eps" true
    (o.Soak.worst_diameter <= o.Soak.worst_diameter_eps +. 1e-9)

let test_soak_deterministic_across_domains () =
  let config = { Soak.default with Soak.cases = 6; seed = 9L } in
  let j1 = Soak.to_json config (Soak.execute { config with Soak.domains = 1 }) in
  let j2 = Soak.to_json config (Soak.execute { config with Soak.domains = 2 }) in
  Alcotest.(check string) "byte-identical report" j1 j2

let count_outcome (o : Soak.outcome) name =
  match List.assoc_opt name o.Soak.counts with Some c -> c | None -> 0

let test_soak_catches_mutants () =
  List.iter
    (fun (m, expected_invariant) ->
      let config =
        {
          Soak.default with
          Soak.cases = 2;
          seed = 3L;
          domains = 1;
          protocol =
            Scenario.Maaa { Party.default_opts with mutant = Some m };
        }
      in
      let o = Soak.execute config in
      Alcotest.(check bool)
        (Scenario.Spec.(to_string mutant (Some m)) ^ " detected")
        true
        (o.Soak.violations_total > 0);
      Alcotest.(check bool)
        ("invariant " ^ expected_invariant ^ " flagged")
        true
        (count_outcome o expected_invariant > 0);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "shrink reached a fixpoint" true
            v.Soak.vd_case.Case.minimal;
          (* the protocol itself is broken, so the minimal reproducing
             fault plan is the empty one *)
          Alcotest.(check (list string)) "shrunk to the empty plan" []
            (Fault_plan.to_strings v.Soak.vd_case.Case.shrunk_plan))
        o.Soak.violating)
    [
      (Party.Non_contracting_update, "validity");
      (Party.Premature_output, "agreement");
    ]

let test_soak_scenarios_reproducible () =
  let config = { Soak.default with Soak.cases = 12; seed = 5L } in
  let fingerprint (s : Scenario.t) =
    ( s.Scenario.name,
      s.Scenario.seed,
      s.Scenario.sync_network,
      List.map fst s.Scenario.corruptions,
      Option.map Fault_plan.to_strings s.Scenario.chaos )
  in
  let a = List.map fingerprint (Soak.build_scenarios config) in
  let b = List.map fingerprint (Soak.build_scenarios config) in
  Alcotest.(check bool) "same seed, same case grid" true (a = b);
  let c =
    List.map fingerprint (Soak.build_scenarios { config with Soak.seed = 6L })
  in
  Alcotest.(check bool) "different seed, different grid" true (a <> c)

(* An EW sweep silences only the ΠAA-only draws ({!Behavior.needs_maaa});
   crash, lag, poison and spam run on EW itself. The silencing happens
   after the draws: names, seeds, sync flags and the corrupted parties
   are pinned to the grid drawn before that rule, and the behaviours to
   the draws that survive it. *)
let test_soak_ew_corruptions_silent () =
  let config =
    { Soak.default with Soak.cases = 12; seed = 5L; protocol = Scenario.Ew }
  in
  let grid = Soak.build_scenarios config in
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun (p, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s party %d protocol-free" s.Scenario.name p)
            false (Behavior.needs_maaa b))
        s.Scenario.corruptions)
    grid;
  Alcotest.(check (list (list string)))
    "drawn behaviours, ΠAA-only ones silenced"
    [
      []; [ "spam:period=3,bytes=102,until=222" ]; []; [ "lagger:350" ];
      [ "silent" ]; [ "spam:period=4,bytes=245,until=118" ]; [];
      [ "lagger:133"; "silent" ]; []; [ "silent"; "silent" ]; [];
      [ "lagger:224"; "crash@255" ];
    ]
    (List.map
       (fun (s : Scenario.t) ->
         List.map (fun (_, b) -> Fault_plan.behavior_to_string b) s.Scenario.corruptions)
       grid);
  let pinned =
    [
      (-1775295754246911067L, []); (4526775184652458095L, [ 0 ]);
      (8456396775057237488L, []); (-608758432333017832L, [ 4 ]);
      (-4911657591812961201L, [ 6 ]); (8013438923489089939L, [ 4 ]);
      (-6009316638275050510L, []); (-4849781702076001881L, [ 0; 8 ]);
      (-8056477796056711115L, []); (-8687408945578808554L, [ 4; 5 ]);
      (-7577583799249249848L, []); (-7027930524764524572L, [ 2; 0 ]);
    ]
  in
  Alcotest.(check bool) "names, seeds, sync flags and parties as drawn" true
    (List.mapi
       (fun i (seed, parties) ->
         (Printf.sprintf "soak-%04d" i, seed, i mod 2 = 0, parties))
       pinned
    = List.map
        (fun (s : Scenario.t) ->
          ( s.Scenario.name,
            s.Scenario.seed,
            s.Scenario.sync_network,
            List.map fst s.Scenario.corruptions ))
        grid)

(* --- Watchdog, journal and resume --- *)

let test_runner_watchdog_structured () =
  (* the per-case event budget lands as a structured termination, not an
     exception (test_sim pins Engine.run's own raise) *)
  let scen =
    List.hd (Soak.build_scenarios { Soak.default with Soak.cases = 1; seed = 4L })
  in
  let tiny =
    {
      scen with
      Scenario.budget = { Scenario.max_events = Some 50; wall_seconds = None };
    }
  in
  let r = Runner.run tiny in
  Alcotest.(check string)
    "structured budget exhaustion" "budget-exhausted"
    (Runner.termination_to_string r.Runner.termination);
  Alcotest.(check int) "stopped exactly at the budget" 50
    r.Runner.stats.Engine.events_processed;
  let full = Runner.run scen in
  Alcotest.(check string)
    "a normal case completes" "completed"
    (Runner.termination_to_string full.Runner.termination)

(* One case line, every codec path: plans from Fault_gen plus one atom of
   every kind with hex-exact floats, schedules including [], and free-form
   spec strings over the characters the escaping must survive. The same
   case rides in a soak violating and quarantined row, next to a clean
   row, so the journal's own fields round-trip through one codec too. *)
let cfg8 = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

let every_atom x =
  let v y = Vec.of_list [ x; y ] in
  [
    Fault_plan.Corrupt_at
      { tick = 3; party = 1; behavior = Behavior.Honest_with_input (v 0.1) };
    Fault_plan.Corrupt_at
      {
        tick = 0;
        party = 4;
        behavior =
          Behavior.Equivocate_split
            {
              values = (v (1. /. 3.), v (-2.5));
              assign = [| 0; 1; 1; 0; 0; 0; 1; 0 |];
            };
      };
    Fault_plan.Partition
      { from_tick = 2; until_tick = 9; group_of = [| 0; 0; 1; 1; 0; 1; 0; 1 |] };
    Fault_plan.Delay_spike { from_tick = 0; until_tick = 5; factor = 3 };
    Fault_plan.Duplicate { from_tick = 1; until_tick = 6; percent = 35 };
    Fault_plan.Reorder { from_tick = 4; until_tick = 12; window = 5 };
  ]

let gen_case =
  let open QCheck.Gen in
  let spec_char = oneofl [ 'a'; ' '; '='; '\t'; '%'; '~'; '\x1f'; '\n'; '.'; '|' ] in
  let plan =
    map2
      (fun seed x ->
        Fault_gen.sample (Rng.create (Int64.of_int seed)) ~cfg:cfg8 ~sync:true
          ~existing:[] ~horizon:200
        @ every_atom x)
      (int_bound 1_000_000) (float_range (-1e3) 1e3)
  in
  let schedule = list_size (int_bound 4) (int_bound 5) in
  let verdict =
    oneof
      [
        return Case.Incomplete;
        map (fun l -> Case.Violates l)
          (list_size (int_bound 3) (oneofl [ "validity"; "agreement"; "liveness" ]));
      ]
  in
  map
    (fun ((spec, plan, schedule, verdict), (shrunk_schedule, tries, minimal)) ->
      {
        Case.spec;
        plan;
        schedule;
        verdict;
        shrunk_plan = List.filteri (fun i _ -> i mod 2 = 0) plan;
        shrunk_schedule;
        tries;
        minimal;
      })
    (pair
       (quad (string_size ~gen:spec_char (int_bound 12)) plan schedule verdict)
       (triple schedule nat bool))

let prop_case_line_roundtrip =
  QCheck.Test.make ~name:"case line round-trip" ~count:200
    (QCheck.make ~print:(fun c -> Case.line "case" (Case.to_fields c)) gen_case)
    (fun c ->
      let line = Case.line "case" (Case.to_fields c) in
      if String.contains line '\n' then QCheck.Test.fail_report "newline in a line";
      let cr status =
        {
          Soak.cr_index = 3;
          cr_sync = false;
          cr_checks = 12345;
          cr_counts = [ 0; 1; 2; 0; 5 ];
          cr_missing = 1;
          cr_pfail = 2;
          cr_diameter = 0.1 +. 0.2;  (* not exactly representable: %h must hold *)
          cr_eps = 0.05;
          cr_status = status;
        }
      in
      let abnormal =
        match c.Case.verdict with
        | Case.Violates _ ->
            Soak.Violating
              {
                vd_seed = -77L;
                vd_case = c;
                vd_total = 4;
                vd_first = [ c.Case.spec; "" ];
              }
        | Case.Incomplete ->
            Soak.Quarantined { qd_seed = 9L; qd_case = c; qd_reason = c.Case.spec }
      in
      let rows = [ cr Soak.Clean; cr abnormal ] in
      Result.bind (Case.parse_line line) (fun (_, fs) -> Case.of_fields fs) = Ok c
      && List.for_all (fun r -> Soak.parse_case (Soak.render_case r) = Ok r) rows)

let test_soak_stuck_case_quarantined () =
  (* case 1 is replaced by an unbounded spammer: the event-budget watchdog
     must stop and quarantine it while the other cases grade normally *)
  let config =
    {
      Soak.default with
      Soak.cases = 4;
      seed = 11L;
      domains = 1;
      case_events = 300_000;
      stuck = Some 1;
    }
  in
  let o = Soak.execute config in
  Alcotest.(check int) "all cases accounted for" 4 o.Soak.total;
  Alcotest.(check int) "one quarantined" 1 (List.length o.Soak.quarantined);
  let r, q = List.hd o.Soak.quarantined in
  Alcotest.(check int) "the injected case" 1 r.Soak.cr_index;
  Alcotest.(check bool) "reason names the event budget" true
    (String.length q.Soak.qd_reason >= 16
    && String.sub q.Soak.qd_reason 0 16 = "budget-exhausted");
  (* the stuck case carries no chaos plan, so the shrunk repro is the
     empty plan — stuck-ness is attributed to the scenario itself *)
  Alcotest.(check (list string)) "trivial minimal repro" []
    (Fault_plan.to_strings q.Soak.qd_case.Case.shrunk_plan);
  Alcotest.(check bool) "shrink converged" true q.Soak.qd_case.Case.minimal;
  (* quarantine is not a violation, and the truncated run's monitor data
     stays out of the aggregates *)
  Alcotest.(check int) "no violations" 0 o.Soak.violations_total;
  let clean = Soak.execute { config with Soak.stuck = None } in
  Alcotest.(check int) "without injection nothing is quarantined" 0
    (List.length clean.Soak.quarantined)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let test_soak_resume_byte_identical () =
  let config = { Soak.default with Soak.cases = 6; seed = 9L; domains = 1 } in
  let tmp = Filename.temp_file "soak" ".journal" in
  let json_full = Soak.to_json config (Soak.execute ~journal:tmp config) in
  (* simulate a SIGKILL after 3 cases: header, 3 complete records, and a
     torn half-record with no sentinel and no trailing newline *)
  (match read_lines tmp with
  | header :: c0 :: c1 :: c2 :: c3 :: _ ->
      let oc = open_out tmp in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        [ header; c0; c1; c2 ];
      output_string oc (String.sub c3 0 (String.length c3 - 4));
      close_out oc
  | _ -> Alcotest.fail "journal shorter than expected");
  (* resume on a different domain count: the torn record re-runs, the
     rest replay from the journal, and the report is byte-identical *)
  let o2 = Soak.execute ~journal:tmp ~resume:true { config with Soak.domains = 4 } in
  Alcotest.(check string) "resumed = uninterrupted" json_full
    (Soak.to_json config o2);
  (* the journal is now complete: resuming again re-runs nothing (pure
     replay) and still reproduces the document *)
  let o3 = Soak.execute ~journal:tmp ~resume:true config in
  Alcotest.(check string) "pure replay = uninterrupted" json_full
    (Soak.to_json config o3);
  Sys.remove tmp

let test_soak_resume_rejects_mismatch () =
  let config = { Soak.default with Soak.cases = 2; seed = 21L; domains = 1 } in
  let tmp = Filename.temp_file "soak" ".journal" in
  ignore (Soak.execute ~journal:tmp config);
  (* a journal from a different sweep configuration must be refused, not
     silently replayed into the wrong report *)
  (try
     ignore (Soak.execute ~journal:tmp ~resume:true { config with Soak.seed = 22L });
     Alcotest.fail "mismatched journal accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Soak.execute ~resume:true config);
     Alcotest.fail "resume without a journal accepted"
   with Invalid_argument _ -> ());
  Sys.remove tmp;
  (try
     ignore (Soak.execute ~journal:tmp ~resume:true config);
     Alcotest.fail "missing journal accepted"
   with Invalid_argument _ -> ())

(* A journal of the previous schema (maaa-soak-journal/2, written before
   soak and explore shared one case file) is refused with one line, not
   resumed into the wrong report. *)
let test_soak_resume_rejects_old_schema () =
  let config = { Soak.default with Soak.cases = 2; seed = 21L; domains = 1 } in
  let tmp = Filename.temp_file "soak" ".journal" in
  let oc = open_out tmp in
  List.iter
    (fun l ->
      output_string oc (String.concat "\t" l);
      output_char oc '\n')
    [
      [ "maaa-soak-journal/2"; "seed=21"; "cases=2"; "mutant=none";
        "events=10000000"; "wall=0x1.2cp+8"; "retries=1"; "stuck=none";
        "max_shrink=200"; "layer=interned"; "protocol=maaa"; "transport=sim" ];
      [ "c"; "1"; "soak-0001"; "-5845645704775730997"; "0"; "47663";
        "0,0,0,0,0"; "0"; "0"; "0x0p+0"; "0x1.999999999999ap-5";
        "duplicate{[339,356);10%25}"; "ok"; "." ];
    ];
  close_out oc;
  (match Soak.execute ~journal:tmp ~resume:true config with
  | _ -> Alcotest.fail "old journal accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "one line naming the schema"
        (Printf.sprintf
           "Soak.execute: journal %s has schema maaa-soak-journal/2, \
            expected maaa-case/1"
           tmp)
        msg);
  Sys.remove tmp

(* A damaged row — counts cut to 4 of the 5 invariants — is dropped and
   its case re-runs, so the resumed report is the uninterrupted one. *)
let test_soak_resume_short_counts () =
  let config = { Soak.default with Soak.cases = 4; seed = 9L; domains = 1 } in
  let tmp = Filename.temp_file "soak" ".journal" in
  let json_full = Soak.to_json config (Soak.execute ~journal:tmp config) in
  let cut_counts field =
    match String.split_on_char '=' field with
    | [ "counts"; v ] ->
        let counts = String.split_on_char ',' v in
        "counts=" ^ String.concat "," (List.filteri (fun i _ -> i < 4) counts)
    | _ -> field
  in
  (match read_lines tmp with
  | header :: r0 :: r1 :: rest ->
      let damaged =
        String.concat "\t" (List.map cut_counts (String.split_on_char '\t' r1))
      in
      Alcotest.(check bool) "row damaged" true (damaged <> r1);
      let oc = open_out tmp in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (header :: r0 :: damaged :: rest);
      close_out oc
  | _ -> Alcotest.fail "journal shorter than expected");
  let o = Soak.execute ~journal:tmp ~resume:true config in
  Alcotest.(check string) "resumed = uninterrupted" json_full
    (Soak.to_json config o);
  Sys.remove tmp

let () =
  Alcotest.run "chaos"
    [
      ( "fault plan",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "generator deterministic" `Quick
            test_gen_deterministic;
          Alcotest.test_case "generator respects async budget" `Quick
            test_gen_respects_async_budget;
          Alcotest.test_case "sync compile bounded by delta" `Quick
            test_compile_sync_bounded_by_delta;
          Alcotest.test_case "async compile finite" `Quick
            test_compile_async_finite_and_positive;
          Alcotest.test_case "partition heals" `Quick
            test_compile_partition_holds_until_heal;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "synthetic predicate" `Quick
            test_shrink_synthetic_predicate;
          Alcotest.test_case "try budget" `Quick test_shrink_respects_try_budget;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Quick test_monitor_clean_run;
          Alcotest.test_case "validity" `Quick test_monitor_validity_violation;
          Alcotest.test_case "agreement" `Quick test_monitor_agreement_violation;
          Alcotest.test_case "double output" `Quick test_monitor_double_output;
          Alcotest.test_case "contraction" `Quick
            test_monitor_contraction_violation;
          Alcotest.test_case "malformed messages" `Quick
            test_monitor_malformed_honest_message;
        ] );
      ( "soak",
        [
          Alcotest.test_case "real protocol clean" `Slow
            test_soak_real_protocol_clean;
          Alcotest.test_case "domains byte-identical" `Slow
            test_soak_deterministic_across_domains;
          Alcotest.test_case "mutants caught + shrunk" `Slow
            test_soak_catches_mutants;
          Alcotest.test_case "case grid reproducible" `Quick
            test_soak_scenarios_reproducible;
          Alcotest.test_case "EW corruptions silent" `Quick
            test_soak_ew_corruptions_silent;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "runner watchdog structured" `Quick
            test_runner_watchdog_structured;
          QCheck_alcotest.to_alcotest prop_case_line_roundtrip;
          Alcotest.test_case "stuck case quarantined" `Slow
            test_soak_stuck_case_quarantined;
          Alcotest.test_case "kill + resume byte-identical" `Slow
            test_soak_resume_byte_identical;
          Alcotest.test_case "resume validation" `Slow
            test_soak_resume_rejects_mismatch;
          Alcotest.test_case "resume refuses a /2 journal" `Slow
            test_soak_resume_rejects_old_schema;
          Alcotest.test_case "resume re-runs short counts" `Slow
            test_soak_resume_short_counts;
        ] );
    ]
