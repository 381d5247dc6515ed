(* Tests for the Byzantine behaviour strategies: each must be contained by
   the protocol within its corruption budget, and each must actually do
   what it claims (observable through the runner's metrics). *)

let cfg = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

let inputs =
  List.init 8 (fun i ->
      Vec.of_list [ float_of_int (i mod 4); float_of_int (i mod 3) ])

let run ?(seed = 21L) ?policy ?(sync_network = true) corruptions =
  Runner.run
    (Scenario.make ~seed ?policy ~sync_network ~corruptions ~cfg ~inputs ())

let assert_contained name r =
  if not (Runner.passed r) then
    Alcotest.failf "%s: protocol properties violated (live=%b valid=%b agree=%b)"
      name r.Runner.live r.Runner.valid r.Runner.agreement

let test_silent () = assert_contained "silent" (run [ (0, Behavior.Silent); (4, Behavior.Silent) ])

let test_crash_spectrum () =
  (* crash at several protocol phases: during init, between init and the
     first iteration, and deep into the iterations *)
  List.iter
    (fun tick ->
      assert_contained
        (Printf.sprintf "crash at %d" tick)
        (run [ (2, Behavior.Crash_at tick); (6, Behavior.Crash_at (tick + 17)) ]))
    [ 5; 40; 82; 130 ]

let test_poison_both_slots () =
  let far1 = Vec.of_list [ 1e4; 1e4 ] and far2 = Vec.of_list [ -1e4; 1e4 ] in
  assert_contained "double poison"
    (run
       [ (1, Behavior.Honest_with_input far1); (5, Behavior.Honest_with_input far2) ])

let test_equivocator_contained () =
  List.iter
    (fun seed ->
      assert_contained "equivocator"
        (Runner.run
           (Scenario.make ~seed ~cfg ~inputs
              ~policy:(Network.sync_uniform ~delta:10)
              ~corruptions:
                [
                  ( 3,
                    Behavior.Equivocate
                      (Vec.of_list [ 77.; 0. ], Vec.of_list [ 0.; 77. ]) );
                ]
              ())))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_halt_liar_cannot_force_early_output () =
  (* even ts halt liars are one short of the ts + 1 threshold *)
  let r = run [ (0, Behavior.Halt_liar 1); (4, Behavior.Halt_liar 1) ] in
  assert_contained "halt liars" r;
  (* honest halts still dictate it_h >= 1, and outputs happen at an
     iteration every honest party completed *)
  List.iter
    (fun (_, it) ->
      Alcotest.(check bool) "output iteration >= 1" true (it >= 1))
    r.Runner.output_iters

let test_spam_flood () =
  let r =
    run
      [ (7, Behavior.Spam { period = 2; payload_bytes = 256; until = 3000 }) ]
  in
  assert_contained "spam" r;
  Alcotest.(check bool) "junk traffic accounted" true
    (r.Runner.stats.Engine.bytes_sent > 100_000)

let test_lagger_is_tolerated () =
  List.iter
    (fun delay ->
      assert_contained
        (Printf.sprintf "lagger %d" delay)
        (Runner.run
           (Scenario.make ~seed:3L ~cfg ~inputs
              ~policy:(Network.sync_uniform ~delta:10)
              ~corruptions:[ (6, Behavior.Lagger delay) ]
              ())))
    [ 3; 8; 25; 60 ]

let test_lagger_replays_backlog () =
  (* a very late lagger must still terminate: its backlog replay lets it
     catch up with the others' reliable broadcasts *)
  let r =
    Runner.run
      (Scenario.make ~seed:4L ~cfg ~inputs
         ~policy:(Network.sync_uniform ~delta:10)
         ~corruptions:[ (6, Behavior.Lagger 200) ]
         ())
  in
  assert_contained "very late lagger" r

let test_garbage_flood () =
  (* structurally-invalid messages land mid-Pi_init and mid-iteration; the
     validation paths must drop them without breaking any property *)
  List.iter
    (fun at ->
      assert_contained
        (Printf.sprintf "garbage at %d" at)
        (run [ (3, Behavior.Garbage at); (6, Behavior.Garbage (at + 30)) ]))
    [ 15; 45; 85 ]

let test_full_budget_mixed () =
  (* one of each kind within the ts = 2 budget, several schedulers *)
  List.iter
    (fun (name, policy, sync) ->
      let r =
        Runner.run
          (Scenario.make ~seed:9L ~cfg ~inputs ~policy ~sync_network:sync
             ~corruptions:
               (if sync then
                  [
                    (1, Behavior.Honest_with_input (Vec.of_list [ 999.; -999. ]));
                    (5, Behavior.Crash_at 55);
                  ]
                else [ (5, Behavior.Silent) ])
             ())
      in
      assert_contained name r)
    [
      ("lockstep", Network.lockstep ~delta:10, true);
      ("rushing", Network.rushing ~delta:10 ~corrupt:(fun i -> i = 1 || i = 5), true);
      ("heavy tail", Network.async_heavy_tail ~base:15, false);
      ( "block pairs",
        Network.async_block
          ~blocked:(fun ~src ~dst -> src = 0 && dst = 3)
          ~release:400 ~fast:3,
        false );
    ]

(* --- boundary ticks --- *)

let test_crash_at_zero () =
  (* crash before doing anything: indistinguishable from Silent *)
  assert_contained "crash at 0"
    (run [ (2, Behavior.Crash_at 0); (6, Behavior.Crash_at 0) ])

let test_crash_exactly_on_timer_ticks () =
  (* under lockstep every protocol timer lands on a multiple of Δ;
     crashing exactly there races the crash against the timer handler *)
  List.iter
    (fun k ->
      assert_contained
        (Printf.sprintf "crash at timer tick %d" (k * 10))
        (Runner.run
           (Scenario.make ~seed:13L ~cfg ~inputs
              ~policy:(Network.lockstep ~delta:10)
              ~corruptions:[ (2, Behavior.Crash_at (k * 10)) ]
              ())))
    [ 1; 3; 8 ]

let test_lagger_after_last_honest_output () =
  (* the lagger joins long after every honest party has output; its
     backlog replay must still leave a terminating, contained run *)
  let r =
    Runner.run
      (Scenario.make ~seed:3L ~cfg ~inputs
         ~policy:(Network.lockstep ~delta:10)
         ~corruptions:[ (6, Behavior.Lagger 5000) ]
         ())
  in
  assert_contained "lagger after last output" r;
  List.iter
    (fun (_, t) ->
      Alcotest.(check bool) "honest outputs precede the join" true (t < 5000))
    r.Runner.output_times

let test_lagger_replay_liveness_minimal () =
  (* n = 2, ts = 0: reliable broadcast needs BOTH parties' echoes, so
     party 0 can only output thanks to messages party 1 queued while
     "offline" and replayed at its join — pins the replay-queue
     semantics (a dropping lagger would deadlock this run) *)
  let cfg = Config.make_exn ~n:2 ~ts:0 ~ta:0 ~d:1 ~eps:0.1 ~delta:10 in
  let inputs = [ Vec.of_list [ 0. ]; Vec.of_list [ 1. ] ] in
  let r =
    Runner.run
      (Scenario.make ~seed:5L ~cfg ~inputs
         ~policy:(Network.lockstep ~delta:10)
         ~corruptions:[ (1, Behavior.Lagger 70) ]
         ())
  in
  Alcotest.(check bool) "party 0 outputs despite the late peer" true
    r.Runner.live

(* --- golden pins: the protocol-free behaviours under ΠAA --- *)

(* Crash, lag and spam reach the engine only through the party's
   endpoint, so these runs must keep every bit: outputs as hex floats, a
   digest of the graded histories, the message count, and which parties
   still hold a handler when the run ends. *)
let golden scenario =
  let engine = ref None in
  let r = Runner.run ~on_engine:(fun e -> engine := Some e) scenario in
  let e = Option.get !engine in
  let hex v = String.concat "," (List.map (Printf.sprintf "%h") (Vec.to_list v)) in
  let outputs =
    String.concat ";"
      (List.map (fun (i, v) -> Printf.sprintf "%d:%s" i (hex v)) r.Runner.outputs)
  in
  let histories =
    List.map
      (fun (i, h) ->
        Printf.sprintf "%d:%s" i
          (String.concat "|"
             (List.map (fun (it, v) -> Printf.sprintf "%d=%s" it (hex v)) h)))
      r.Runner.histories
  in
  let handlers =
    String.init (Engine.n e) (fun i -> if Engine.has_handler e i then '1' else '0')
  in
  ( outputs,
    Digest.to_hex (Digest.string (String.concat ";" histories)),
    r.Runner.stats.Engine.messages_sent,
    handlers )

let golden_scenarios =
  let corrupt tick party behavior = Fault_plan.Corrupt_at { tick; party; behavior } in
  [
    ( "crash",
      Scenario.make ~seed:21L ~cfg ~inputs
        ~corruptions:[ (2, Behavior.Crash_at 40); (6, Behavior.Crash_at 82) ]
        () );
    ( "crash at 0",
      Scenario.make ~seed:21L ~cfg ~inputs
        ~corruptions:[ (2, Behavior.Crash_at 0) ] () );
    (* lockstep deliveries land on ticks 10k + 1: these crash ticks race
       the gate against deliveries *)
    ( "crash on delivery ticks",
      Scenario.make ~seed:21L ~cfg ~inputs
        ~corruptions:[ (2, Behavior.Crash_at 41); (6, Behavior.Crash_at 51) ]
        () );
    ( "lagger",
      Scenario.make ~seed:3L ~cfg ~inputs
        ~policy:(Network.sync_uniform ~delta:10)
        ~corruptions:[ (6, Behavior.Lagger 25) ] () );
    ( "lagger after outputs",
      Scenario.make ~seed:3L ~cfg ~inputs
        ~corruptions:[ (6, Behavior.Lagger 5000) ] () );
    ( "spam",
      Scenario.make ~seed:21L ~cfg ~inputs
        ~corruptions:
          [ (7, Behavior.Spam { period = 2; payload_bytes = 256; until = 3000 }) ]
        () );
    ( "adaptive lagger + crash",
      Scenario.make ~seed:8L ~cfg ~inputs
        ~policy:(Network.sync_uniform ~delta:10)
        ~chaos:[ corrupt 30 1 (Behavior.Lagger 10); corrupt 50 5 (Behavior.Crash_at 70) ]
        () );
    ( "adaptive spam, async",
      Scenario.make ~seed:5L ~cfg ~inputs ~sync_network:false
        ~policy:(Network.async_heavy_tail ~base:10)
        ~chaos:
          [ corrupt 20 3 (Behavior.Spam { period = 5; payload_bytes = 32; until = 400 }) ]
        () );
    ( "poison + silent",
      Scenario.make ~seed:9L ~cfg ~inputs
        ~corruptions:
          [ (1, Behavior.Honest_with_input (Vec.of_list [ 999.; -999. ])); (5, Behavior.Silent) ]
        () );
    ( "batched, adaptive crash + lagger",
      Scenario.make ~seed:6L ~cfg ~inputs
        ~protocol:(Scenario.Maaa { Party.default_opts with layer = Party.Batched })
        ~policy:(Network.sync_uniform ~delta:10)
        ~corruptions:[ (6, Behavior.Lagger 25) ]
        ~chaos:[ corrupt 40 4 (Behavior.Crash_at 90) ]
        () );
  ]

let golden_expected =
  [
    ( "crash",
      ("0:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "1:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "3:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "4:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "5:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "7:0x1.8p+0,0x1.aaaaaaaaaaaaap-1",
       "806c30e1a744d445c85b4b3924c5fc38", 4128, "11111111") );
    ( "crash at 0",
      ("0:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "1:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "3:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "4:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "5:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "6:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "7:0x1.8p+0,0x1.aaaaaaaaaaaaap-1",
       "92d033c1b53a0c856a7435a7dc43222f", 4432, "11111111") );
    ( "crash on delivery ticks",
      ("0:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "1:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "3:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "4:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "5:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "7:0x1.8p+0,0x1.aaaaaaaaaaaaap-1",
       "806c30e1a744d445c85b4b3924c5fc38", 4080, "11111111") );
    ( "lagger",
      ("0:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "1:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "2:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "3:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "4:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "5:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "7:0x1.8p+0,0x1.b6db6db6db6dcp-1",
       "bbb0613a56bceeb3ba241bb6db9bb9d3", 5568, "11111111") );
    ( "lagger after outputs",
      ("0:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "1:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "2:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "3:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "4:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "5:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "7:0x1.8p+0,0x1.b6db6db6db6dcp-1",
       "bbb0613a56bceeb3ba241bb6db9bb9d3", 5568, "11111111") );
    ( "spam",
      ("0:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "1:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "2:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "3:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "4:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "5:0x1.5555555555555p+0,0x1.5555555555555p-1;" ^
        "6:0x1.5555555555555p+0,0x1.5555555555555p-1",
       "36e74fed5fcff8efa432d05b13f5e2d8", 16312, "11111111") );
    ( "adaptive lagger + crash",
      ("0:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "2:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "3:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "4:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "6:0x1.8p+0,0x1.aaaaaaaaaaaaap-1;" ^
        "7:0x1.8p+0,0x1.aaaaaaaaaaaaap-1",
       "6d30258d39de6aa1d14d4d0466a6cedf", 4384, "11111111") );
    ( "adaptive spam, async",
      ("0:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "1:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "2:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "4:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "5:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "6:0x1.5dddddddddddep+0,0x1.e222222222223p-1;" ^
        "7:0x1.5dddddddddddep+0,0x1.e222222222223p-1",
       "55b0ece935aa4a8747b1413c3102718d", 40856, "11111111") );
    ( "poison + silent",
      ("0:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3;" ^
        "2:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3;" ^
        "3:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3;" ^
        "4:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3;" ^
        "6:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3;" ^
        "7:0x1.bff7cdcc84acap+0,0x1.ffbe6e642565p-3",
       "472e4f48966bb0938659a761de10adc9", 4312, "11111011") );
    ( "batched, adaptive crash + lagger",
      ("0:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "1:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "2:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "3:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "5:0x1.8p+0,0x1.b6db6db6db6dcp-1;" ^
        "7:0x1.8p+0,0x1.b6db6db6db6dcp-1",
       "c3fa49bd96b584e0c0c86bb67b041841", 3448, "11111111") );
  ]

let test_golden () =
  List.iter
    (fun (name, s) ->
      let outputs, histories, msgs, handlers = golden s in
      let e_outputs, e_histories, e_msgs, e_handlers =
        List.assoc name golden_expected
      in
      Alcotest.(check string) (name ^ ": outputs") e_outputs outputs;
      Alcotest.(check string) (name ^ ": histories") e_histories histories;
      Alcotest.(check int) (name ^ ": messages sent") e_msgs msgs;
      Alcotest.(check string) (name ^ ": handlers") e_handlers handlers)
    golden_scenarios

(* --- the protocol-free behaviours under the other protocols --- *)

let other_protocols =
  let rounds = Baseline_runner.rounds_for ~eps:cfg.Config.eps ~inputs in
  [
    ("ew", Scenario.Ew);
    ("pure-sync", Scenario.Pure_sync { rounds });
    ("pure-async", Scenario.Pure_async { iters = rounds });
  ]

let free_behaviours =
  [
    ("crash", [ (2, Behavior.Crash_at 15) ]);
    ("crash at 0", [ (2, Behavior.Crash_at 0) ]);
    ("lagger", [ (6, Behavior.Lagger 25) ]);
    ("late lagger", [ (6, Behavior.Lagger 400) ]);
    ( "spam",
      [ (7, Behavior.Spam { period = 2; payload_bytes = 64; until = 300 }) ] );
    ( "poison + silent",
      [ (1, Behavior.Honest_with_input (Vec.of_list [ 50.; -50. ])) ] );
  ]

(* Each run stays live, valid and agreeing, and a crashed party sends
   nothing after its tick. *)
let test_other_protocols () =
  List.iter
    (fun (pname, protocol) ->
      List.iter
        (fun (bname, corruptions) ->
          let late = ref [] in
          let crash_tick p =
            match List.assoc_opt p corruptions with
            | Some (Behavior.Crash_at tick) -> Some tick
            | _ -> None
          in
          let r =
            Runner.run
              ~tracer:(function
                | Engine.Sent { src; at; _ } -> (
                    match crash_tick src with
                    | Some tick when at > tick -> late := (src, at) :: !late
                    | _ -> ())
                | _ -> ())
              (Scenario.make ~seed:21L ~protocol ~cfg ~inputs ~corruptions ())
          in
          let name = pname ^ " " ^ bname in
          assert_contained name r;
          Alcotest.(check int) (name ^ ": no send after the crash tick") 0
            (List.length !late))
        free_behaviours)
    other_protocols

(* Outside ΠAA, Scenario.make admits exactly the protocol-free
   behaviours, rejects the ΠAA-only ones with one line naming the
   behaviour, and keeps fault-plan corruptions [Silent]-only. *)
let test_other_protocols_admission () =
  let v = Vec.of_list [ 0.; 0. ] in
  let make protocol ?chaos corruptions =
    Scenario.make ~protocol ~sync_network:true ?chaos ~corruptions ~cfg
      ~inputs ()
  in
  List.iter
    (fun (pname, protocol) ->
      List.iter
        (fun b -> ignore (make protocol [ (3, b) ]))
        [
          Behavior.Silent;
          Behavior.Honest_with_input v;
          Behavior.Crash_at 5;
          Behavior.Lagger 5;
          Behavior.Spam { period = 1; payload_bytes = 8; until = 10 };
        ];
      List.iter
        (fun (word, b) ->
          match make protocol [ (3, b) ] with
          | _ -> Alcotest.failf "%s accepted %s" pname word
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: one line naming %s: %s" pname word msg)
                true
                (not (String.contains msg '\n')
                && List.exists
                     (String.starts_with ~prefix:word)
                     (String.split_on_char ' ' msg)))
        [
          ("equivocate", Behavior.Equivocate (v, v));
          ("equivocate", Behavior.Equivocate_split { values = (v, v); assign = [| 1 |] });
          ("halt-liar", Behavior.Halt_liar 1);
          ("garbage", Behavior.Garbage 5);
        ];
      let adaptive b =
        make protocol
          ~chaos:[ Fault_plan.Corrupt_at { tick = 5; party = 3; behavior = b } ]
          []
      in
      ignore (adaptive Behavior.Silent);
      match adaptive (Behavior.Crash_at 9) with
      | _ -> Alcotest.failf "%s accepted an adaptive crash" pname
      | exception Invalid_argument _ -> ())
    other_protocols

let () =
  Alcotest.run "adversary"
    [
      ( "behaviours",
        [
          Alcotest.test_case "silent" `Quick test_silent;
          Alcotest.test_case "crash spectrum" `Quick test_crash_spectrum;
          Alcotest.test_case "double poison" `Quick test_poison_both_slots;
          Alcotest.test_case "equivocator" `Quick test_equivocator_contained;
          Alcotest.test_case "halt liars" `Quick
            test_halt_liar_cannot_force_early_output;
          Alcotest.test_case "spam flood" `Quick test_spam_flood;
          Alcotest.test_case "garbage flood" `Quick test_garbage_flood;
          Alcotest.test_case "lagger tolerated" `Quick test_lagger_is_tolerated;
          Alcotest.test_case "lagger backlog replay" `Quick
            test_lagger_replays_backlog;
          Alcotest.test_case "full budget mixed" `Quick test_full_budget_mixed;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "crash at tick 0" `Quick test_crash_at_zero;
          Alcotest.test_case "crash on timer ticks" `Quick
            test_crash_exactly_on_timer_ticks;
          Alcotest.test_case "lagger after last output" `Quick
            test_lagger_after_last_honest_output;
          Alcotest.test_case "lagger replay liveness (n=2)" `Quick
            test_lagger_replay_liveness_minimal;
        ] );
      ("golden", [ Alcotest.test_case "protocol-free behaviours" `Quick test_golden ]);
      ( "other protocols",
        [
          Alcotest.test_case "crash, lag and spam contained" `Quick
            test_other_protocols;
          Alcotest.test_case "admission" `Quick test_other_protocols_admission;
        ] );
    ]
