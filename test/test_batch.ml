(* The batched message layer and the EW quadratic protocol.

   The batching guarantee mirrors test_intern.ml's: under RNG-free delay
   policies the batched layer changes the packets, never the protocol —
   every logical rBC vote is delivered at exactly the tick the unbatched
   layer would have chosen. So (a) the expanded logical send trace is the
   same multiset, (b) whole Runner.result records agree once the fields
   that intentionally differ (packet/byte counts, traffic rows, monitor
   check tallies) are masked, and (c) the packet count drops by the
   batching factor E14 predicts. *)

let vec l = Vec.of_list l

(* --- Batch buffer unit tests --- *)

let id_ tag origin = { Message.tag; origin }

let test_batch_buffer () =
  let sent = ref [] in
  let b = Batch.create ~send_all:(fun m -> sent := m :: !sent) in
  Batch.flush b;
  Alcotest.(check (list reject)) "empty flush is a no-op" [] !sent;
  Batch.add b (id_ Message.Init_value 3) Message.Init (Message.Pvec (vec [ 1. ]));
  Batch.flush b;
  (match !sent with
  | [ Message.Rbc ({ tag = Message.Init_value; origin = 3; _ }, Message.Init, _) ]
    ->
      ()
  | _ -> Alcotest.fail "singleton flush must send a plain Rbc packet");
  sent := [];
  Batch.add b (id_ Message.Init_value 0) Message.Echo (Message.Pvec (vec [ 1. ]));
  Batch.add b (id_ (Message.Obc_value 2) 1) Message.Ready (Message.Pint 5);
  Batch.flush b;
  (match !sent with
  | [ Message.Rbc_batch entries ] ->
      Alcotest.(check int) "both entries" 2 (List.length entries);
      (match entries with
      | [ (i1, Message.Echo, _); (i2, Message.Ready, _) ] ->
          Alcotest.(check int) "emission order kept" 0 i1.Message.origin;
          Alcotest.(check int) "emission order kept" 1 i2.Message.origin
      | _ -> Alcotest.fail "entries out of order")
  | _ -> Alcotest.fail "multi-entry flush must send one Rbc_batch");
  Alcotest.(check int) "lifetime votes" 3 (Batch.buffered b);
  Alcotest.(check int) "non-empty flushes" 2 (Batch.flushes b);
  Alcotest.(check int) "nothing pending" 0 (Batch.pending b)

(* --- engine end-of-tick flusher --- *)

(* A flusher registered on party 0 buffers sends made during a tick and
   emits them when the engine is about to advance time — so a message
   sent "during" tick 5 still leaves at tick 5, and the flusher runs at
   most once per tick even when several events fire on that tick. *)
let test_engine_flusher () =
  let n = 2 in
  let engine =
    Engine.create ~n ~policy:(fun ~rng:_ ~now:_ ~src:_ ~dst:_ -> 3) ()
  in
  let buffer = ref [] in
  let flush_ticks = ref [] in
  Engine.set_flusher engine 0 (fun ~final:_ ->
      flush_ticks := Engine.now engine :: !flush_ticks;
      List.iter (fun m -> Engine.send engine ~src:0 ~dst:1 m) (List.rev !buffer);
      buffer := []);
  let deliveries = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } ->
          deliveries := (Engine.now engine, msg) :: !deliveries
      | Engine.Timer _ -> ());
  (* two same-tick events at t=5 for party 0, each buffering one message *)
  Engine.set_party engine 0 (fun _ -> buffer := "vote" :: !buffer);
  Engine.set_timer engine ~party:0 ~at:5 ~tag:0;
  Engine.set_timer engine ~party:0 ~at:5 ~tag:1;
  Engine.run engine;
  Alcotest.(check (list (pair int string)))
    "both votes leave at tick 5, delivered at 8"
    [ (8, "vote"); (8, "vote") ]
    (List.rev !deliveries);
  (* ticks where the flusher actually ran and found work: only tick 5
     matters; the queue-drain flush at tick 8 is an empty no-op pass *)
  Alcotest.(check bool) "flusher ran at tick 5" true (List.mem 5 !flush_ticks)

(* --- scenario helpers --- *)

let batched = Party.Batched
let on layer = Scenario.Maaa { Party.default_opts with layer }

let scenario ?(protocol = Scenario.maaa) ?(corruptions = []) ?policy ?(sync_network = true) ~name ~n ~ts ~ta ~d ()
    =
  let cfg = Config.make_exn ~n ~ts ~ta ~d ~eps:0.1 ~delta:10 in
  let inputs =
    List.init n (fun i ->
        Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))
  in
  Scenario.make ~name ~seed:(Int64.of_int ((n * 977) + d)) ~cfg ~inputs
    ?policy ~sync_network ~corruptions ~protocol ()

(* Fields that intentionally differ across layers: packet/byte/event
   counts, traffic rows, and the monitor's per-send check tally. *)
let normalize (r : Runner.result) =
  {
    r with
    Runner.stats =
      {
        r.Runner.stats with
        Engine.messages_sent = 0;
        bytes_sent = 0;
        messages_delivered = 0;
        events_processed = 0;
      };
    traffic = [];
    monitor = Option.map (fun m -> { m with Monitor.checks = 0 }) r.Runner.monitor;
  }

(* --- differential grid: batched vs interned, deterministic policies --- *)

let grid () =
  let poison d = Behavior.Honest_with_input (Vec.make d 50.) in
  List.concat_map
    (fun (d, n, ts, ta) ->
      List.concat_map
        (fun (pname, policy, sync) ->
          List.map
            (fun (bname, corruptions) ->
              ( Printf.sprintf "batch-diff D=%d %s %s" d pname bname,
                fun layer ->
                  scenario ~protocol:(on layer) ~corruptions ~policy
                    ~sync_network:sync
                    ~name:(Printf.sprintf "D=%d %s %s" d pname bname)
                    ~n ~ts ~ta ~d () ))
            [
              ("silent", [ (0, Behavior.Silent) ]);
              ("poison", [ (0, poison d) ]);
            ])
        [
          (* deterministic policies only: batching collapses per-vote
             RNG draws into per-packet draws, so randomised schedules
             diverge (correct but not byte-comparable) *)
          ("lockstep", Network.lockstep ~delta:10, true);
          ( "targeted-slow",
            Network.targeted_slow ~delta:10 ~victims:(fun i -> i = 1),
            false );
        ])
    [ (1, 4, 1, 0); (2, 5, 1, 1); (3, 5, 1, 0) ]

let test_grid_differential () =
  List.iter
    (fun (name, mk) ->
      let a = Runner.run ~monitor:true (mk batched) in
      let b = Runner.run ~monitor:true (mk Party.Interned) in
      Alcotest.(check (option string))
        (name ^ " masked records identical") None
        (Differential.diff_detail (normalize a) (normalize b));
      Alcotest.(check bool)
        (name ^ " batched sends fewer packets") true
        (a.Runner.stats.Engine.messages_sent
        < b.Runner.stats.Engine.messages_sent))
    (grid ())

(* --- expanded logical trace: same vote multiset, same ticks --- *)

let logical_sends layer =
  let n = 5 in
  let cfg = Config.make_exn ~n ~ts:1 ~ta:1 ~d:2 ~eps:0.1 ~delta:10 in
  let inputs =
    List.init n (fun i -> vec [ float_of_int i; float_of_int (i mod 3) ])
  in
  let engine =
    Engine.create ~seed:11L ~size_of:Message.size_of ~n
      ~policy:(Network.lockstep ~delta:10) ()
  in
  let sends = ref [] in
  Engine.set_tracer engine (fun ev ->
      match ev with
      | Engine.Sent { src; dst; at; deliver_at; msg } ->
          let entries =
            match msg with
            | Message.Rbc (id, step, p) -> [ (id, step, p) ]
            | Message.Rbc_batch entries -> entries
            | _ -> []
          in
          List.iter
            (fun e -> sends := (at, deliver_at, src, dst, e) :: !sends)
            entries
      | _ -> ());
  let parties =
    List.init n (fun i ->
        Party.attach ~opts:{ Party.default_opts with layer } ~cfg ~me:i engine)
  in
  List.iteri (fun i p -> Party.start p (List.nth inputs i)) parties;
  Engine.run engine;
  (List.sort compare !sends, List.map Party.output parties)

let test_logical_trace () =
  let sa, oa = logical_sends batched in
  let sb, ob = logical_sends Party.Interned in
  Alcotest.(check int) "same number of logical votes" (List.length sb)
    (List.length sa);
  Alcotest.(check bool)
    "every vote leaves and lands at the reference layer's ticks" true
    (compare sa sb = 0);
  Alcotest.(check bool) "outputs equal" true (compare oa ob = 0)

(* --- the message wall: ≥3× packet reduction at n = 12 --- *)

let msgs_of s = (Runner.run s).Runner.stats.Engine.messages_sent

let test_reduction_n12 () =
  let reference =
    msgs_of (scenario ~name:"ref n12" ~n:12 ~ts:2 ~ta:1 ~d:2 ())
  in
  let batched =
    msgs_of
      (scenario ~protocol:(on batched) ~name:"batched n12" ~n:12 ~ts:2 ~ta:1
         ~d:2 ())
  in
  let ratio = float_of_int reference /. float_of_int batched in
  Alcotest.(check bool)
    (Printf.sprintf "(%d / %d = %.1fx) >= 3x" reference batched ratio)
    true (ratio >= 3.)

(* --- EW protocol --- *)

let test_ew_converges () =
  let r =
    Runner.run ~monitor:true
      (scenario ~protocol:Scenario.Ew ~name:"ew honest" ~n:8 ~ts:2 ~ta:1 ~d:2 ())
  in
  Alcotest.(check bool) "live" true r.Runner.live;
  Alcotest.(check bool) "valid" true r.Runner.valid;
  Alcotest.(check bool) "agreement" true r.Runner.agreement;
  match r.Runner.monitor with
  | Some m -> Alcotest.(check int) "no violations" 0 (List.length m.Monitor.violations)
  | None -> Alcotest.fail "monitor summary missing"

let test_ew_silent_corruption () =
  let r =
    Runner.run ~monitor:true
      (scenario ~protocol:Scenario.Ew ~corruptions:[ (3, Behavior.Silent) ]
         ~policy:(Network.targeted_slow ~delta:10 ~victims:(fun i -> i = 2))
         ~sync_network:false ~name:"ew silent" ~n:8 ~ts:2 ~ta:1 ~d:2 ())
  in
  Alcotest.(check bool) "live" true r.Runner.live;
  Alcotest.(check bool) "valid" true r.Runner.valid;
  Alcotest.(check bool) "agreement" true r.Runner.agreement;
  match r.Runner.monitor with
  | Some m -> Alcotest.(check int) "no violations" 0 (List.length m.Monitor.violations)
  | None -> Alcotest.fail "monitor summary missing"

(* Messages per run ~ Θ(n²): quadrupling n should ×16 the messages, give
   or take the iteration count; the cubic protocol would give ×64. *)
let test_ew_quadratic () =
  let msgs n =
    msgs_of (scenario ~protocol:Scenario.Ew ~name:"ew sweep" ~n ~ts:2 ~ta:1 ~d:2 ())
  in
  let m8 = msgs 8 and m32 = msgs 32 in
  let ratio = float_of_int m32 /. float_of_int m8 in
  Alcotest.(check bool)
    (Printf.sprintf "m32/m8 = %.1f in [8, 40]" ratio)
    true
    (ratio >= 8. && ratio <= 40.)

(* A poisoner under EW runs EW on its chosen input: the party's own
   sends are EW values, echo claims and reports, never ΠAA traffic. *)
let test_ew_poisoner_runs_ew () =
  let sends = ref [] in
  let far = Vec.of_list [ 50.; -50. ] in
  ignore
    (Runner.run
       ~tracer:(function
         | Engine.Sent { src = 3; msg; _ } -> sends := msg :: !sends
         | _ -> ())
       (scenario ~protocol:Scenario.Ew
          ~corruptions:[ (3, Behavior.Honest_with_input far) ]
          ~name:"ew poison" ~n:8 ~ts:2 ~ta:1 ~d:2 ()));
  Alcotest.(check bool) "the poisoner broadcasts its input as an EW value"
    true
    (List.exists
       (function
         | Message.Ew_value { iter = 1; value } -> Vec.equal_exact value far
         | _ -> false)
       !sends);
  Alcotest.(check bool) "and sends nothing but EW values, echoes and reports"
    true
    (List.for_all
       (function
         | Message.Ew_value _ | Message.Ew_echo _ | Message.Ew_report _ -> true
         | _ -> false)
       !sends)

(* A behaviour that needs ΠAA internals cannot run under EW: the
   scenario cannot be built. *)
let test_ew_rejects_equivocator () =
  let v = Vec.of_list [ 0.; 0. ] in
  match
    scenario ~protocol:Scenario.Ew
      ~corruptions:[ (3, Behavior.Equivocate (v, v)) ]
      ~name:"ew equivocator" ~n:8 ~ts:2 ~ta:1 ~d:2 ()
  with
  | _ -> Alcotest.fail "an equivocator under EW was accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names the behaviour: " ^ msg) true
        (List.exists
           (String.starts_with ~prefix:"equivocate")
           (String.split_on_char ' ' msg))

let () =
  Alcotest.run "batch"
    [
      ( "batch buffer",
        [
          Alcotest.test_case "encoder" `Quick test_batch_buffer;
          Alcotest.test_case "engine end-of-tick flusher" `Quick
            test_engine_flusher;
        ] );
      ( "differential",
        [
          Alcotest.test_case "grid: masked records byte-identical" `Quick
            test_grid_differential;
          Alcotest.test_case "logical vote trace identical" `Quick
            test_logical_trace;
          Alcotest.test_case "3x packet reduction at n=12" `Quick
            test_reduction_n12;
        ] );
      ( "ew protocol",
        [
          Alcotest.test_case "honest run converges" `Quick test_ew_converges;
          Alcotest.test_case "silent corruption tolerated" `Quick
            test_ew_silent_corruption;
          Alcotest.test_case "quadratic message scaling" `Quick
            test_ew_quadratic;
          Alcotest.test_case "poisoner runs EW" `Quick test_ew_poisoner_runs_ew;
          Alcotest.test_case "equivocator rejected" `Quick
            test_ew_rejects_equivocator;
        ] );
    ]
