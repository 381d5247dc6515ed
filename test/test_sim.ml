(* Tests for the simulation substrate: RNG, heap, engine, delay policies. *)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float01 r in
    Alcotest.(check bool) "float01 in range" true (f >= 0. && f < 1.);
    let g = Rng.float_range r 2. 5. in
    Alcotest.(check bool) "float_range" true (g >= 2. && g < 5.)
  done

let test_rng_split () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  (* the split stream differs from the parent's continuation *)
  Alcotest.(check bool) "independent" true
    (Rng.next_int64 c <> Rng.next_int64 a)

let test_rng_coverage () =
  let r = Rng.create 3L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 10) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_shuffle () =
  let r = Rng.create 5L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* Golden streams: the first 16 draws of [Rng.create 2026L] and of its
   [split] child, one fresh generator per draw kind. Any change to the
   state representation must reproduce them bit for bit — every seeded
   experiment, soak case and benchmark op flows from these streams. *)
let golden_int64 =
  [|
    0xdb9c559891948d23L; 0x78bc927ded35455dL; 0xaad71e75cde2b88eL;
    0x6280938ad5a104f2L; 0xcaa69c1e0798ff49L; 0xb9f5a07176645a03L;
    0xf3f8751c656739aeL; 0xcdf6c4e563d8e22dL; 0x55b871711a2012f4L;
    0x3ae578fd14e84742L; 0x55cba8d6b3a3e36dL; 0xe6e0d6dede7fa7e0L;
    0x5195628418a67b18L; 0x47db765408e69765L; 0xa4ae3d2c8d299a39L;
    0x28363ce3db2d4849L;
  |]

let golden_int40 =
  [| 32; 15; 3; 36; 10; 24; 11; 19; 5; 8; 3; 0; 38; 9; 30; 26 |]

let golden_float01 =
  [|
    0x1.b738ab3123291p-1; 0x1.e2f249f7b4d5p-2; 0x1.55ae3ceb9bc57p-1;
    0x1.8a024e2b5684p-2; 0x1.954d383c0f31fp-1; 0x1.73eb40e2ecc8bp-1;
    0x1.e7f0ea38cace7p-1; 0x1.9bed89cac7b1cp-1; 0x1.56e1c5c468804p-2;
    0x1.d72bc7e8a742p-3; 0x1.572ea35ace8f8p-2; 0x1.cdc1adbdbcff4p-1;
    0x1.46558a106299ep-2; 0x1.1f6dd950239a4p-2; 0x1.495c7a591a533p-1;
    0x1.41b1e71ed96a4p-3;
  |]

let golden_child_int64 =
  [|
    0x6e75725323d4929eL; 0x07b389bacfd8f970L; 0x29267fa040ae73ffL;
    0x43b5cb642eb7cf71L; 0x91460e48003ed35cL; 0x8534f7d665b369d3L;
    0x972c41683030560dL; 0xb37a43f09763cf6fL; 0xb9990970d2bb8ac0L;
    0x2cdc9cba6e084a7aL; 0x1e5e241e89730037L; 0xaa7158addc933c39L;
    0xe4c2d31f5675ce1cL; 0x33f11ca0a6983917L; 0x1cf052951a9b801bL;
    0x0d1507503f5ea1aaL;
  |]

let golden_child_int40 =
  [| 7; 12; 39; 36; 39; 36; 27; 27; 24; 22; 21; 38; 39; 5; 38; 18 |]

let golden_child_float01 =
  [|
    0x1.b9d5c94c8f524p-2; 0x1.ece26eb3f63ep-6; 0x1.4933fd0205738p-3;
    0x1.0ed72d90badf2p-2; 0x1.228c1c90007dap-1; 0x1.0a69efaccb66dp-1;
    0x1.2e5882d06060ap-1; 0x1.66f487e12ec79p-1; 0x1.733212e1a5771p-1;
    0x1.66e4e5d370424p-3; 0x1.e5e241e8973p-4; 0x1.54e2b15bb9267p-1;
    0x1.c985a63eaceb9p-1; 0x1.9f88e50534c1cp-3; 0x1.cf052951a9b8p-4;
    0x1.a2a0ea07ebd4p-5;
  |]

let check_golden name mk ~int64s ~int40s ~floats =
  let r = mk () in
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "%s next_int64 #%d" name i)
        x (Rng.next_int64 r))
    int64s;
  let r = mk () in
  Array.iteri
    (fun i x ->
      Alcotest.(check int) (Printf.sprintf "%s int 40 #%d" name i) x
        (Rng.int r 40))
    int40s;
  let r = mk () in
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "%s float01 #%d" name i)
        (Int64.bits_of_float x)
        (Int64.bits_of_float (Rng.float01 r)))
    floats

let test_rng_golden () =
  check_golden "seed" (fun () -> Rng.create 2026L) ~int64s:golden_int64
    ~int40s:golden_int40 ~floats:golden_float01;
  check_golden "split child"
    (fun () -> Rng.split (Rng.create 2026L))
    ~int64s:golden_child_int64 ~int40s:golden_child_int40
    ~floats:golden_child_float01

(* A draw is pure integer work on the unboxed state: the delay policies
   call it once per message. *)
let test_rng_int_no_alloc () =
  let r = Rng.create 9L in
  let draws = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Rng.int r 40))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "Rng.int allocated %.0f minor words over %d draws" words draws

(* --- Heap.Keyed --- *)

(* Pops everything, as (key, aux, payload) in pop order. *)
let drain h =
  let rec go acc =
    if Heap.Keyed.is_empty h then List.rev acc
    else
      let k = Heap.Keyed.min_key_exn h in
      let a = Heap.Keyed.min_aux_exn h in
      let x = Heap.Keyed.pop_exn h in
      go ((k, a, x) :: acc)
  in
  go []

let entry = Alcotest.(triple int int string)

let test_heap_sorts () =
  let h = Heap.Keyed.create () in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 0; 4 ] in
  List.iter
    (fun k -> Heap.Keyed.push h ~key:k ~aux:(10 * k) (string_of_int k))
    input;
  Alcotest.(check int) "size" (List.length input) (Heap.Keyed.size h);
  Alcotest.(check (list entry))
    "sorted, riders follow their keys"
    (List.map (fun k -> (k, 10 * k, string_of_int k)) (List.sort compare input))
    (drain h)

let test_heap_empty () =
  let h = Heap.Keyed.create () in
  Alcotest.(check bool) "empty" true (Heap.Keyed.is_empty h);
  Alcotest.(check int) "size 0" 0 (Heap.Keyed.size h);
  Alcotest.check_raises "min_key_exn empty"
    (Invalid_argument "Heap.Keyed.min_key_exn: empty heap") (fun () ->
      ignore (Heap.Keyed.min_key_exn h));
  Alcotest.check_raises "min_aux_exn empty"
    (Invalid_argument "Heap.Keyed.min_aux_exn: empty heap") (fun () ->
      ignore (Heap.Keyed.min_aux_exn h));
  Heap.Keyed.push h ~key:1 ~aux:7 "one";
  Alcotest.(check bool) "not empty" false (Heap.Keyed.is_empty h);
  Alcotest.(check int) "peek key" 1 (Heap.Keyed.min_key_exn h);
  Alcotest.(check int) "peek aux" 7 (Heap.Keyed.min_aux_exn h);
  Alcotest.(check string) "pop" "one" (Heap.Keyed.pop_exn h);
  Alcotest.(check bool) "drained" true (Heap.Keyed.is_empty h)

let test_heap_pop_exn () =
  let h = Heap.Keyed.create () in
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Heap.Keyed.pop_exn: empty heap") (fun () ->
      ignore (Heap.Keyed.pop_exn h));
  List.iter (fun k -> Heap.Keyed.push h ~key:k ~aux:0 k) [ 4; 2; 9 ];
  Alcotest.(check int) "min first" 2 (Heap.Keyed.pop_exn h);
  Alcotest.(check int) "then" 4 (Heap.Keyed.pop_exn h);
  Alcotest.(check int) "then" 9 (Heap.Keyed.pop_exn h);
  Alcotest.(check bool) "drained" true (Heap.Keyed.is_empty h)

let prop_heap =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.Keyed.create () in
      List.iteri (fun i k -> Heap.Keyed.push h ~key:k ~aux:i k) l;
      List.map (fun (k, _, _) -> k) (drain h) = List.sort compare l)

(* Model test against a sorted association list. Keys are unique, as the
   engine's packed (tick, seq) keys are. [`Repush] inserts a key below
   the last popped one — what the chooser's re-insertion and
   [Engine.inject] do — and after every step [iter] must visit exactly
   the pending entries. Up to 400 steps at 3:2:1 push/pop/repush odds
   grow the heap well past its initial 16 slots. *)
let prop_heap_model =
  let step =
    QCheck.Gen.(
      frequency
        [ (3, map (fun k -> `Push k) (int_bound 999));
          (2, return `Pop);
          (1, map (fun d -> `Repush d) (int_bound 20)) ])
  in
  let show = function
    | `Push k -> Printf.sprintf "push %d" k
    | `Pop -> "pop"
    | `Repush d -> Printf.sprintf "repush -%d" d
  in
  QCheck.Test.make ~name:"keyed heap matches sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show l))
       QCheck.Gen.(list_size (int_bound 400) step))
    (fun steps ->
      let h = Heap.Keyed.create () in
      let model = ref [] (* sorted (key, (aux, payload)) *) in
      let used = Hashtbl.create 64 in
      let last_popped = ref 0 in
      let rec fresh k dir =
        if Hashtbl.mem used k then fresh (k + dir) dir else k
      in
      let push k dir =
        let k = fresh k dir in
        Hashtbl.add used k ();
        let aux = (3 * k) + 1 and payload = Printf.sprintf "v%d" k in
        Heap.Keyed.push h ~key:k ~aux payload;
        model := List.merge compare [ (k, (aux, payload)) ] !model
      in
      let pending () =
        let acc = ref [] in
        Heap.Keyed.iter h (fun ~key ~aux x -> acc := (key, (aux, x)) :: !acc);
        List.sort compare !acc
      in
      let apply = function
        | `Push k ->
            push (7 * k) 1;
            true
        | `Repush d ->
            push (!last_popped - 1 - d) (-1);
            true
        | `Pop -> (
            match !model with
            | [] -> Heap.Keyed.is_empty h
            | (k, (a, x)) :: rest ->
                model := rest;
                last_popped := k;
                Heap.Keyed.min_key_exn h = k
                && Heap.Keyed.min_aux_exn h = a
                && Heap.Keyed.pop_exn h = x)
      in
      List.for_all
        (fun s ->
          apply s
          && Heap.Keyed.size h = List.length !model
          && pending () = !model)
        steps
      && List.map (fun (k, (a, x)) -> (k, a, x)) !model = drain h)

(* --- Engine --- *)

let test_engine_delivery () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { src; msg } -> got := (src, msg) :: !got
      | Engine.Timer _ -> ());
  Engine.send engine ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got

let test_engine_fifo_per_tick () =
  (* same delays: delivery order = send order (sequence tie-break) *)
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> got := msg :: !got
      | Engine.Timer _ -> ());
  List.iter (fun m -> Engine.send engine ~src:0 ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !got)

let test_engine_timer () =
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let fired = ref [] in
  Engine.set_party engine 0 (fun ev ->
      match ev with
      | Engine.Timer tag -> fired := (tag, Engine.now engine) :: !fired
      | Engine.Deliver _ -> ());
  Engine.set_timer engine ~party:0 ~at:10 ~tag:1;
  Engine.set_timer engine ~party:0 ~at:5 ~tag:2;
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "timers in time order"
    [ (2, 5); (1, 10) ]
    (List.rev !fired)

let test_engine_broadcast_and_stats () =
  let engine =
    Engine.create ~n:3 ~size_of:String.length ~policy:Network.instant ()
  in
  let count = ref 0 in
  for i = 0 to 2 do
    Engine.set_party engine i (fun ev ->
        match ev with Engine.Deliver _ -> incr count | Engine.Timer _ -> ())
  done;
  Engine.broadcast engine ~src:0 "xyz";
  Engine.run engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "deliveries incl self" 3 !count;
  Alcotest.(check int) "messages" 3 s.Engine.messages_sent;
  Alcotest.(check int) "bytes" 9 s.Engine.bytes_sent

let test_engine_crash () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref 0 in
  Engine.set_party engine 1 (fun _ -> incr got);
  Engine.clear_party engine 1;
  Engine.send engine ~src:0 ~dst:1 "dropped";
  Engine.run engine;
  Alcotest.(check int) "nothing handled" 0 !got

let test_engine_until () =
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let fired = ref 0 in
  Engine.set_party engine 0 (fun _ -> incr fired);
  Engine.set_timer engine ~party:0 ~at:5 ~tag:0;
  Engine.set_timer engine ~party:0 ~at:50 ~tag:0;
  Engine.run ~until:10 engine;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check bool) "queue not drained" false (Engine.quiescent engine);
  Engine.run engine;
  Alcotest.(check int) "rest after" 2 !fired

let test_engine_max_events_exact () =
  (* a run needing exactly [max_events] events succeeds; one more event in
     the queue raises without popping it (counter and clock stay put) *)
  let mk k =
    let engine = Engine.create ~n:1 ~policy:Network.instant () in
    Engine.set_party engine 0 (fun _ -> ());
    for i = 1 to k do
      Engine.set_timer engine ~party:0 ~at:i ~tag:i
    done;
    engine
  in
  let engine = mk 5 in
  Engine.run ~max_events:5 engine;
  Alcotest.(check int) "exactly the budget" 5
    (Engine.stats engine).Engine.events_processed;
  let engine = mk 6 in
  Alcotest.check_raises "budget + 1 raises"
    (Failure "Engine.run: max_events exceeded (run-away protocol?)")
    (fun () -> Engine.run ~max_events:5 engine);
  let s = Engine.stats engine in
  Alcotest.(check int) "counter stopped at the budget" 5
    s.Engine.events_processed;
  Alcotest.(check int) "clock not past the budgeted events" 5 s.Engine.final_time

let test_engine_budget_stop () =
  (* ~on_budget:`Stop turns budget exhaustion into a structured stop
     instead of an exception, at exactly the same point, and the engine
     stays resumable *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> ());
  for i = 1 to 8 do
    Engine.set_timer engine ~party:0 ~at:i ~tag:i
  done;
  Engine.run ~max_events:5 ~on_budget:`Stop engine;
  Alcotest.(check bool) "stopped on the budget" true
    (Engine.stop_reason engine = `Event_budget);
  Alcotest.(check int) "counter at the budget" 5
    (Engine.stats engine).Engine.events_processed;
  Engine.run engine;
  Alcotest.(check bool) "resumed to quiescence" true
    (Engine.stop_reason engine = `Quiescent);
  Alcotest.(check int) "rest processed" 8
    (Engine.stats engine).Engine.events_processed

let test_engine_cancellation () =
  (* ?should_stop is polled every [stop_poll_mask + 1] events; a true
     verdict unwinds the run cleanly with stop_reason `Cancelled *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> ());
  for i = 1 to 200 do
    Engine.set_timer engine ~party:0 ~at:i ~tag:i
  done;
  let polls = ref 0 in
  Engine.run
    ~should_stop:(fun () ->
      incr polls;
      (Engine.stats engine).Engine.events_processed >= 64)
    engine;
  Alcotest.(check bool) "cancelled" true (Engine.stop_reason engine = `Cancelled);
  Alcotest.(check int) "stopped at the first poll past the flag" 64
    (Engine.stats engine).Engine.events_processed;
  Alcotest.(check bool) "polling is sparse, not per-event" true (!polls <= 3);
  (* cancellation leaves the queue intact: a later run drains it *)
  Engine.run engine;
  Alcotest.(check int) "drained after cancellation" 200
    (Engine.stats engine).Engine.events_processed;
  Alcotest.(check bool) "quiescent" true (Engine.stop_reason engine = `Quiescent)

let test_engine_determinism () =
  let run_once () =
    let engine =
      Engine.create ~seed:9L ~n:3 ~policy:(Network.sync_uniform ~delta:7) ()
    in
    let log = ref [] in
    for i = 0 to 2 do
      Engine.set_party engine i (fun ev ->
          match ev with
          | Engine.Deliver { src; msg } ->
              log := (Engine.now engine, i, src, msg) :: !log
          | Engine.Timer _ -> ())
    done;
    for s = 0 to 2 do
      Engine.broadcast engine ~src:s (string_of_int s)
    done;
    Engine.run engine;
    !log
  in
  Alcotest.(check bool) "identical logs" true (run_once () = run_once ())

let test_engine_tracer () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let sends = ref 0 and delivers = ref 0 and timers = ref 0 in
  Engine.set_tracer engine (function
    | Engine.Sent { deliver_at; at; _ } ->
        incr sends;
        Alcotest.(check bool) "deliver after send" true (deliver_at > at)
    | Engine.Delivered _ -> incr delivers
    | Engine.Timer_fired { tag; _ } ->
        incr timers;
        Alcotest.(check int) "tag" 5 tag
    | Engine.Party_failed _ -> ());
  Engine.set_party engine 1 (fun _ -> ());
  Engine.send engine ~src:0 ~dst:1 "x";
  Engine.set_timer engine ~party:1 ~at:3 ~tag:5;
  Engine.run engine;
  Alcotest.(check int) "sends" 1 !sends;
  Alcotest.(check int) "delivers" 1 !delivers;
  Alcotest.(check int) "timers" 1 !timers;
  (* clearing stops tracing *)
  Engine.clear_tracer engine;
  Engine.send engine ~src:0 ~dst:1 "y";
  Engine.run engine;
  Alcotest.(check int) "no more trace events" 1 !sends

let test_engine_propagates_by_default () =
  (* the default isolation mode lets handler exceptions abort the run *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> failwith "boom");
  Engine.set_timer engine ~party:0 ~at:1 ~tag:0;
  (match Engine.run engine with
  | () -> Alcotest.fail "expected the handler exception to propagate"
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m);
  Alcotest.(check int) "nothing recorded under fail-fast" 0
    (Engine.stats engine).Engine.party_failures

let test_engine_isolation () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  Engine.set_isolation engine `Isolate;
  let traced = ref [] in
  Engine.set_tracer engine (function
    | Engine.Party_failed f -> traced := f :: !traced
    | _ -> ());
  let p0 = ref 0 in
  Engine.set_party engine 0 (fun _ -> incr p0);
  Engine.set_party engine 1 (fun _ -> failwith "handler bug");
  Engine.send engine ~src:0 ~dst:1 "a" (* kills party 1 *);
  Engine.send engine ~src:1 ~dst:0 "b" (* still delivered *);
  Engine.send engine ~src:0 ~dst:1 "c" (* dropped: party 1 is cleared *);
  Engine.run engine;
  Alcotest.(check int) "run continued past the failure" 1 !p0;
  Alcotest.(check int) "stats counter" 1
    (Engine.stats engine).Engine.party_failures;
  (match Engine.failures engine with
  | [ f ] ->
      Alcotest.(check int) "failed party" 1 f.Engine.party;
      Alcotest.(check bool) "reason captured" true
        (String.length f.Engine.reason > 0)
  | l -> Alcotest.failf "recorded %d failures, expected 1" (List.length l));
  match !traced with
  | [ t ] -> Alcotest.(check int) "traced party" 1 t.Engine.party
  | l -> Alcotest.failf "traced %d failures, expected 1" (List.length l)

let test_engine_wrap_party () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> got := msg :: !got
      | Engine.Timer _ -> ());
  (* replay every delivery once, as the chaos Duplicate atom does *)
  Engine.wrap_party engine 1 (fun inner ev ->
      inner ev;
      match ev with Engine.Deliver _ -> inner ev | Engine.Timer _ -> ());
  Engine.send engine ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check (list string)) "handler saw the replay" [ "x"; "x" ]
    (List.rev !got);
  Alcotest.check_raises "bad party"
    (Invalid_argument "Engine.wrap_party: bad party") (fun () ->
      Engine.wrap_party engine 7 (fun inner -> inner))

(* Allocation budget of one whole ΠAA run on the asynchronous fallback
   (the async-d2-crash shape: n=8, ts=2, ta=1, D=2, one crashed party),
   in minor words per processed engine event. The count is deterministic,
   so this guards the allocation-free send/deliver path without timing.
   The run measured 77.5 words/event before that path was made
   allocation-free and about 21 after. *)
let test_engine_alloc_budget () =
  let cfg = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.25 ~delta:10 in
  let sc =
    Scenario.make ~name:"alloc-budget" ~seed:7L
      ~policy:(Network.async_uniform ~max_delay:40)
      ~sync_network:false
      ~corruptions:[ (7, Behavior.Silent) ]
      ~cfg
      ~inputs:(Inputs.uniform_cube (Rng.create 7L) ~d:2 ~n:8 ~side:10.)
      ()
  in
  let before = Gc.minor_words () in
  let r = Runner.run sc in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "run is live and agrees" true (r.live && r.agreement);
  let events = r.stats.Engine.events_processed in
  let per_event = words /. float_of_int events in
  if per_event > 30. then
    Alcotest.failf "%.1f minor words per event (%d events), budget 30"
      per_event events

(* A broadcast builds one event record for all n destinations, so its
   minor words must not grow with n (each destination used to cost a
   fresh 3-word [Deliver]). A first broadcast sizes the queue, so the
   measured one never grows it. *)
let test_engine_broadcast_alloc_flat () =
  let words n =
    let engine = Engine.create ~n ~policy:Network.instant () in
    Engine.broadcast engine ~src:0 "x";
    Engine.run engine;
    let before = Gc.minor_words () in
    Engine.broadcast engine ~src:0 "x";
    Gc.minor_words () -. before
  in
  let w4 = words 4 in
  List.iter
    (fun n ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "n=%d allocates as n=4" n)
        w4 (words n))
    [ 8; 16 ]

(* --- policies --- *)

let check_policy_range name policy lo hi =
  let rng = Rng.create 11L in
  for now = 0 to 50 do
    for src = 0 to 3 do
      for dst = 0 to 3 do
        let d = policy ~rng ~now ~src ~dst in
        if not (d >= lo && d <= hi) then
          Alcotest.failf "%s: delay %d outside [%d, %d]" name d lo hi
      done
    done
  done

let test_policies_sync_bound () =
  check_policy_range "lockstep" (Network.lockstep ~delta:10) 10 10;
  check_policy_range "sync_uniform" (Network.sync_uniform ~delta:10) 1 10;
  check_policy_range "rushing"
    (Network.rushing ~delta:10 ~corrupt:(fun i -> i = 0))
    1 10;
  check_policy_range "targeted_slow"
    (Network.targeted_slow ~delta:10 ~victims:(fun i -> i = 1))
    1 10

let test_policy_rushing_bias () =
  let rng = Rng.create 1L in
  let p = Network.rushing ~delta:10 ~corrupt:(fun i -> i = 0) in
  Alcotest.(check int) "corrupt fast" 1 (p ~rng ~now:0 ~src:0 ~dst:1);
  Alcotest.(check int) "honest slow" 10 (p ~rng ~now:0 ~src:1 ~dst:0)

let test_policy_starve () =
  let rng = Rng.create 1L in
  let p =
    Network.async_starve ~victims:(fun i -> i = 2) ~release:100 ~fast:3
  in
  let d = p ~rng ~now:0 ~src:2 ~dst:0 in
  Alcotest.(check bool) "victim held" true (d >= 100);
  let d = p ~rng ~now:0 ~src:0 ~dst:1 in
  Alcotest.(check bool) "others fast" true (d <= 3);
  let d = p ~rng ~now:200 ~src:2 ~dst:0 in
  Alcotest.(check bool) "after release fast" true (d <= 4)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "coverage" `Quick test_rng_coverage;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
          Alcotest.test_case "golden vectors" `Quick test_rng_golden;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_no_alloc;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick test_engine_delivery;
          Alcotest.test_case "fifo per tick" `Quick test_engine_fifo_per_tick;
          Alcotest.test_case "timer" `Quick test_engine_timer;
          Alcotest.test_case "broadcast + stats" `Quick
            test_engine_broadcast_and_stats;
          Alcotest.test_case "crash" `Quick test_engine_crash;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max_events exact" `Quick
            test_engine_max_events_exact;
          Alcotest.test_case "budget stop (structured)" `Quick
            test_engine_budget_stop;
          Alcotest.test_case "cooperative cancellation" `Quick
            test_engine_cancellation;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "tracer" `Quick test_engine_tracer;
          Alcotest.test_case "fail fast default" `Quick
            test_engine_propagates_by_default;
          Alcotest.test_case "isolation" `Quick test_engine_isolation;
          Alcotest.test_case "wrap_party" `Quick test_engine_wrap_party;
          Alcotest.test_case "allocation budget (async run)" `Quick
            test_engine_alloc_budget;
          Alcotest.test_case "broadcast allocation flat in n" `Quick
            test_engine_broadcast_alloc_flat;
        ] );
      ( "policies",
        [
          Alcotest.test_case "sync bounds" `Quick test_policies_sync_bound;
          Alcotest.test_case "rushing bias" `Quick test_policy_rushing_bias;
          Alcotest.test_case "starvation" `Quick test_policy_starve;
        ] );
      ("heap properties", q [ prop_heap; prop_heap_model ]);
    ]
