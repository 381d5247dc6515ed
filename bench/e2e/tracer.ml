(* The traced runner. It mirrors [Runner.run] with public calls only and
   times each layer from the outside: the parties are attached through
   wrapped [Transport.endpoint]s whose handler and egress calls are
   timed, the Byzantine party's handler is wrapped through
   [Engine.wrap_party], and the run's [Safe_cache] is owned here so a
   handler call that grew its [misses] counter is charged to the
   safe-area layer. Nothing in lib/ is edited or instrumented. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Handler classes: the physical [Traffic] class of the delivered
   message, or [timer]. Baseline/junk/EW traffic, absent from these
   workloads, lands in [other]. *)
let classes =
  [|
    "init_rbc";
    "iteration_rbc";
    "halt_rbc";
    "batched_rbc";
    "obc_reports";
    "witness_sets";
    "timer";
    "other";
  |]

let reported_classes = Array.sub classes 0 7

let class_of_event : Message.t Transport.event -> int = function
  | Transport.Timer _ -> 6
  | Transport.Deliver { msg; _ } -> (
      match Traffic.klass_of msg with
      | Traffic.Init_rbc -> 0
      | Iteration_rbc -> 1
      | Halt_rbc -> 2
      | Batched_rbc -> 3
      | Obc_reports -> 4
      | Witness_sets -> 5
      | _ -> 7)

(* Allocation accumulators live in a float array so that updating them
   allocates nothing (a mutable float record field would box). *)
let w_loop = 0
let w_handler = 1 (* honest handler calls, egress included *)
let w_adversary = 2
let w_egress = 3
let w_handler_egress = 4 (* egress issued from inside a handler call *)
let w_safe = 5 (* handler calls that ran the kernel, minus their egress *)
let w_vote = 6 (* the other handler calls, minus their egress *)
let n_words = 7

(* One traced op's aggregates. Times are ns, allocations minor words. *)
type acc = {
  mutable op_ns : int;
  mutable attach_ns : int;
  mutable attach_egress_ns : int;
  mutable mesh_ns : int;  (** Netrun.attach + Netrun.close *)
  mutable loop_ns : int;
  mutable loop_egress_ns : int;
  mutable grade_ns : int;
  mutable handler_ns : int;
  mutable handler_egress_ns : int;
  mutable adversary_ns : int;
  mutable egress_ns : int;
  mutable safe_ns : int;
  words : float array;
  mutable loop_egress_words : float;
  deliveries : int array;  (** per class *)
  self_ns : int array;  (** per class: vote handler self time *)
  mutable result : Runner.result option;
  mutable sent : (int * Message.t) list;
      (** [(deliver_at, msg)] of the op's off-party sends, net ops only *)
}

let fresh_acc () =
  {
    op_ns = 0;
    attach_ns = 0;
    attach_egress_ns = 0;
    mesh_ns = 0;
    loop_ns = 0;
    loop_egress_ns = 0;
    grade_ns = 0;
    handler_ns = 0;
    handler_egress_ns = 0;
    adversary_ns = 0;
    egress_ns = 0;
    safe_ns = 0;
    words = Array.make n_words 0.;
    loop_egress_words = 0.;
    deliveries = Array.make (Array.length classes) 0;
    self_ns = Array.make (Array.length classes) 0;
    result = None;
    sent = [];
  }

(* Full per-event spans, recorded for one op per workload. *)
type span = {
  id : int;
  parent : int;
  layer : string;
  cls : string;
  start_ns : int;
  end_ns : int;
}

type recorder = {
  mutable next_id : int;
  mutable parent : int;
  mutable spans : span list;
}

type state = {
  acc : acc;
  cache : Safe_cache.t;  (** the traced run's safe-area memo *)
  mutable in_handler : bool;
  rec_ : recorder option;
}

(* Opens a child span of the current parent: returns (id, parent). *)
let[@inline] enter st =
  match st.rec_ with
  | None -> (-1, -1)
  | Some r ->
      let id = r.next_id and parent = r.parent in
      r.next_id <- id + 1;
      r.parent <- id;
      (id, parent)

let[@inline] leave st ~id ~parent ~layer ~cls t0 t1 =
  match st.rec_ with
  | None -> ()
  | Some r ->
      r.parent <- parent;
      r.spans <- { id; parent; layer; cls; start_ns = t0; end_ns = t1 } :: r.spans

let[@inline] egress_done st ~id ~parent t0 t1 w0 w1 =
  leave st ~id ~parent ~layer:"vote" ~cls:"egress" t0 t1;
  let a = st.acc in
  a.egress_ns <- a.egress_ns + (t1 - t0);
  a.words.(w_egress) <- a.words.(w_egress) +. (w1 -. w0);
  if st.in_handler then begin
    a.handler_egress_ns <- a.handler_egress_ns + (t1 - t0);
    a.words.(w_handler_egress) <- a.words.(w_handler_egress) +. (w1 -. w0)
  end

let send_all st (ep : Message.t Transport.endpoint) m =
  let id, parent = enter st in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ep.Transport.send_all m;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  egress_done st ~id ~parent t0 t1 w0 w1

let flush st f ~final =
  let id, parent = enter st in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  f ~final;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  egress_done st ~id ~parent t0 t1 w0 w1

let timed_handler st h ev =
  let c = class_of_event ev in
  let a = st.acc in
  let m0 = Safe_cache.misses st.cache in
  let e_ns0 = a.handler_egress_ns and e_w0 = a.words.(w_handler_egress) in
  let id, parent = enter st in
  st.in_handler <- true;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  h ev;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  st.in_handler <- false;
  let grew = Safe_cache.misses st.cache > m0 in
  leave st ~id ~parent
    ~layer:(if grew then "safearea" else "vote")
    ~cls:classes.(c) t0 t1;
  let eg_ns = a.handler_egress_ns - e_ns0
  and eg_w = a.words.(w_handler_egress) -. e_w0 in
  a.handler_ns <- a.handler_ns + (t1 - t0);
  a.words.(w_handler) <- a.words.(w_handler) +. (w1 -. w0);
  a.deliveries.(c) <- a.deliveries.(c) + 1;
  if grew then begin
    a.safe_ns <- a.safe_ns + (t1 - t0 - eg_ns);
    a.words.(w_safe) <- a.words.(w_safe) +. (w1 -. w0 -. eg_w)
  end
  else begin
    a.self_ns.(c) <- a.self_ns.(c) + (t1 - t0 - eg_ns);
    a.words.(w_vote) <- a.words.(w_vote) +. (w1 -. w0 -. eg_w)
  end

let timed_adversary st h ev =
  let a = st.acc in
  let id, parent = enter st in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  h ev;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  leave st ~id ~parent ~layer:"adversary" ~cls:classes.(class_of_event ev) t0 t1;
  a.adversary_ns <- a.adversary_ns + (t1 - t0);
  a.words.(w_adversary) <- a.words.(w_adversary) +. (w1 -. w0)

let wrap_endpoint st (ep : Message.t Transport.endpoint) =
  {
    ep with
    Transport.send_all = send_all st ep;
    register_flush = (fun f -> ep.Transport.register_flush (flush st f));
    set_handler = (fun h -> ep.Transport.set_handler (timed_handler st h));
  }

(* A top-level phase of the op: a child span of the op span. *)
let phase st ~layer f =
  let id, parent = enter st in
  let t0 = now_ns () in
  let x = f () in
  let t1 = now_ns () in
  leave st ~id ~parent ~layer ~cls:"" t0 t1;
  (x, t1 - t0)

(* Runs one scenario the way [Runner.run] does (no monitor, no chaos, no
   isolation: the workloads use none) and returns the op's aggregates,
   its result in [acc.result]. With [~record] the op's spans are returned
   too. [~capture] keeps the op's off-party sends for the codec timings. *)
let run_op ?(record = false) ?(capture = false) (s : Scenario.t) =
  if s.Scenario.chaos <> None || s.Scenario.isolate then
    invalid_arg "Tracer.run_op: chaos and isolation are not mirrored";
  let st =
    {
      acc = fresh_acc ();
      cache = Safe_cache.create ();
      in_handler = false;
      rec_ = (if record then Some { next_id = 1; parent = 0; spans = [] } else None);
    }
  in
  let a = st.acc in
  let cfg = s.Scenario.cfg in
  let budget = s.Scenario.budget in
  let net = ref None in
  let mesh f =
    let x, dt = phase st ~layer:"net.mesh" f in
    a.mesh_ns <- a.mesh_ns + dt;
    x
  in
  let t_op0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun n -> mesh (fun () -> Netrun.close n)) !net)
    (fun () ->
      let (engine, parties), dt =
        phase st ~layer:"harness.attach" (fun () ->
            let engine =
              Engine.create ~seed:s.Scenario.seed ~size_of:Message.size_of
                ~classes:Traffic.num_klasses ~classify:Traffic.classify_into
                ~n:cfg.Config.n ~policy:s.Scenario.policy ()
            in
            if s.Scenario.transport = `Net then begin
              let pump_budget =
                Option.value budget.Scenario.wall_seconds ~default:30.
              in
              net :=
                Some
                  (mesh (fun () ->
                       Netrun.attach ?chaos:s.Scenario.wire_chaos
                         ~chaos_seed:s.Scenario.seed ~pump_budget engine))
            end;
            if capture then
              Engine.set_tracer engine (function
                | Engine.Sent { src; dst; deliver_at; msg; _ } when src <> dst ->
                    a.sent <- (deliver_at, msg) :: a.sent
                | _ -> ());
            let inputs = Array.of_list s.Scenario.inputs in
            let ew_iters =
              lazy
                (Baseline_runner.rounds_for ~eps:cfg.Config.eps
                   ~inputs:(Scenario.honest_inputs s))
            in
            let parties =
              List.map
                (fun i ->
                  ( i,
                    Runner.attach_party ~scenario:s ~safe_cache:st.cache
                      ~ew_iters
                      (wrap_endpoint st (Engine.endpoint engine ~me:i)) ))
                (Scenario.honest s)
            in
            List.iter
              (fun (i, b) ->
                Behavior.install engine ~cfg ~me:i ~input:inputs.(i) b;
                Engine.wrap_party engine i (timed_adversary st))
              s.Scenario.corruptions;
            List.iter (fun (i, p) -> p.Runner.a_start inputs.(i)) parties;
            (engine, parties))
      in
      a.attach_ns <- dt - a.mesh_ns;
      a.attach_egress_ns <- a.egress_ns;
      let should_stop =
        Option.map
          (fun w ->
            let deadline = Unix.gettimeofday () +. w in
            fun () -> Unix.gettimeofday () > deadline)
          budget.Scenario.wall_seconds
      in
      let e0 = a.egress_ns and ew0 = a.words.(w_egress) in
      let w0 = Gc.minor_words () in
      let (), dt =
        phase st ~layer:"sim.loop" (fun () ->
            Engine.run ?max_events:budget.Scenario.max_events ~on_budget:`Stop
              ?should_stop engine)
      in
      let w1 = Gc.minor_words () in
      a.loop_ns <- dt;
      a.words.(w_loop) <- w1 -. w0;
      (* egress the loop issued outside any handler call: flush hooks *)
      a.loop_egress_ns <- a.egress_ns - e0 - a.handler_egress_ns;
      a.loop_egress_words <-
        a.words.(w_egress) -. ew0 -. a.words.(w_handler_egress);
      let termination =
        match Engine.stop_reason engine with
        | `Event_budget -> Runner.Budget_exhausted
        | `Cancelled -> Runner.Timed_out
        | `Quiescent | `Past_until -> Runner.Completed
      in
      let result, dt =
        phase st ~layer:"harness.grade" (fun () ->
            Runner.grade ~scenario:s ~termination ~stats:(Engine.stats engine)
              ~traffic:(Traffic.to_rows (Traffic.of_engine engine))
              ~monitor:None ~safe_cache:st.cache ~transport:s.Scenario.transport
              ~wire:(Option.map Netrun.stats !net) parties)
      in
      a.grade_ns <- dt;
      a.result <- Some result);
  let t_op1 = now_ns () in
  a.op_ns <- t_op1 - t_op0;
  match st.rec_ with
  | None -> (a, [])
  | Some r ->
      let op = { id = 0; parent = -1; layer = "op"; cls = ""; start_ns = t_op0; end_ns = t_op1 } in
      (a, op :: List.rev r.spans)

(* -- per-layer metrics over the traced ops ------------------------------ *)

let sum f l = List.fold_left (fun s x -> s +. f x) 0. l
let fi = float_of_int

let result_of a = Option.get a.result

(* Metrics every workload with Runner-style ops reports, as per-op means
   over the traced ops [accs] (newest first is fine). [untraced_ns] is the
   total time of the same scenarios under plain [Runner.run]. *)
let layer_metrics ~untraced_ns accs =
  let ops = fi (List.length accs) in
  let per_op f = sum f accs /. ops in
  let ms ns = ns /. 1e6 in
  let sim_self_ns a =
    fi (a.loop_ns - a.handler_ns - a.adversary_ns - a.loop_egress_ns)
  in
  let events a = fi (result_of a).Runner.stats.Engine.events_processed in
  let caches f = sum (fun a -> fi (f (result_of a).Runner.caches)) accs in
  let safe_hits = caches (fun c -> c.Runner.safe_hits)
  and safe_misses = caches (fun c -> c.Runner.safe_misses)
  and intern_hits = caches (fun c -> c.Runner.intern_hits)
  and intern_misses = caches (fun c -> c.Runner.intern_misses) in
  let ratio x y = if y > 0. then x /. y else 0. in
  let covered a = a.attach_ns + a.mesh_ns + a.loop_ns + a.grade_ns in
  let traced_ns = sum (fun a -> fi a.op_ns) accs in
  let per_class =
    Array.to_list reported_classes
    |> List.mapi (fun c name ->
           [
             ( Printf.sprintf "vote.%s.deliveries_per_op" name,
               per_op (fun a -> fi a.deliveries.(c)) );
             ( Printf.sprintf "vote.%s.self_ms_per_op" name,
               ms (per_op (fun a -> fi a.self_ns.(c))) );
           ])
    |> List.concat
  in
  [
    ("sim.events_per_op", per_op events);
    ("sim.self_ms_per_op", ms (per_op sim_self_ns));
    ("sim.ns_per_event", ratio (sum sim_self_ns accs) (sum events accs));
    ( "sim.alloc_kwords_per_op",
      per_op (fun a ->
          a.words.(w_loop) -. a.words.(w_handler) -. a.words.(w_adversary)
          -. a.loop_egress_words)
      /. 1e3 );
  ]
  @ per_class
  @ [
      ("vote.egress_ms_per_op", ms (per_op (fun a -> fi a.egress_ns)));
      ( "vote.msgs_per_op",
        per_op (fun a -> fi (result_of a).Runner.stats.Engine.messages_sent) );
      ( "vote.bytes_per_op",
        per_op (fun a -> fi (result_of a).Runner.stats.Engine.bytes_sent) );
      ("vote.intern_hit_ratio", ratio intern_hits (intern_hits +. intern_misses));
      ( "vote.alloc_kwords_per_op",
        per_op (fun a -> a.words.(w_vote) +. a.words.(w_egress)) /. 1e3 );
      ("safearea.misses_per_op", safe_misses /. ops);
      ("safearea.hits_per_op", safe_hits /. ops);
      ("safearea.hit_ratio", ratio safe_hits (safe_hits +. safe_misses));
      ("safearea.ms_per_op", ms (per_op (fun a -> fi a.safe_ns)));
      ("safearea.ms_per_miss", ms (ratio (sum (fun a -> fi a.safe_ns) accs) safe_misses));
      ("safearea.alloc_kwords_per_op", per_op (fun a -> a.words.(w_safe)) /. 1e3);
      ( "harness.attach_ms_per_op",
        ms (per_op (fun a -> fi (a.attach_ns - a.attach_egress_ns))) );
      ("harness.grade_ms_per_op", ms (per_op (fun a -> fi a.grade_ns)));
      ("adversary.ms_per_op", ms (per_op (fun a -> fi a.adversary_ns)));
      ("net.mesh_ms_per_op", ms (per_op (fun a -> fi a.mesh_ns)));
      ("trace.overhead_frac", ratio traced_ns untraced_ns -. 1.);
      ( "trace.unattributed_frac",
        ratio (sum (fun a -> fi (a.op_ns - covered a)) accs) traced_ns );
    ]

(* Wire counters of the net ops, per op. *)
let wire_metrics accs =
  let ops = fi (List.length accs) in
  let per_op f =
    sum
      (fun a ->
        match (result_of a).Runner.wire with Some w -> fi (f w) | None -> 0.)
      accs
    /. ops
  in
  [
    ("net.frames_per_op", per_op (fun w -> w.Netrun.frames_sent));
    ("net.retransmits_per_op", per_op (fun w -> w.Netrun.retransmits));
    ("net.dup_frames_per_op", per_op (fun w -> w.Netrun.dup_frames));
    ("net.reconnects_per_op", per_op (fun w -> w.Netrun.reconnects));
  ]

(* Times [Codec.encode_record]/[decode_record] over the captured sends,
   repeating the pass until it has run for at least 20 ms. *)
let codec_metrics accs =
  let msgs = Array.of_list (List.concat_map (fun a -> a.sent) accs) in
  let n = Array.length msgs in
  let encoded =
    Array.mapi
      (fun i (deliver_at, m) -> Codec.encode_record ~engine_seq:i ~deliver_at m)
      msgs
  in
  let time_pass f =
    let passes = ref 0 and t0 = now_ns () in
    while now_ns () - t0 < 20_000_000 do
      for i = 0 to n - 1 do
        f i
      done;
      incr passes
    done;
    fi (now_ns () - t0) /. fi (!passes * n)
  in
  let encode_ns =
    time_pass (fun i ->
        let deliver_at, m = msgs.(i) in
        ignore (Sys.opaque_identity (Codec.encode_record ~engine_seq:i ~deliver_at m)))
  in
  let decode_ns =
    time_pass (fun i ->
        ignore (Sys.opaque_identity (Codec.decode_record encoded.(i))))
  in
  Array.iteri
    (fun i b ->
      let _, _, m = Codec.decode_record b in
      if m <> snd msgs.(i) then failwith "codec round-trip mismatch")
    encoded;
  [
    ("codec.encode_ns_per_msg", encode_ns);
    ("codec.decode_ns_per_msg", decode_ns);
    ( "codec.bytes_per_msg",
      sum (fun b -> fi (Bytes.length b)) (Array.to_list encoded) /. fi n );
  ]

(* Spans are recorded for one op per run, op 0. *)
let span_to_json (s : span) =
  Json.Obj
    [
      ("id", Json.Num (fi s.id));
      ("parent", Json.Num (fi s.parent));
      ("op", Json.Num 0.);
      ("layer", Json.Str s.layer);
      ("class", Json.Str s.cls);
      ("start_ns", Json.Num (fi s.start_ns));
      ("end_ns", Json.Num (fi s.end_ns));
    ]
