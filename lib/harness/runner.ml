type termination = Completed | Timed_out | Budget_exhausted

let termination_to_string = function
  | Completed -> "completed"
  | Timed_out -> "timed-out"
  | Budget_exhausted -> "budget-exhausted"

(* Cache efficacy, surfaced per run: the safe-area memo the run's
   parties share, plus the payload-interning tables summed over the graded
   parties. *)
type cache_stats = {
  safe_hits : int;
  safe_misses : int;
  safe_size : int;
  intern_hits : int;
  intern_misses : int;
  intern_size : int;
}

type result = {
  scenario_name : string;
  termination : termination;
  live : bool;
  valid : bool;
  agreement : bool;
  diameter : float;
  eps : float;
  outputs : (int * Vec.t) list;
  output_iters : (int * int) list;
  output_times : (int * int) list;
  t_estimates : (int * int) list;
  histories : (int * (int * Vec.t) list) list;
  completion_rounds : float;
  stats : Engine.stats;
  honest_inputs : Vec.t list;
  traffic : (string * int * int) list;
  monitor : Monitor.summary option;
  caches : cache_stats;
  transport : [ `Sim | `Net ];
  wire : Netrun.wire_stats option;
      (* [Some] iff the run used the `Net transport *)
}

(* Uniform read-side view over whichever protocol the scenario runs, so
   the metrics below don't care whether a ΠAA [Party.t] or an EW
   [Ew_aa.t] sits behind it. *)
type attached = {
  a_start : Vec.t -> unit;
  a_output : unit -> Vec.t option;
  a_output_iter : unit -> int option;
  a_output_time : unit -> int option;
  a_t_estimate : unit -> int option;
  a_history : unit -> (int * Vec.t) list;
  a_intern : unit -> int * int * int;  (* (hits, misses, size); zeros for EW *)
}

type hooks = (iter:int -> Vec.t -> unit) * (iter:int -> Vec.t -> unit)

let ew_attached ?hooks ~channel ~t ~iters ep =
  let callbacks =
    match hooks with
    | Some (on_iteration, on_output) -> { Ew_aa.on_iteration; on_output }
    | None -> Ew_aa.no_callbacks
  in
  let p = Ew_aa.attach_endpoint ~callbacks ~channel ~t ~iters ep in
  {
    a_start = Ew_aa.start p;
    a_output = (fun () -> Ew_aa.output p);
    a_output_iter = (fun () -> Ew_aa.output_iteration p);
    a_output_time = (fun () -> Ew_aa.output_time p);
    a_t_estimate = (fun () -> None);
    a_history = (fun () -> Ew_aa.value_history p);
    a_intern = (fun () -> (0, 0, 0));
  }

(* Attach the scenario's protocol onto an arbitrary endpoint, sim or
   net alike. *)
let attach_party ~(scenario : Scenario.t) ?hooks ~safe_cache ~ew_iters
    (ep : Message.t Transport.endpoint) =
  let s = scenario in
  let cfg = s.Scenario.cfg in
  match s.protocol with
  | Scenario.Maaa opts ->
      let callbacks =
        match hooks with
        | Some (on_iteration, on_output) -> { Party.on_iteration; on_output }
        | None -> Party.no_callbacks
      in
      let p =
        Party.attach_endpoint ~callbacks ~opts ~safe_cache ~cfg ep
      in
      {
        a_start = Party.start p;
        a_output = (fun () -> Party.output p);
        a_output_iter = (fun () -> Party.output_iteration p);
        a_output_time = (fun () -> Party.output_time p);
        a_t_estimate = (fun () -> Party.iteration_estimate p);
        a_history = (fun () -> Party.value_history p);
        a_intern = (fun () -> Party.intern_stats p);
      }
  | Scenario.Ew ->
      ew_attached ?hooks ~channel:Direct ~t:cfg.Config.ta
        ~iters:(Lazy.force ew_iters) ep
  | Scenario.Pure_async { iters } ->
      ew_attached ?hooks ~channel:Reliable ~t:cfg.Config.ta ~iters ep
  | Scenario.Pure_sync { rounds } ->
      let p =
        Sync_aa.attach_endpoint ~t:cfg.Config.ts ~rounds
          ~delta:cfg.Config.delta ep
      in
      {
        a_start = Sync_aa.start p;
        a_output = (fun () -> Sync_aa.output p);
        a_output_iter =
          (fun () -> Option.map (fun _ -> rounds) (Sync_aa.output p));
        a_output_time = (fun () -> Sync_aa.output_time p);
        a_t_estimate = (fun () -> None);
        a_history = (fun () -> Sync_aa.value_history p);
        a_intern = (fun () -> (0, 0, 0));
      }

(* The grading tail: everything a result reports that is computed from
   the attached parties after the event loop stops. *)
let grade ~(scenario : Scenario.t) ~termination ~stats ~traffic ~monitor
    ~safe_cache ~transport ~wire parties =
  let s = scenario in
  let cfg = s.Scenario.cfg in
  let graded = Scenario.graded_honest s in
  let honest_inputs = Scenario.honest_inputs s in
  (* Adaptive chaos targets run the protocol but are graded as corrupt:
     every reported metric below is over the still-honest parties. *)
  let parties = List.filter (fun (i, _) -> List.mem i graded) parties in
  let outputs =
    List.filter_map
      (fun (i, p) -> Option.map (fun v -> (i, v)) (p.a_output ()))
      parties
  in
  let live = List.length outputs = List.length parties in
  let valid =
    outputs <> []
    && List.for_all
         (fun (_, v) -> Membership.in_hull ~eps:1e-6 honest_inputs v)
         outputs
  in
  let diameter = Vec.diameter (List.map snd outputs) in
  let agreement = live && diameter <= cfg.Config.eps +. 1e-9 in
  let output_times =
    List.filter_map
      (fun (i, p) -> Option.map (fun t -> (i, t)) (p.a_output_time ()))
      parties
  in
  let completion_rounds =
    (* Δ-rounds to the last honest output; 0. (not a fold over nothing)
       when no honest party output at all *)
    match output_times with
    | [] -> 0.
    | times ->
        List.fold_left (fun acc (_, t) -> Float.max acc (float_of_int t)) 0. times
        /. float_of_int cfg.Config.delta
  in
  let caches =
    let ih, im, isz =
      List.fold_left
        (fun (h, m, sz) (_, p) ->
          let h', m', sz' = p.a_intern () in
          (h + h', m + m', sz + sz'))
        (0, 0, 0) parties
    in
    {
      safe_hits = Safe_cache.hits safe_cache;
      safe_misses = Safe_cache.misses safe_cache;
      safe_size = Safe_cache.size safe_cache;
      intern_hits = ih;
      intern_misses = im;
      intern_size = isz;
    }
  in
  {
    scenario_name = s.name;
    termination;
    live;
    valid;
    agreement;
    diameter;
    eps = cfg.Config.eps;
    outputs;
    output_iters =
      List.filter_map
        (fun (i, p) -> Option.map (fun it -> (i, it)) (p.a_output_iter ()))
        parties;
    output_times;
    t_estimates =
      List.filter_map
        (fun (i, p) -> Option.map (fun t -> (i, t)) (p.a_t_estimate ()))
        parties;
    histories = List.map (fun (i, p) -> (i, p.a_history ())) parties;
    completion_rounds;
    stats;
    honest_inputs;
    traffic;
    monitor;
    caches;
    transport;
    wire;
  }

let run ?(monitor = false) ?tracer ?on_engine
    (s : Scenario.t) =
  let cfg = s.Scenario.cfg in
  let policy =
    match s.chaos with
    | None -> s.policy
    | Some plan ->
        Fault_plan.compile ~sync:s.sync_network ~delta:cfg.Config.delta
          ~base:s.policy plan
  in
  let engine =
    Engine.create ~seed:s.seed ~size_of:Message.size_of
      ~classes:Traffic.num_klasses ~classify:Traffic.classify_into
      ~n:cfg.Config.n ~policy ()
  in
  if s.isolate then Engine.set_isolation engine `Isolate;
  (* The explorer's seam: hand the freshly created engine to the caller
     (to install a schedule chooser) before any party attaches or any
     event is enqueued. *)
  (match on_engine with Some f -> f engine | None -> ());
  (* The net transport must be below the engine before the first send;
     its own wall budget doubles as the wire-stall watchdog. [Fun.protect]
     guarantees the sockets die with the run, also on exceptions. *)
  let net =
    match s.transport with
    | `Sim -> None
    | `Net ->
        let pump_budget =
          Option.value s.Scenario.budget.Scenario.wall_seconds ~default:30.
        in
        Some
          (Netrun.attach ?chaos:s.wire_chaos ~chaos_seed:s.seed ~pump_budget
             engine)
  in
  Fun.protect ~finally:(fun () -> Option.iter Netrun.close net) @@ fun () ->
  let inputs = Array.of_list s.inputs in
  let honest_ids = Scenario.honest s in
  let graded = Scenario.graded_honest s in
  let honest_inputs = Scenario.honest_inputs s in
  let mon =
    if monitor then Some (Monitor.create ~cfg ~honest:graded ~honest_inputs)
    else None
  in
  (* Traffic accounting rides the engine's send path (see {!Traffic});
     the tracer is needed only when a monitor or an external observer
     (the explorer, the tests) wants the event stream. *)
  (match (mon, tracer) with
  | None, None -> ()
  | Some m, None -> Engine.set_tracer engine (fun ev -> Monitor.on_trace m ev)
  | None, Some f -> Engine.set_tracer engine f
  | Some m, Some f ->
      Engine.set_tracer engine (fun ev ->
          Monitor.on_trace m ev;
          f ev));
  (* Shared safe-area memo: scoped to this run (this engine), so pooled
     sweeps still share nothing across jobs. *)
  let safe_cache = Safe_cache.create () in
  let monitor_hooks i =
    match mon with
    | Some m when List.mem i graded ->
        Some
          ( (fun ~iter v ->
              Monitor.on_iteration m ~party:i ~now:(Engine.now engine) ~iter v),
            fun ~iter v ->
              Monitor.on_output m ~party:i ~now:(Engine.now engine) ~iter v )
    | _ -> None
  in
  (* EW runs at the asynchronous trim level [ta] (its whole point is
     asynchronous resilience) and, like the rBC-based async baseline,
     takes its iteration count from the harness's estimate of the honest
     input spread — the same number our Πinit would arrive at. *)
  let ew_iters =
    lazy
      (Baseline_runner.rounds_for ~eps:cfg.Config.eps ~inputs:honest_inputs)
  in
  let parties =
    List.map
      (fun i ->
        ( i,
          attach_party ~scenario:s ?hooks:(monitor_hooks i) ~safe_cache
            ~ew_iters
            (Engine.endpoint engine ~me:i) ))
      honest_ids
  in
  (* Outside ΠAA a protocol-free behaviour wraps the scenario's own
     protocol on the party's endpoint, as {!Behavior.install} wraps ΠAA;
     {!Scenario.make} admits no other behaviour there. *)
  List.iter
    (fun (i, b) ->
      match s.protocol with
      | (Scenario.Ew | Pure_sync _ | Pure_async _)
        when not (Behavior.needs_maaa b) ->
          Behavior.on_endpoint (Engine.endpoint engine ~me:i)
            ~input:inputs.(i)
            ~honest:(fun ep v ->
              (attach_party ~scenario:s ~safe_cache ~ew_iters ep).a_start v)
            b
      | _ -> Behavior.install engine ~cfg ~me:i ~input:inputs.(i) b)
    s.corruptions;
  (match s.chaos with
  | None -> ()
  | Some plan -> Fault_plan.install engine ~cfg ~inputs plan);
  List.iter (fun (i, p) -> p.a_start inputs.(i)) parties;
  (* The per-case watchdog: the wall deadline is read lazily here (not at
     scenario build time) so pooled cases are charged only for their own
     runtime, and the engine polls it between events — a stuck case
     unwinds into a structured [Timed_out]/[Budget_exhausted] result
     instead of hanging the sweep or throwing across the pool. *)
  let should_stop =
    match s.Scenario.budget.Scenario.wall_seconds with
    | None -> None
    | Some w ->
        let deadline = Unix.gettimeofday () +. w in
        Some (fun () -> Unix.gettimeofday () > deadline)
  in
  Engine.run
    ?max_events:s.Scenario.budget.Scenario.max_events
    ~on_budget:`Stop
    ?should_stop engine;
  let termination =
    match Engine.stop_reason engine with
    | `Event_budget -> Budget_exhausted
    | `Cancelled -> Timed_out
    | `Quiescent | `Past_until -> Completed
  in
  grade ~scenario:s ~termination ~stats:(Engine.stats engine)
    ~traffic:(Traffic.to_rows (Traffic.of_engine engine))
    ~monitor:(Option.map Monitor.summary mon)
    ~safe_cache ~transport:s.transport
    ~wire:(Option.map Netrun.stats net)
    parties

(* Parallel sweeps. [run] touches no state outside its own scenario: the
   engine, its Rng, the traffic counters and every LP workspace (inside
   the parties' Hullsets) are created per call, and nothing in lib/ holds
   top-level mutable state. So fanning scenarios out over worker domains
   is bit-identical to running them in sequence: [Pool.map] only changes
   wall-clock interleaving. [run] also never prints; experiment reports
   must be emitted from the ordered result list after the join. *)
let run_batch ?(domains = 1) ?(monitor = false) scenarios =
  List.map Pool.get (Pool.map ~domains (fun s -> run ~monitor s) scenarios)

(* I_it = the honest values adopted in iteration [it]; only iterations every
   honest party reached are meaningful for Lemma 5.15. *)
let iteration_diameters r =
  match r.histories with
  | [] -> []
  | (_, first) :: _ ->
      let iters = List.map fst first in
      List.filter_map
        (fun it ->
          let values =
            List.filter_map (fun (_, h) -> List.assoc_opt it h) r.histories
          in
          if List.length values = List.length r.histories then
            Some (it, Vec.diameter values)
          else None)
        iters

let passed r = r.live && r.valid && r.agreement

let contraction_ratios r =
  let diams = iteration_diameters r in
  let rec go = function
    | (it0, d0) :: ((it1, d1) :: _ as rest) when it1 = it0 + 1 ->
        if d0 > 1e-12 then (it1, d1 /. d0) :: go rest else go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go diams

let pp_summary ppf r =
  Format.fprintf ppf
    "%s: live=%b valid=%b agreement=%b diam=%.3e (eps=%g) rounds=%.1f msgs=%d"
    r.scenario_name r.live r.valid r.agreement r.diameter r.eps
    r.completion_rounds r.stats.Engine.messages_sent;
  Format.fprintf ppf " cache=safe:%d/%d,intern:%d/%d"
    r.caches.safe_hits
    (r.caches.safe_hits + r.caches.safe_misses)
    r.caches.intern_hits
    (r.caches.intern_hits + r.caches.intern_misses);
  (* only non-default backends announce themselves: committed sim
     summaries stay byte-identical *)
  (match (r.transport, r.wire) with
  | `Net, Some w ->
      Format.fprintf ppf " transport=net(frames=%d retx=%d reconn=%d)"
        w.Netrun.frames_sent w.Netrun.retransmits w.Netrun.reconnects
  | `Net, None -> Format.fprintf ppf " transport=net"
  | `Sim, _ -> ());
  (match r.termination with
  | Completed -> ()
  | t ->
      Format.fprintf ppf " WATCHDOG=%s(%d events)"
        (termination_to_string t) r.stats.Engine.events_processed);
  match r.monitor with
  | None -> ()
  | Some m -> (
      match Monitor.total_violations m with
      | 0 -> Format.fprintf ppf " monitor=ok(%d checks)" m.Monitor.checks
      | n -> Format.fprintf ppf " monitor=%d VIOLATIONS" n)
