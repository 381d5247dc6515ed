(** Executes a {!Scenario} and grades the run against the paper's three
    properties: Validity (outputs in the honest inputs' convex hull, checked
    by LP), ε-Agreement (output diameter ≤ ε) and Liveness (every honest
    party outputs). *)

type termination =
  | Completed  (** the engine ran to quiescence *)
  | Timed_out
      (** the scenario's [budget.wall_seconds] deadline fired (polled
          between engine events — cooperative, and inherently
          non-reproducible; quarantine, don't aggregate) *)
  | Budget_exhausted
      (** the engine event budget ([budget.max_events], default 10M) was
          hit — the deterministic watchdog for run-away protocols *)

val termination_to_string : termination -> string
(** ["completed"], ["timed-out"], ["budget-exhausted"]. *)

type cache_stats = {
  safe_hits : int;  (** safe-area memo lookups answered from cache *)
  safe_misses : int;  (** lookups that ran the geometry kernel *)
  safe_size : int;  (** distinct memo entries at run end *)
  intern_hits : int;  (** payload-intern lookups resolved to a known id *)
  intern_misses : int;  (** payloads interned fresh *)
  intern_size : int;  (** distinct payloads interned *)
}
(** Cache efficacy: the safe-area numbers are this run's own memo and
    the intern numbers sum the graded parties' tables. *)

type result = {
  scenario_name : string;
  termination : termination;
      (** how the run ended; everything below is graded over whatever had
          happened by that point when not [Completed] *)
  live : bool;
  valid : bool;
  agreement : bool;
  diameter : float;  (** of the honest outputs *)
  eps : float;
  outputs : (int * Vec.t) list;
  output_iters : (int * int) list;
  output_times : (int * int) list;
  t_estimates : (int * int) list;
  histories : (int * (int * Vec.t) list) list;
  completion_rounds : float;
      (** unit: Δ-rounds — last honest output time in ticks divided by
          [cfg.delta]; [0.] when no honest party output (dead run) *)
  stats : Engine.stats;
  honest_inputs : Vec.t list;
  traffic : (string * int * int) list;
      (** per-primitive (class, messages, bytes), see {!Traffic} *)
  monitor : Monitor.summary option;
      (** the online invariant monitor's verdict (violation counts, worst
          final diameter vs ε, …); [Some] iff the run was started with
          [~monitor:true] *)
  caches : cache_stats;
  transport : [ `Sim | `Net ];
      (** which backend carried the messages (from the scenario) *)
  wire : Netrun.wire_stats option;
      (** physical-layer statistics; [Some] iff [transport] is [`Net].
          Unlike everything above, these depend on kernel scheduling
          (retransmission and reconnect counts) — assert them loosely *)
}

type attached = {
  a_start : Vec.t -> unit;
  a_output : unit -> Vec.t option;
  a_output_iter : unit -> int option;
  a_output_time : unit -> int option;
  a_t_estimate : unit -> int option;
  a_history : unit -> (int * Vec.t) list;
  a_intern : unit -> int * int * int;
      (** (hits, misses, size) of the party's intern table; zeros outside
          ΠAA *)
}
(** Uniform read-side view over whichever protocol an endpoint runs —
    the interface {!grade} consumes, whatever the {!Scenario.protocol}. *)

type hooks = (iter:int -> Vec.t -> unit) * (iter:int -> Vec.t -> unit)
(** (on_iteration, on_output) monitor callbacks. *)

val attach_party :
  scenario:Scenario.t ->
  ?hooks:hooks ->
  safe_cache:Safe_cache.t ->
  ew_iters:int Lazy.t ->
  Message.t Transport.endpoint ->
  attached
(** Attaches the scenario's protocol onto the endpoint: [Maaa opts] →
    {!Party} with [opts]; [Ew] → {!Ew_aa} on its direct channel for
    [ew_iters] iterations at trim level [cfg.ta]; [Pure_async] → {!Ew_aa}
    on its reliable channel at [cfg.ta]; [Pure_sync] → {!Sync_aa} at
    [cfg.ts], whose [hooks] never fire. {!run} builds every party through
    it, honest or poisoner, on the simulator and the net backend alike. *)

val grade :
  scenario:Scenario.t ->
  termination:termination ->
  stats:Engine.stats ->
  traffic:(string * int * int) list ->
  monitor:Monitor.summary option ->
  safe_cache:Safe_cache.t ->
  transport:[ `Sim | `Net ] ->
  wire:Netrun.wire_stats option ->
  (int * attached) list ->
  result
(** The grading tail of {!run}: filters the
    attached parties down to {!Scenario.graded_honest}, reads their
    outputs, and computes liveness / validity / agreement / diameter /
    completion metrics plus the cache counters. *)

val run :
  ?monitor:bool ->
  ?tracer:(Message.t Engine.trace_event -> unit) ->
  ?on_engine:(Message.t Engine.t -> unit) ->
  Scenario.t ->
  result
(** Runs the scenario's protocol for every honest party and installs the
    scenario's Byzantine behaviours for the rest — under [Maaa] through
    {!Behavior.install}; under the other protocols through
    {!Behavior.on_endpoint} around {!attach_party}, so a poisoner, a
    crashed party or a lagger runs the scenario's own protocol, ungraded. A chaos fault plan in the scenario is compiled
    into the delay policy and installed on the engine. With
    [~monitor:true] (default false) an online {!Monitor} watches the run
    and its summary lands in the result. Metrics are graded over the
    parties that stay honest for the whole run (adaptive chaos targets are
    graded as corrupt). Never raises on liveness failures — they are
    reported in the result (lower-bound experiments rely on observing
    them).

    The scenario's {!Scenario.budget} is enforced as a watchdog: event
    budget exhaustion and wall-clock deadline are reported as the result's
    [termination] ([Budget_exhausted] / [Timed_out]) instead of an
    exception escaping [Engine.run].

    [?tracer] observes every engine trace event (chained after the
    monitor's own tracer when both are present) — the hook the
    explorer uses to capture full send/deliver traces.

    [?on_engine] receives the engine right after creation, before any
    party attaches or any event is enqueued — the seam through which the
    explorer installs an {!Engine.set_chooser} schedule strategy. *)

val run_batch : ?domains:int -> ?monitor:bool -> Scenario.t list -> result list
(** Runs the scenarios over [domains] worker domains ({!Pool.map};
    default [1] runs them in the calling domain) and returns the results
    in submission order. If runs raise, every scenario still runs and the
    exception of the lowest-indexed failing one is re-raised with its
    backtrace. Because every scenario owns its engine, RNG, LP workspaces
    and monitor, the results are {e bit-identical} to the sequential run
    for any [domains] — property-tested in [test_pool.ml] and
    [test_chaos.ml]. *)

val passed : result -> bool
(** The run was live, valid and in ε-agreement: it kept all three of the
    paper's properties. *)

val contraction_ratios : result -> (int * float) list
(** For each iteration [it ≥ 1] completed by {e all} honest parties, the
    ratio [δmax(I_it) / δmax(I_{it-1})] (skipping already-collapsed
    predecessors). Lemma 5.15 bounds each by [√(7/8)]. *)

val iteration_diameters : result -> (int * float) list
(** [δmax(I_it)] per fully-completed iteration, iteration 0 being the
    Πinit outputs. *)

val pp_summary : Format.formatter -> result -> unit
