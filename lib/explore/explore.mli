(** Stateful depth-first enumeration of engine nondeterminism — bounded
    model checking for small configurations.

    The simulator resolves exactly one kind of nondeterminism by itself:
    when several events are pending at the minimal tick, [(time, seq)]
    order decides which fires first. {!Engine.set_chooser} exposes that
    decision, and this module drives it: every execution is re-run from
    scratch under a {e schedule prefix} (the chooser answers recorded
    indices, then [0] — the default — beyond the prefix), and each fresh
    choice point with [k ≥ 2] candidates registers sibling prefixes for
    the alternatives still worth trying. The search is therefore
    stateless per execution and exhaustive over all schedules that differ
    from the default in the first [max_schedule_depth] choice points —
    the honestly-stated bound of this bounded model checker.

    Adversary nondeterminism rides the same loop as an outer product over
    {!Fault_plan}s: crash points become [Corrupt_at _ → Silent] atoms over
    a tick range, Byzantine per-receiver payload choices become
    [Corrupt_at _ → Equivocate_split] atoms over a small symbolic domain
    of value pairs and receiver subsets. A counterexample is always a
    (plan, schedule) pair — a {!Case.t}, replayable, shrinkable and
    serialisable.

    Two reduction mechanisms cut the [Pruned] search (both off under
    [Naive], which is kept as the measured baseline):

    - {b DPOR-style persistent sets}: same-tick events to {e different}
      targets commute — a handler mutates only its own party's state,
      sends are enqueued at strictly later ticks and timers target the
      setting party — so a choice point branches only on the candidates
      sharing candidate 0's target (and not at all when that target has
      no live handler: delivering to a crashed party is a no-op, which
      commutes with everything).
    - {b canonical-state dedup}: at each fresh choice point the engine
      state is fingerprinted (current tick, per-party MD5 digest chains
      over the delivery/timer history, the pending-event multiset in a
      seq-independent canonical order, handler liveness); a state already
      visited with at least as much event budget remaining is cut.

    Soundness caveats are spelled out in DESIGN.md §11: the engine's
    delay policy must be deterministic (lockstep — the default scenario
    policy), handlers must not create same-tick events for {e other}
    parties (they cannot: the only same-tick route is the self-targeted
    timer clamp), and state hashing is exact (full fingerprint
    comparison, not hash compaction) only up to MD5 collisions.

    Graded by the existing online {!Monitor}: a violating execution is
    shrunk by {!Case.shrink} — schedule indices zeroed/truncated to a
    fixpoint, then the fault plan, then the schedule again — and written
    to a case file ({!Case}), replayable with [explore_main --replay]
    like a soak journal's abnormal rows. *)

type mode = Naive | Pruned

type adversary =
  | Honest  (** schedule nondeterminism only: the single empty plan *)
  | Crash of { party : int; max_tick : int }
      (** [Corrupt_at {tick; party; behavior = Silent}] for every
          [tick ∈ [0, max_tick]] *)
  | Equivocator of { party : int; values : Vec.t * Vec.t }
      (** [Equivocate_split] over every nonempty receiver subset of the
          {e other} parties: [party] broadcasts the first value, then
          sends the second to the subset (see {!Behavior}) *)

type config = {
  cfg : Config.t;
  inputs : Vec.t list;  (** one per party *)
  mode : mode;
  adversary : adversary;
  protocol : Scenario.protocol;
      (** what the honest parties run; a [Maaa] mutant is a deliberately
          broken variant the explorer must rediscover exhaustively *)
  max_events : int;  (** per-execution engine event budget *)
  max_executions : int;  (** global execution budget for the search *)
  max_schedule_depth : int;
      (** choice points after which executions follow the default
          schedule unconditionally (the exhaustiveness bound) *)
  max_counterexamples : int;
      (** stop searching a plan's schedule space after this many violating
          executions have been shrunk and recorded (the remaining plans
          are still explored) *)
}

val default_config :
  ?mode:mode ->
  ?adversary:adversary ->
  ?protocol:Scenario.protocol ->
  ?max_events:int ->
  ?max_executions:int ->
  ?max_schedule_depth:int ->
  ?max_counterexamples:int ->
  cfg:Config.t ->
  inputs:Vec.t list ->
  unit ->
  config
(** Defaults: [Pruned], [Honest], {!Scenario.maaa}, 50_000 events,
    20_000 executions, depth 4, 3 counterexamples.
    @raise Invalid_argument on input-count mismatch or an out-of-range /
    budget-violating adversary party. *)

type report = {
  r_mode : mode;
  executions : int;  (** complete re-executions performed *)
  choice_points : int;  (** chooser consultations across all executions *)
  truncated : int;
      (** executions stopped by [max_events] — counted, never graded for
          liveness (exhaustiveness holds only below the budget) *)
  dedup_cuts : int;  (** executions abandoned at a revisited state *)
  distinct_states : int;  (** canonical fingerprints recorded *)
  exhausted : bool;
      (** the bounded schedule space was drained; [false] when
          [max_executions] stopped the search or a plan was abandoned at
          [max_counterexamples] *)
  counterexamples : Case.t list;
      (** each with verdict [Violates], deduplicated by shrunk repro *)
}

val explore : config -> report
(** Runs the full search: every plan in the adversary's symbolic domain,
    DFS over the schedule space of each. Deterministic: same config, same
    report. Each counterexample's spec line spells the config's cfg,
    inputs, protocol and event budget.
    @raise Invalid_argument on a counterexample under a protocol with no
    {!Scenario.Spec.protocol_fields} spelling. *)

(** {2 Case files} *)

val write_quarantine : path:string -> config -> report -> unit
(** A {!Case} file: a header with the search's mode, depth and
    execution count, then one ["case"] line per counterexample. *)

val scenario_of_spec : string -> (Scenario.t, string) result
(** The replay dispatch: rebuilds a case's scenario from its spec line —
    ["soak"] specs through {!Soak.scenario_of_spec}, ["explore"] specs
    from their keys. *)

val replay : Case.t -> (bool, string) result
(** Rebuilds the case's scenario and re-runs its {e shrunk} repro through
    {!Case.reproduces}: [Ok true] when its verdict comes back — the same
    invariants violated again, or the run still not completing. [Error]
    on a spec that does not rebuild or a shrunk plan the scenario
    rejects. *)

type replay_outcome = {
  rp_total : int;
  rp_reproduced : int;
  rp_failures : string list;  (** one human-readable line per failure *)
}

val replay_file : path:string -> (replay_outcome, string) result
(** {!replay}s every ["case"] row of a case file: an explore quarantine
    or a soak journal (whose ["ok"] rows carry no repro). [Error] naming
    the line on an unparsable file, one of another schema, or a case
    whose scenario does not rebuild. *)

(** {2 Reprs} — CLI spellings. *)

val mode_repr : mode -> string
val mode_of_repr : string -> (mode, string) result

val adversary_of_repr : string -> (adversary, string) result
(** ["honest"], ["crash:PARTY:MAXTICK"], or ["equiv:PARTY:VA:VB"] with
    vectors as ['/']-joined floats (hex or decimal). *)
