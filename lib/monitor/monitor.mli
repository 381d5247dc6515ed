(** Online safety-invariant checker for ΠAA runs.

    One monitor watches one run: wire {!on_trace} into the engine's tracer
    and {!on_iteration}/{!on_output} into the honest parties' callbacks
    (the harness does both when [Runner.run ~monitor:true]). Violations are
    {e accumulated} as structured records, never asserted — a soak batch
    keeps running and reports them all.

    Monitored invariants, and the paper claim each one encodes:
    - {b validity} — every honest Πinit output, adopted iteration value and
      protocol output lies in the convex hull of the honest inputs
      (Theorem 3.1 / Lemma 5.9 validity);
    - {b contraction} — each honest iteration-[it] value lies in the hull
      of the honest iteration-[(it−1)] values: the safe-area trim step
      never expands the honest spread (the containment behind the
      [√(7/8)]-contraction of Lemma 5.15);
    - {b agreement} — pairwise distance of honest outputs ≤ ε at
      termination (ε-agreement, Theorem 5.19);
    - {b double-output} — an honest party outputs at most once;
    - {b malformed-message} — honest parties only emit structurally valid
      messages (ids in range, iterations ≥ 1, payload dimensions matching
      the config).

    Containment checks that cannot be decided online (a party may run one
    iteration ahead of the stragglers, so the honest hull of [it−1] is
    still growing) are re-checked in {!summary} against the complete
    tables, so the monitor never reports a false positive. *)

type invariant =
  | Validity
  | Agreement
  | Contraction
  | Double_output
  | Malformed_message

val invariant_name : invariant -> string
val all_invariants : invariant list

type violation = {
  invariant : invariant;
  party : int;  (** [-1] when not attributable to one party *)
  time : int;
  detail : string;
}

type t

val create : cfg:Config.t -> honest:int list -> honest_inputs:Vec.t list -> t
(** [honest] are the parties graded as honest for this run: never
    statically corrupted and not targeted by any adaptive corruption.
    Events from other parties must not be fed to the monitor. *)

val on_iteration : t -> party:int -> now:int -> iter:int -> Vec.t -> unit
(** The party adopted [v_iter] ([iter = 0] is the Πinit output). *)

val on_output : t -> party:int -> now:int -> iter:int -> Vec.t -> unit

val on_trace : t -> Message.t Engine.trace_event -> unit
(** Feed every engine trace event; only [Sent] by honest parties is
    inspected (well-formedness). *)

type summary = {
  checks : int;  (** invariant evaluations performed *)
  violations : violation list;  (** in detection order *)
  counts : (string * int) list;  (** per-invariant totals, fixed order *)
  final_diameter : float;  (** of the honest outputs seen, [0.] if < 2 *)
  eps : float;
  honest_outputs : int;
  honest_expected : int;
}

val summary : t -> summary
(** Finalizes the run: resolves deferred containment checks against the
    complete iteration tables and evaluates ε-agreement over the outputs.
    Idempotent; call after [Engine.run] returns. *)

val total_violations : summary -> int
