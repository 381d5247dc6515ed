(** Deterministic counterexample shrinking: the one shrinker for soak and
    explore counterexamples.

    A counterexample is a fault plan plus a schedule — the engine
    chooser's answers at its first choice points ({!Engine.set_chooser};
    [0], the default, beyond them). Given one that reproduces (as judged
    by the caller's [reproduces] oracle — re-run the case and check the
    same verdict comes back), {!shrink} searches for a smaller one that
    still reproduces:

    + {b schedule zeroing} — trailing default answers are stripped and
      the others are zeroed greedily left to right, to a fixpoint;
    + {b plan shrinking} — atom removal and numeric weakening (ticks
      bisected toward 0, windows toward length 1, factors/percentages
      toward their weakest value, corruption behaviours toward
      [Silent]) iterated to a joint fixpoint, so the plan is 1-minimal:
      dropping any atom or applying any single weakening stops
      reproducing (unless the try budget ran out first);
    + {b schedule zeroing} again against the shrunk plan.

    With the empty schedule only the plan is shrunk. The search is
    deterministic: same oracle, same input, same result. *)

type outcome = {
  plan : Fault_plan.t;  (** the smallest reproducing plan found *)
  schedule : int list;  (** the smallest reproducing schedule found *)
  tries : int;  (** oracle invocations spent, both halves counted *)
  minimal : bool;
      (** true when the plan's joint fixpoint was reached within the try
          budget *)
}

val shrink :
  ?max_tries:int ->
  reproduces:(Fault_plan.t -> int list -> bool) ->
  ?schedule:int list ->
  Fault_plan.t ->
  outcome
(** [max_tries] caps the plan half's oracle invocations (default [200]);
    the schedule passes are bounded by the schedule's length. The initial
    (plan, schedule) is assumed to reproduce; it is returned (less any
    trailing zero answers) if nothing smaller does. When [minimal] is
    [true] the plan is 1-minimal against both move kinds, so shrinking is
    idempotent — shrinking a shrunk case returns it unchanged (modulo
    oracle invocations spent re-verifying). *)

val canonical : int list -> int list
(** The schedule without its trailing [0] answers, which the chooser
    gives anyway. *)

val candidates : Fault_plan.atom -> Fault_plan.atom list
(** The single-step weakenings of one atom, strongest simplification
    first: ticks bisected toward 0, windows toward length 1, factors /
    percentages / jitter toward their weakest value, behaviours toward
    [Silent]. Exposed so property tests can check 1-minimality of
    {!shrink} output against exactly the moves the shrinker uses. *)
