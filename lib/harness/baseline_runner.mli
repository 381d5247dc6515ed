(** The iteration budget of the baselines ({!Scenario.Pure_sync},
    {!Scenario.Pure_async}) and of EW, which, unlike ΠAA, do not
    estimate it themselves. *)

val rounds_for : eps:float -> inputs:Vec.t list -> int
(** [⌈log_{√(7/8)}(ε / δmax(inputs))⌉], clamped to ≥ 1 — derived from the
    (assumed-known) input spread the way the baselines' original papers
    do. *)
