(** Convenience facade: set up an engine, attach parties, run, collect.

    This is the entry point used by the examples and the quickstart. It
    runs honest parties plus (optionally) crash-silent corrupted parties;
    for actively Byzantine behaviours and scripted attacks, drive
    {!Party.attach} together with the [adversary] library through the
    [harness] library instead. *)

type outcome = {
  outputs : (int * Vec.t) list;
      (** outputs of the honest parties, by party id *)
  output_iterations : (int * int) list;  (** party id ↦ [it_h] *)
  completion_time : int;  (** last honest output time, in ticks *)
  histories : (int * (int * Vec.t) list) list;
      (** per honest party: its [(it, v_it)] trajectory *)
  stats : Engine.stats;
}

val run :
  ?seed:int64 ->
  ?policy:Engine.delay_policy ->
  ?silent:int list ->
  ?opts:Party.opts ->
  ?transport:[ `Sim | `Net ] ->
  cfg:Config.t ->
  inputs:Vec.t list ->
  unit ->
  outcome
(** [run ~cfg ~inputs ()] executes ΠAA with [cfg.n] parties holding
    [inputs] (one vector per party, in order). Parties listed in [silent]
    are crash-corrupted from the start: they never send anything. The
    default [policy] is {!Network.lockstep} at [cfg.delta] (worst-case
    synchrony). [opts] (default {!Party.default_opts}) configures every
    party: mode, mutant and message layer.
    [transport] [`Net] routes every message through the loopback TCP
    runtime ({!Netrun}) under the same engine-as-scheduler — the outcome
    is byte-identical to [`Sim] by construction.

    @raise Invalid_argument on input-count or dimension mismatches.
    @raise Failure if some honest party never outputs (a liveness bug or a
    policy outside the model's guarantees). *)
