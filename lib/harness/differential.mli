(** Sim-as-oracle differential harness for the networked runtime.

    Every pinned-grid scenario runs three times: on the simulator
    backend, on the loopback TCP backend ({!Netrun}), and on the TCP
    backend under frame-level chaos ({!Wire_chaos}). The net backend is
    exact w.r.t. the engine schedule by construction, so the contract is
    the strongest one possible: after masking the transport tag and the
    (kernel-scheduling-dependent) wire statistics, the three {!Runner}
    results must be {e structurally identical} — outputs, iteration
    trajectories, engine statistics, traffic tables and the online
    {!Monitor} verdict alike. Any frame the perfect link fails to mask,
    any message lost or duplicated at the logical layer, shows up as a
    mismatch here. *)

type verdict = {
  name : string;
  net_ok : bool;  (** plain net run identical to the sim oracle *)
  chaos_ok : bool;  (** chaos net run identical to the sim oracle *)
  monitor_clean : bool;
      (** the chaos run's monitor recorded zero violations *)
  detail : string option;  (** first differing field on any mismatch *)
  wire : Netrun.wire_stats;  (** plain net run *)
  chaos_wire : Netrun.wire_stats;  (** chaos net run *)
}

type report = {
  verdicts : verdict list;
  cases : int;
  failures : int;  (** verdicts with any of the three checks false *)
}

val pinned_grid : unit -> Scenario.t list
(** The pinned differential grid: configs (D, n, ts, ta) ∈ {(1,4,1,0),
    (1,8,2,1), (2,4,1,0), (2,8,2,1)}, sync runs under lockstep and
    sync-uniform policies, async runs under async-uniform, each with no
    corruption, budget-many [Silent] parties, and budget-many
    input-poisoning ([Honest_with_input]) parties (corruption arms are
    skipped where the mode's budget is zero). Seeds, inputs and policies
    are all pinned — the grid is identical on every invocation. *)

val default_wire_chaos : Wire_chaos.plan
(** The chaos arm's frame-fault plan: 15% drop, 10% duplicate, 10%
    reorder (hold 3) on every directed link, a delay spike on links out
    of party 0, and one connection flap on the (0,1) pair. *)

val run_case : Scenario.t -> verdict
(** Runs the three arms for one scenario (the scenario's [transport] is
    overridden per-arm) and compares. The scenario's wall budget bounds
    each arm's wire pump. *)

val execute : ?log:(string -> unit) -> unit -> report
(** {!run_case} over {!pinned_grid}, in order. [log] (default silent)
    receives a one-line progress message per case. *)

val passed : report -> bool

val pp : Format.formatter -> report -> unit
(** The per-case verdicts. Deterministic: no wire statistic appears. *)

val pp_chaos_totals : Format.formatter -> report -> unit
(** One line: the chaos arms' dropped, duplicated and retransmitted
    frames and reconnects, summed over the grid. These depend on kernel
    scheduling and differ from run to run. *)
