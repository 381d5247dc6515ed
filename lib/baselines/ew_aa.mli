(** Quadratic-communication asynchronous approximate agreement in the
    style of Erbes–Wattenhofer ("Asynchronous Approximate Agreement with
    Quadratic Communication").

    Structurally this is {!Async_aa} with the reliable-broadcast layer
    removed: values and witness reports travel as {e direct} one-to-all
    messages over the authenticated channels, so one iteration costs
    [2·n] sends per party — Θ(n²) messages per iteration in total, versus
    the Θ(n³) the Bracha-based protocols pay ([n] rBC instances × [n +
    2n²] sends each). Each iteration: broadcast the current value
    directly; wait for [n − t] values into [M]; broadcast [M] as a
    report; mark report senders whose report is a ≥ [n − t]-subset of
    one's own [M] as witnesses; on [n − t] witnesses trim [t] outliers
    via the safe area and adopt the diameter-pair midpoint. A fixed
    iteration count is supplied by the harness, as for {!Async_aa}.

    With rBC gone, nothing intrinsically forces a Byzantine sender to
    show the same value to everyone; the paper layers a lightweight
    consistency mechanism over the direct channels to restore that. This
    module implements an {e echo-confirmation} defence in that role,
    enabled by [?equivocation_defence] (default off, keeping the legacy
    wire behaviour byte-identical for the pinned message-count and
    differential gates):

    - each party records the first value received directly from each
      sender ([raw], first-wins per sender);
    - once [n − t] direct values have arrived it broadcasts its raw pairs
      as {!Message.Ew_echo} {e claims}, and thereafter one delta claim
      per later direct arrival;
    - a pair [(p, v)] is {e confirmed} into the value set [M] once
      [n − t] distinct parties have echoed it. Reports, the witness
      subset test and safe-area adoption all read confirmed [M] only.

    Safety: honest parties echo at most one value per claimed sender, so
    two conflicting pairs for one sender would need [2(n − 2t) ≤ n − t]
    honest echoers — impossible for [n > 3t]. An equivocating value
    therefore either confirms to a single vector everywhere or confirms
    nowhere, which is exactly the guarantee rBC provided in the cubic
    baseline. Liveness: every honest pair is eventually echoed by all
    [n − t] honest parties (in their batch claim or a delta), so it
    confirms everywhere. Cost: one claim broadcast per party plus at most
    [t + 1] deltas — Θ(n²) messages per iteration in the common case,
    preserving the quadratic bound (worst case Θ(t·n²) with maximally
    staggered deliveries).

    Without the defence, an equivocating sender can split honest value
    sets so that no honest report ever passes another party's subset
    test: witness counts stall below [n − t] and {e no honest party
    outputs} — the failure mode pinned by [test_explore]'s equivocation
    test. The monitor grades the defence-off configuration only under
    this repository's non-equivocating adversary universe; see DESIGN.md
    §7. *)

type t

type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
      (** fired when [v_iter] is adopted; also with [iter = 0] for the
          input *)
  on_output : iter:int -> Vec.t -> unit;  (** fired once, on output *)
}

val no_callbacks : callbacks

val attach :
  ?callbacks:callbacks ->
  ?equivocation_defence:bool ->
  n:int ->
  t:int ->
  iters:int ->
  me:int ->
  Message.t Engine.t ->
  t
(** Correct against [t < n/(D+2)] corruptions, any network. Convenience
    wrapper over {!attach_endpoint} with the simulator's endpoint. *)

val attach_endpoint :
  ?callbacks:callbacks ->
  ?equivocation_defence:bool ->
  t:int ->
  iters:int ->
  Message.t Transport.endpoint ->
  t
(** Attach onto an arbitrary transport endpoint ([n] comes from the
    endpoint), simulator or net alike. [equivocation_defence] (default
    [false]) switches the value path to echo-confirmation as described
    above; off, the wire behaviour is byte-identical to previous
    versions. *)

val start : t -> Vec.t -> unit
val output : t -> Vec.t option
val output_iteration : t -> int option
(** The iteration the output was adopted at ([iters]), once output. *)

val value_history : t -> (int * Vec.t) list
val output_time : t -> int option
