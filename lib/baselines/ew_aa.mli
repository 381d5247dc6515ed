(** Witness-based asynchronous approximate agreement, resilience
    [(D+2)·t < n], over one of two channels ({!channel}): the
    pure-asynchronous baseline in the style of Mendes–Herlihy (values and
    reports reliably broadcast) and the quadratic-communication protocol
    in the style of Erbes–Wattenhofer ("Asynchronous Approximate
    Agreement with Quadratic Communication": the same loop with the
    reliable-broadcast layer removed).

    Entirely count-driven — no clocks, no Δ. Each iteration: broadcast
    the current value; wait for [n − t] values into [M]; broadcast [M] as
    a report; mark report senders whose report is a ≥ [n − t]-subset of
    one's own [M] as witnesses; on [n − t] witnesses trim [t] outliers
    via the safe area and adopt the diameter-pair midpoint. A fixed
    iteration count is supplied by the harness (the full protocols
    estimate it; the harness supplies the same estimate Πinit would
    give, keeping the comparison fair).

    On the [Direct] channel values and witness reports travel as
    one-to-all messages over the authenticated channels — Θ(n²) messages
    per iteration in total, versus the Θ(n³) the [Reliable] channel pays
    ([n] Bracha rBC instances × [n + 2n²] sends each). Against at most
    [t] corruptions the protocol is correct in {e any} network; with
    [ts > t] corruptions under synchrony — the regime the hybrid
    protocol exploits — its trim level is too low and validity breaks,
    which experiment E12 measures.

    With rBC gone, nothing intrinsically forces a Byzantine sender to
    show the same value to everyone; the paper layers a lightweight
    consistency mechanism over the direct channels to restore that. The
    [Direct] channel implements it as {e echo confirmation}:

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
    nowhere, which is exactly the guarantee rBC provides on the
    [Reliable] channel. Liveness: every honest pair is eventually echoed
    by all [n − t] honest parties (in their batch claim or a delta), so
    it confirms everywhere. Cost per party and iteration: one value, one
    claim broadcast plus at most [t + 1] deltas, and one report —
    Θ(n²) messages per iteration in the common case, preserving the
    quadratic bound (worst case Θ(t·n²) with maximally staggered
    deliveries). *)

type t

type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
      (** fired when [v_iter] is adopted; also with [iter = 0] for the
          input *)
  on_output : iter:int -> Vec.t -> unit;  (** fired once, on output *)
}

val no_callbacks : callbacks

type channel =
  | Direct
      (** values and reports as direct {!Message.Ew_value} /
          {!Message.Ew_report} messages, values confirmed by
          {!Message.Ew_echo} claims *)
  | Reliable
      (** values and reports reliably broadcast ({!Rbc}, tags
          {!Message.Async_value} / {!Message.Async_report}): the
          pure-asynchronous baseline. rBC already gives echo
          confirmation's guarantee, so the two cannot be combined. *)

val attach_endpoint :
  ?callbacks:callbacks ->
  channel:channel ->
  t:int ->
  iters:int ->
  Message.t Transport.endpoint ->
  t
(** Attach onto an arbitrary transport endpoint ([n] comes from the
    endpoint), simulator or net alike. [Reliable] requires [n > 3t]. *)

val start : t -> Vec.t -> unit
val output : t -> Vec.t option
val output_iteration : t -> int option
(** The iteration the output was adopted at ([iters]), once output. *)

val value_history : t -> (int * Vec.t) list
val output_time : t -> int option
