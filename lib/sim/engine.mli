(** The deterministic discrete-event network simulator.

    [n] parties exchange messages of an arbitrary type ['msg]. Time is an
    integer tick count; the synchrony bound Δ and every delay policy are
    expressed in ticks. A run is fully determined by the seed, the delay
    policy, and the party handlers: the event queue breaks time ties by a
    global sequence number.

    The adversary's scheduling power is exactly the {!delay_policy}: it
    sees the sender, the destination and the current time and picks the
    delivery delay. Synchronous policies must return delays [≤ Δ];
    asynchronous policies may return anything finite (eventual delivery).

    Parties may be replaced at any point with {!set_party} (adaptive
    corruption). Messages carry their true source: channels are
    authenticated. *)

type time = int

type 'msg event = 'msg Transport.event =
  | Deliver of { src : int; msg : 'msg }
  | Timer of int  (** protocol-chosen tag *)

type delay_policy = rng:Rng.t -> now:time -> src:int -> dst:int -> time
(** Returns the delivery delay in ticks, clamped below to [1] by the
    engine. *)

type 'msg t

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_delivered : int;
  final_time : time;
  events_processed : int;
  party_failures : int;
      (** handler exceptions captured under [`Isolate] (see
          {!set_isolation}); always [0] under the default [`Fail_fast] *)
}

val create :
  ?seed:int64 ->
  ?size_of:('msg -> int) ->
  ?classes:int ->
  ?classify:('msg -> (int -> int -> unit) -> unit) ->
  n:int ->
  policy:delay_policy ->
  unit ->
  'msg t
(** [size_of] is used only for byte accounting (default: 0 per message).

    [classes]/[classify] enable per-class accounting on the send path:
    [classify msg emit] is invoked once per sent message and calls
    [emit klass bytes] for each accounting entry it attributes to the
    message — usually once, but a batched packet may emit once per
    logical entry it carries, so the classifier is a fold rather than a
    plain classification function. [klass] must lie in
    [0 .. classes - 1]. Free when [classes = 0] (the default). *)

val n : 'msg t -> int
val now : 'msg t -> time
val rng : 'msg t -> Rng.t
(** The engine's RNG stream (shared with the delay policy). *)

val set_party : 'msg t -> int -> ('msg event -> unit) -> unit
(** Installs (or replaces) the event handler of a party. A party without a
    handler silently discards its events (a crashed party). *)

val clear_party : 'msg t -> int -> unit
(** Removes the handler (and any registered flusher): the party crashes. *)

val set_flusher : 'msg t -> int -> (final:bool -> unit) -> unit
(** Registers an end-of-tick flush hook for party [i]. All registered
    flushers run, in party-index order, exactly once per tick value —
    when the run loop is about to advance simulated time past the
    current tick, and when the event queue drains. This is the seam the
    batched message layer uses: a party buffers its outgoing votes
    during a tick and emits one combined packet per receiver when its
    flusher fires. Flushed sends are ordinary sends (delay ≥ 1), so a
    flush can never cascade within the same tick. Cleared together with
    the handler by {!clear_party} and by [`Isolate] failure capture.

    When the run is about to go quiescent (queue drained, no per-tick
    flush produced traffic, wire drained) every flusher additionally
    runs with [final = true]: a hook holding cross-tick state (the
    opt-in batch window) must emit it then or lose it. Hooks that flush
    everything on every call can ignore the flag. *)

val endpoint : 'msg t -> me:int -> 'msg Transport.endpoint
(** Party [me]'s view of this engine as an abstract {!Transport.endpoint}
    — the seam that keeps protocol code free of engine specifics.
    [send_all] is {!broadcast}, [set_timer] {!set_timer},
    [register_flush] {!set_flusher}, [set_handler] {!set_party}. *)

val wrap_party : 'msg t -> int -> (('msg event -> unit) -> 'msg event -> unit) -> unit
(** [wrap_party t i f] replaces party [i]'s handler [h] with [f h] — the
    hook the chaos layer uses to interpose duplicate-delivery and
    adaptive-corruption triggers without the party's cooperation. No-op
    when the party has no handler (already crashed). *)

type failure = { party : int; at : time; reason : string }

type isolation = [ `Fail_fast | `Isolate ]

val set_isolation : 'msg t -> isolation -> unit
(** Under the default [`Fail_fast], an exception escaping a party handler
    aborts {!run} (and with it a whole pooled batch). Under [`Isolate] the
    exception is caught: the failure is recorded (see {!failures}, the
    [party_failures] stats counter and the [Party_failed] trace event) and
    the party is cleared — treated as crashed from that tick — so the rest
    of the run continues. *)

val failures : 'msg t -> failure list
(** Captured handler failures, in chronological order. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueues a message; its delivery time comes from the policy. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** [send] to every party, including [src] itself. *)

val set_timer : 'msg t -> party:int -> at:time -> tag:int -> unit
(** Wakes [party] with [Timer tag] at absolute time [at] (clamped to the
    present). Timers fire after message deliveries scheduled at the same
    tick that were enqueued earlier. *)

val run :
  ?until:time ->
  ?max_events:int ->
  ?on_budget:[ `Raise | `Stop ] ->
  ?should_stop:(unit -> bool) ->
  'msg t ->
  unit
(** Processes events in (time, sequence) order until the queue is empty,
    [until] is passed, or exactly [max_events] events have fired (default
    [10_000_000]). Attempting to process event [max_events + 1] under the
    default [~on_budget:`Raise] raises [Failure] {e before} popping it, so
    neither the clock nor the event counter move past the budget — it
    indicates a run-away protocol. Under [~on_budget:`Stop] the run
    instead returns normally with {!stop_reason} [= `Event_budget] (the
    harness watchdog path: a structured outcome, never a bare exception).

    [should_stop] is a cooperative cancellation flag, polled between
    events once every 64 processed events (so a wall-clock deadline
    closure is cheap); when it returns [true] the run returns with
    {!stop_reason} [= `Cancelled], leaving the queue intact. It cannot
    interrupt a handler that never returns. *)

type stop_reason = [ `Quiescent | `Past_until | `Event_budget | `Cancelled ]

val stop_reason : 'msg t -> stop_reason
(** Why the {e last} {!run} returned: [`Quiescent] (queue drained — also
    the value before any run), [`Past_until], [`Event_budget] (only under
    [~on_budget:`Stop]) or [`Cancelled] (via [should_stop]). *)

val quiescent : 'msg t -> bool
(** No pending events. *)

val stats : 'msg t -> stats

val class_messages : 'msg t -> int array
(** Per-class sent-message counts (a copy, length [classes]), as
    attributed by the [classify] hook given to {!create}. Empty when
    accounting is off. *)

val class_bytes : 'msg t -> int array
(** Per-class sent-byte counts, same layout as {!class_messages}. *)

type 'msg trace_event =
  | Sent of { src : int; dst : int; at : time; deliver_at : time; msg : 'msg }
  | Delivered of { src : int; dst : int; at : time; msg : 'msg }
  | Timer_fired of { party : int; at : time; tag : int }
  | Party_failed of failure
      (** emitted only under [`Isolate] when a handler raised *)

type 'msg wire = {
  wire_send : src:int -> dst:int -> seq:int -> deliver_at:time -> 'msg -> unit;
      (** take custody of a sent message: it must eventually come back
          through {!inject} with the same [seq]/[deliver_at] *)
  wire_pump : unit -> bool;
      (** move every in-flight message through the physical layer and
          {!inject} it; [true] iff anything entered the queue *)
}

val set_wire : 'msg t -> 'msg wire -> unit
(** Attaches a physical message layer below the engine. With a wire set,
    {!send} still draws the delay policy, counts stats and fires the
    [Sent] trace exactly as before, but instead of pushing the delivery
    event it allocates the event sequence number and hands
    [(src, dst, seq, deliver_at, msg)] to [wire_send]. The run loop calls
    [wire_pump] whenever the queue drains or simulated time is about to
    advance, so every in-flight message is re-injected before any event
    of a later tick is processed — the pop order (and hence the whole
    run) is identical to the direct path. A perfect physical layer must
    lose nothing; [lib/net]'s retransmit/ACK link provides that over real
    sockets. *)

val clear_wire : 'msg t -> unit

val inject :
  'msg t -> src:int -> dst:int -> seq:int -> deliver_at:time -> 'msg -> unit
(** Wire-side re-insertion of a message previously handed to [wire_send]:
    enters the event queue under the exact key a direct send would have
    used (the carried [seq] breaks time ties). Stats were already counted
    at send time — inject counts nothing. *)

val set_tracer : 'msg t -> ('msg trace_event -> unit) -> unit
(** Installs a hook invoked on every send, delivery and timer. Used for
    per-primitive traffic accounting and debugging; absent by default and
    free when unset. *)

val clear_tracer : 'msg t -> unit

(** {2 Choice points — the explorer's seam}

    All nondeterminism the engine resolves by itself lives in one place:
    when several events are pending at the minimal tick, the (time, seq)
    key order decides which fires first. A {e chooser} intercepts exactly
    that decision. With a chooser set, the run loop gathers every entry of
    the minimal tick into a candidate array (in seq, i.e. default-pop,
    order), asks the chooser for an index, processes that event and
    re-inserts the rest under their original keys. A chooser that always
    answers [0] therefore reproduces the default schedule byte-for-byte —
    the invariant the differential tests pin — while [lib/explore]
    enumerates the other answers to model-check small configurations.

    The chooser is only consulted when at least two events share the
    minimal tick; single-candidate pops take the ordinary path. *)

type 'msg choice = {
  ch_at : time;  (** the tick every candidate shares *)
  ch_seq : int;  (** engine sequence number (the default tiebreaker) *)
  ch_target : int;  (** receiving party *)
  ch_event : 'msg event;
}

val set_chooser : 'msg t -> ('msg choice array -> int) -> unit
(** [choose] receives the same-tick candidates sorted by [ch_seq]
    (ascending — index 0 is what the engine would pop by default) and
    must return an index into the array; anything out of range raises
    [Invalid_argument] from {!run}. *)

val clear_chooser : 'msg t -> unit

val pending : 'msg t -> 'msg choice list
(** Snapshot of the whole event queue, sorted by [(ch_at, ch_seq)]; does
    not disturb the heap. The explorer folds this into its canonical
    state fingerprint. O(queue · log queue) — not for hot paths. *)

val has_handler : 'msg t -> int -> bool
(** Whether party [i] currently has a handler installed ([false] for
    crashed/cleared parties, and for out-of-range [i]). Events to
    handler-less targets are no-ops, which the explorer's pruning uses. *)
