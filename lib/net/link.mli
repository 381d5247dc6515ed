(** Perfect-link state machines for one directed link: sequence numbers,
    cumulative ACKs, capped exponential-backoff retransmission, replay
    on reconnect, exactly-once in-order delivery.

    Time is an abstract wire tick supplied by the caller ([~now]);
    nothing here reads a clock, so the retransmission schedule is
    deterministic given the seeded jitter stream — the unit tests pin it
    exactly against a fake clock. *)

(** {1 Sender} *)

type sender

val sender :
  ?window:int -> ?rto0:int -> ?rto_max:int -> rng:Rng.t -> unit -> sender
(** [window] (default 64) bounds in-flight entries — {!submit} applies
    backpressure beyond it. [rto0] (default 8) is the initial
    retransmission timeout in ticks; it doubles per retransmission up to
    [rto_max] (default 256), plus jitter in [0, rto/4] drawn from [rng].
    Raises [Invalid_argument] on a non-positive window or a bad rto
    pair. *)

val submit : sender -> now:int -> Bytes.t -> [ `Accepted of int | `Backpressure ]
(** Queue a payload; on [`Accepted seq] the first transmission is
    harvested by the next {!due}. [`Backpressure] when the window is
    full — the caller must hold the payload and retry after ACKs. *)

val due : sender -> now:int -> (int * Bytes.t) list
(** Entries whose (re)transmission timer has expired: [(seq, payload)]
    to put on the wire now. Each harvested entry's timer is re-armed
    with backoff. *)

val next_due : sender -> int option
(** The earliest tick at which {!due} will harvest an entry, [None] when
    nothing is unacked. *)

val on_ack : sender -> ack:int -> int
(** Cumulative: retires every entry with [seq <= ack], cancelling its
    timer. Returns the number retired (freed window slots). *)

val mark_replay : sender -> unit
(** After a reconnect: every unacked entry becomes due immediately with
    its backoff reset — the replacement connection replays the backlog
    at once. *)

val in_flight : sender -> int
val retransmits : sender -> int

(** {1 Receiver} *)

type receiver

val receiver : ?window:int -> unit -> receiver
(** [window] (default 256) bounds the out-of-order buffer; frames beyond
    it are dropped for later retry. *)

val on_data : receiver -> seq:int -> Bytes.t -> Bytes.t list
(** Payloads now deliverable in order (possibly none — an out-of-order
    arrival waits in the buffer, a duplicate or beyond-window frame
    yields nothing). After any call, send {!cumulative_ack} back —
    duplicates in particular must be re-ACKed. *)

val cumulative_ack : receiver -> int
(** Highest in-order sequence delivered. *)

val duplicates : receiver -> int
(** Replayed or stale frames seen (retransmissions that had already
    arrived) — suppressed, never delivered twice. *)
