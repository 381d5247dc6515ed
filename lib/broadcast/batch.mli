(** Egress buffer for the batched message layer.

    Collects every rBC vote a party emits during one delivery tick —
    across all concurrent Bracha instances — and flushes them as a single
    combined {!Message.Rbc_batch} broadcast (one packet per receiver).
    Wire the {!flush} into [Engine.set_flusher] so it runs at the end of
    each tick; a singleton buffer is flushed as a plain {!Message.Rbc}
    packet. Batching is behaviour-preserving under RNG-free delay
    policies (see the implementation comment for the argument). *)

type t

val create : send_all:(Message.t -> unit) -> t
(** [send_all] broadcasts one packet to every party — the same primitive
    the unbatched layer hands to [Rbc]. *)

val add : t -> Message.rbc_id -> Message.step -> Message.payload -> unit
(** Buffer one outgoing vote (in emission order). *)

val flush : t -> unit
(** One end-of-tick fire: emit the buffered votes as one combined
    broadcast; no-op when empty. *)

val pending : t -> int
(** Votes currently buffered. *)

val buffered : t -> int
(** Lifetime votes buffered (for tests / accounting). *)

val flushes : t -> int
(** Lifetime non-empty flushes. *)
