(** Byte-exact binary round-trip for {!Message.t}.

    Vector coordinates travel as raw IEEE-754 bit patterns, so decoding
    reproduces the sender's floats exactly — the sim-as-oracle
    differential depends on it. Integrity is the frame layer's job; a
    malformed buffer here means a local bug and raises {!Malformed}.
    Writing and reading allocate nothing but their result. *)

exception Malformed of string

val encode : Message.t -> Bytes.t
val decode : Bytes.t -> Message.t
(** Raises {!Malformed} on truncation, unknown constructor codes,
    implausible length prefixes, or trailing bytes. *)

val encode_record : engine_seq:int -> deliver_at:int -> Message.t -> Bytes.t
(** The net backend's DATA payload: the engine-allocated sequence number
    and delivery tick (little-endian int64s) ride with the message so the
    receiving side can re-insert it under the exact event-queue key a
    direct send would have used. *)

type reader

val reader : unit -> reader

val read_record : reader -> Bytes.t -> off:int -> len:int -> Message.t
(** Decodes the record that fills exactly [len] bytes at [off]; then
    {!engine_seq} and {!deliver_at} hold its metadata. Raises
    {!Malformed} as {!decode}. *)

val engine_seq : reader -> int
val deliver_at : reader -> int

val decode_record : Bytes.t -> int * int * Message.t
(** [(engine_seq, deliver_at, msg)] of a whole buffer. *)
