(** Authenticated length-prefixed wire frames: an in-place writer and an
    incremental, zero-copy decoder.

    Frame layout (little-endian): magic [0xAA] (1) · version (1) · frame
    type (1) · src (1) · dst (1) · payload length (4) · seq (8) · ack (8)
    · payload · CRC-32 (4) · SipHash-2-4 MAC (8), the CRC and MAC both
    taken over header plus payload, the MAC under the directed link's
    {!Auth.derive}d key.

    Frames are written in place into an endpoint's {!out} buffer, so one
    [Unix.write] carries all queued on it; the decoder verifies frames in
    its own buffer and leaves the current one there. Neither allocates
    per frame. Decoding is total: every input yields a frame, a request for more
    bytes, or a structured {!error} — never an escaping exception. A
    decode error poisons the stream (the length prefix is no longer
    trustworthy); the caller drops the connection and relies on the
    perfect link's replay. *)

type ftype = Hello | Data | Ack

type error =
  | Bad_magic of int
  | Bad_version of int
  | Bad_type of int
  | Bad_party of int
  | Oversize of int
  | Bad_crc of { expected : int; got : int }
  | Bad_mac
  | Short_frame  (** [decode_exact] only: input ended mid-frame *)

val pp_error : Format.formatter -> error -> unit

(** {1 Writing} *)

type out  (** encoded frames awaiting the socket *)

val out : unit -> out

val put :
  out -> key:Auth.key -> ftype -> src:int -> dst:int -> seq:int -> ack:int ->
  Bytes.t -> unit
(** Append one frame carrying the payload. [seq] is the link sequence
    number (the connection epoch for HELLO), [ack] the cumulative
    acknowledgement. Raises [Invalid_argument] when the payload exceeds
    4 MiB — a sender bug, not a wire condition. *)

val pending : out -> int
val clear : out -> unit

val write_to : out -> Unix.file_descr -> unit
(** [Unix.write]s everything queued and drops what the socket took.
    Raises as [Unix.write]. *)

(** {1 Reading} *)

type decoder

val decoder : n:int -> key_of:(src:int -> dst:int -> Auth.key) -> decoder
(** [n] bounds the party ids a frame may name; [key_of] supplies the
    per-directed-link MAC key once src/dst are parsed. *)

val reset : decoder -> unit
val feed : decoder -> Bytes.t -> off:int -> len:int -> unit

val read_from : decoder -> Unix.file_descr -> int
(** One [Unix.read] into the decoder's buffer: the bytes read, 0 at end
    of stream. Raises as [Unix.read]. *)

val next : decoder -> (bool, error) result
(** [Ok false]: a frame is still incomplete — feed more bytes. [Ok
    true]: one verified frame was consumed and is current: the accessors
    below read it until the next {!next}, {!feed} or {!read_from}; its
    payload is [payload_len] bytes at [payload_off] of [payload]. [Error
    e]: the stream is poisoned; discard the decoder and the connection. *)

val ftype : decoder -> ftype
val src : decoder -> int
val dst : decoder -> int
val seq : decoder -> int
val ack : decoder -> int
val payload : decoder -> Bytes.t
val payload_off : decoder -> int
val payload_len : decoder -> int

(** {1 Whole frames: views over the same writer and decoder} *)

type frame = {
  ftype : ftype;
  src : int;
  dst : int;
  seq : int;
  ack : int;
  payload : Bytes.t;
}

val encode : key:Auth.key -> frame -> Bytes.t
(** Raises [Invalid_argument] as {!put}. *)

val current : decoder -> frame
(** A copy of the current frame. *)

val decode_exact :
  n:int -> key_of:(src:int -> dst:int -> Auth.key) -> Bytes.t ->
  (frame, error) result
(** One-shot: decode exactly one frame spanning the whole buffer. Torn
    input and trailing garbage are [Error Short_frame]. *)
