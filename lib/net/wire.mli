(** Authenticated length-prefixed wire frames and their incremental
    decoder.

    Frame layout (little-endian): magic [0xAA] (1) · version (1) · frame
    type (1) · src (1) · dst (1) · payload length (4) · seq (8) · ack (8)
    · payload · CRC-32 (4) · SipHash-2-4 MAC (8), the CRC and MAC both
    taken over header plus payload, the MAC under the directed link's
    {!Auth.derive}d key.

    Decoding is total: every input yields a frame, a request for more
    bytes, or a structured {!error} — never an escaping exception. A
    decode error poisons the stream (the length prefix is no longer
    trustworthy); the caller drops the connection and relies on the
    perfect link's replay. *)

type ftype = Hello | Data | Ack

type frame = {
  ftype : ftype;
  src : int;
  dst : int;
  seq : int64;  (** link sequence number; connection epoch for HELLO *)
  ack : int64;  (** cumulative acknowledgement *)
  payload : Bytes.t;
}

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

val encode : key:Auth.key -> frame -> Bytes.t
(** Raises [Invalid_argument] when the payload exceeds 4 MiB — a sender
    bug, not a wire condition. *)

type decoder

val decoder : n:int -> key_of:(src:int -> dst:int -> Auth.key) -> decoder
(** [n] bounds the party ids a frame may name; [key_of] supplies the
    per-directed-link MAC key once src/dst are parsed. *)

val feed : decoder -> Bytes.t -> off:int -> len:int -> unit
(** Append raw received bytes. *)

val next : decoder -> (frame option, error) result
(** [Ok None]: a frame is still incomplete — feed more bytes. [Ok (Some
    f)]: one verified frame, consumed from the buffer. [Error e]: the
    stream is poisoned; discard the decoder and the connection. *)

val decode_exact :
  n:int ->
  key_of:(src:int -> dst:int -> Auth.key) ->
  Bytes.t ->
  (frame, error) result
(** One-shot: decode exactly one frame spanning the whole buffer. Torn
    input and trailing garbage are [Error Short_frame]. *)
