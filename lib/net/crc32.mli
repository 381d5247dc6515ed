(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]).

    The frame layer's integrity check for {e accidental} corruption; the
    keyed MAC ({!Auth}) handles adversarial frames. *)

val digest_sub : Bytes.t -> off:int -> len:int -> int
(** CRC-32 of [len] bytes starting at [off], in [\[0, 2^32)]. Raises
    [Invalid_argument] on an out-of-bounds slice. *)
