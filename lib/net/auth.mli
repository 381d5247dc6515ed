(** Per-link frame authentication: SipHash-2-4 under keys derived from
    one master key.

    Realises the model's authenticated channels over real sockets: every
    directed link [(src, dst)] MACs its frames under its own derived key,
    so corrupted, cross-link, or reflected frames never verify. The MAC
    is a keyed integrity check against the chaos the harness injects —
    {e not} a safeguard against a party that holds the master key (see the
    implementation header). *)

type key = { k0 : int64; k1 : int64 }

val of_master : int64 -> key
(** Expand a 64-bit master secret into a 128-bit SipHash key. *)

val derive : key -> src:int -> dst:int -> key
(** The directed link [(src, dst)]'s frame key. *)

val mac : key -> Bytes.t -> off:int -> len:int -> int64
(** SipHash-2-4 tag of the slice. Raises [Invalid_argument] on an
    out-of-bounds slice. *)
