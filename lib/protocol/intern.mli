(** Per-party hash-consing of {!Message.payload}s into dense small-int
    ids — the message-layer fast path.

    ΠAA multiplexes Θ(n²) reliable-broadcast instances per iteration,
    each exchanging Θ(n²) echo/ready messages, and most of those
    messages carry one of only a handful of distinct payloads (an
    origin's value vector, or an origin's report — the same [Ppairs]
    list rides through all n² instances that echo it). Interning maps
    each {e structurally distinct} payload to an id exactly once at
    receipt; all further vote accounting is integer comparisons and flat
    array indexing, and the canonical representative is shared in
    memory.

    Hash and equality are specialized per constructor ({!Vec.hash} /
    {!Vec.equal_exact} on vectors — float-array bits, NaN-safe); no
    polymorphic [Stdlib.compare] or [Hashtbl.hash] is involved. Two
    payloads receive the same id iff [Stdlib.compare] would call them
    equal, so interned vote tables partition votes exactly like the
    reference [PayloadMap] did. *)

type t

val create : ?initial_size:int -> ?fixed:bool -> unit -> t
(** A fresh, empty table. [initial_size] (default 64) sizes the bucket
    array; with [fixed:true] the bucket array {e never grows} — a test
    hook that forces hash-collision chains (e.g. [initial_size:1] puts
    every payload in one bucket). Production tables resize at load
    factor 2. *)

val intern : t -> Message.payload -> int
(** The id of the payload: a fresh dense id ([0], [1], [2], …) on first
    sight, the existing id for any structurally equal payload after. *)

val intern_vec : t -> Vec.t -> int
(** [intern t (Pvec v)] without allocating the [Pvec]: the same id, hash,
    chain walk and {!hits}/{!misses}/{!count}. The box is built only when
    [v] is new, to become the canonical representative. *)

val payload : t -> int -> Message.payload
(** The canonical representative interned under this id (the first
    structurally-equal payload received).
    @raise Invalid_argument on an id this table never produced. *)

val intern_payload : t -> Message.payload -> Message.payload
(** [payload t (intern t p)] — canonicalize in one call. *)

val count : t -> int
(** Number of distinct payloads interned so far. *)

val hits : t -> int
(** Lookups that found an existing id (1-entry memo hits included). *)

val misses : t -> int
(** Lookups that allocated a fresh id ([= count] until a {!reset}). *)

val reset : t -> unit
(** Empty the table, keeping its buffers, so a party object can be
    reused across runs without leaking payloads between them. Ids
    restart at [0]. *)
