(** Dense vectors in [R^D] and basic Euclidean geometry over finite sets.

    All protocol values, robot positions, gradients etc. are represented as
    values of type {!t}. Vectors are immutable from the point of view of this
    interface: every operation allocates a fresh result. *)

type t = private float array
(** A point of [R^D]. The dimension is the array length. *)

val dim : t -> int
(** [dim v] is the dimension [D] of [v]. *)

val of_array : float array -> t
(** [of_array a] copies [a] into a fresh vector. *)

val of_list : float list -> t

val to_array : t -> float array
(** [to_array v] is a fresh copy of the coordinates of [v]. *)

val to_list : t -> float list

val get : t -> int -> float
(** [get v d] is the projection of [v] on coordinate [d] (0-indexed). *)

val zero : int -> t
(** [zero d] is the origin of [R^d]. *)

val basis : dim:int -> int -> float -> t
(** [basis ~dim d s] is [s·e_d]: the vector with [s] at coordinate [d]
    and [0.] elsewhere. Raises [Invalid_argument] if [d] is out of range. *)

val make : int -> float -> t
(** [make d x] is the [d]-dimensional vector with every coordinate [x]. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val dot : t -> t -> float

val norm : t -> float
(** Euclidean norm. *)

val dist : t -> t -> float
(** [dist u v] is the Euclidean distance [δ(u, v)] of Definition 2.1. *)

val dist2 : t -> t -> float
(** Squared Euclidean distance (no square root; cheaper for comparisons). *)

val midpoint : t -> t -> t
(** [midpoint a b = (a + b) / 2]. *)

val lincomb : (float * t) list -> t
(** [lincomb [(l1,v1); ...]] is [Σ li·vi]. The list must be non-empty and all
    vectors of equal dimension. *)

val normalize : t -> t option
(** [normalize v] is [v / |v|], or [None] when [|v|] is (numerically) [0]. *)

val compare : t -> t -> int
(** Total lexicographic order on [R^D], used for the deterministic
    tie-breaking the protocol relies on. Shorter vectors come first. *)

val equal_exact : t -> t -> bool
(** [equal_exact u v] iff [compare u v = 0]: same dimension and every
    coordinate equal under [Float.compare] (so NaNs compare equal to NaNs,
    and [0.] = [-0.]). The exact-identity relation the message-layer
    interning uses — no tolerance. *)

val same_bits : t -> t -> bool
(** Bitwise equality: as {!equal_exact}, but [0.] and [-0.] differ. *)

val hash : t -> int
(** A structural hash of the coordinate bits, consistent with
    {!equal_exact}: [equal_exact u v] implies [hash u = hash v] (all NaNs
    hash alike). Never calls the polymorphic [Hashtbl.hash]. *)

val diameter : t list -> float
(** [diameter vs] is [δmax(vs) = max δ(v, v')], [0.] on short lists. *)

val diameter_pair : t list -> (t * t) option
(** The pair realizing {!diameter}, chosen deterministically: among
    maximal-distance pairs, the one with lexicographically smallest first
    point, then smallest second point. [None] if fewer than one point. *)

val centroid : t list -> t
(** Arithmetic mean of a non-empty list. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
