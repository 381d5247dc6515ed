(** Sets of value–party pairs [M ⊆ R^D × {P_0, …, P_{n−1}}].

    The paper's protocol never holds two pairs with the same party, so the
    set is keyed by party identifier. [val(M)] (a multiset of vectors) is
    {!values}: two parties may well contribute the same vector. *)

type t

val empty : t
val cardinal : t -> int

val add : party:int -> Vec.t -> t -> t
(** [add ~party v m] binds [party ↦ v]. An existing binding for [party] is
    kept unchanged (first value received via reliable broadcast wins, which
    matches the protocol: consistency makes duplicates identical anyway). *)

val mem_party : int -> t -> bool
val find_party : int -> t -> Vec.t option

val values : t -> Vec.t list
(** [val(M)] as a list, in increasing party order (deterministic). *)

val values_arr : t -> Vec.t array
(** [val(M)] as an array, in increasing party order; feeds the array-native
    safe-area path without an intermediate list. *)

val parties : t -> int list
val bindings : t -> (int * Vec.t) list
val of_bindings : (int * Vec.t) list -> t

val subset : t -> t -> bool
(** [subset m m'] holds when every pair of [m] occurs in [m'] (same party
    {e and} same value, exact float equality as produced by broadcast). *)

val inter : t -> t -> t
(** Pairs present in both (party and value equal). *)

val union : t -> t -> t
(** Union of pairs; on a party bound in both, the left value wins. *)

val diameter : t -> float
(** [δmax(val(M))]. *)
