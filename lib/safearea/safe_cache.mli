(** Run-scoped memoisation of the safe-area update rule.

    The update rule is a deterministic pure function of the trim level
    and the value multiset, and in synchronous executions every
    honest party evaluates it on the {e same} multiset each iteration (and
    on the same witness reports during Πinit). One cache shared by all
    parties of a run makes those n duplicate evaluations one kernel call
    plus n-1 lookups, without changing any result bit: a hit returns
    exactly what the miss computed from identical inputs.

    Scope a cache to one run. Sharing across pool domains is forbidden
    by the harness determinism contract (no mutable state crosses
    jobs). *)

type t

val create : unit -> t

val new_value_arr : t -> t:int -> Vec.t array -> Vec.t option
(** Same contract as {!Safe_area.new_value_arr}; the multiset is
    canonicalised, so permutations of one multiset hit one entry. *)

(* -- lookup accounting (surfaced in Runner.result) -- *)

val hits : t -> int
(** Lookups answered from the memo. *)

val misses : t -> int
(** Lookups that ran the geometry kernel. *)

val size : t -> int
(** Distinct (trim, multiset) keys currently cached. *)
