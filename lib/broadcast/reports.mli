(** The witness check of ΠoBC and Πinit: a report whose entries all
    match the collected set M, and that holds at least [n − ts] of them,
    makes its sender a witness.

    Each sender's report is a row of party ↦ id ([-1] absent) in one
    preallocated n × n matrix, so storing a report, re-checking the
    pending ones on every event and verifying them allocate nothing. The
    ids are what the owner compares by: {!Intern} value ids against M's,
    or one constant id against a party set (Πinit's witness sets). *)

type t

val create : n:int -> need:int -> t
(** Rows for senders [0 … n−1]; a report verifies with [need] entries. *)

val reset : t -> unit
(** Forget every row, as if fresh from {!create}. *)

val accept : t -> int -> bool
(** [accept t s] opens [s]'s row if [s] is in range and sent no report
    before, and says whether it did: one report per sender. *)

val free : t -> int -> int -> bool
(** [free t s p]: [p] is in range and not yet in [s]'s row, so the first
    entry per party wins. *)

val set : t -> int -> int -> int -> unit
(** [set t s p id] records a {!free} entry. *)

val id : t -> int -> int -> int
(** [id t s p] is [p]'s id in [s]'s row, [-1] when absent. *)

val count : t -> int -> int
(** Entries in [s]'s row. *)

val verify : t -> int array -> ('a -> int -> unit) -> 'a -> unit
(** [verify t m f x] calls [f x s], in ascending [s], for each pending
    report that holds at least [need] entries, all equal to [m]'s
    (party ↦ id, [-1] absent), and stops tracking it. *)
