(** Πinit (Section 5): witness-based estimation of a starting value [v0]
    inside the honest inputs' convex hull and of a sufficient iteration
    count [T].

    Values are distributed via ΠrBC; collected sets are {e reliably}
    re-broadcast as reports; validated report senders become witnesses and
    an estimation of their new value is computed deterministically from
    their report; witness sets are exchanged best-effort and validated
    senders become double-witnesses, guaranteeing [n − ts] common
    estimations between any two honest parties even under asynchrony.

    The [double_witnessing] flag exists only for the E8 ablation. *)

type t

type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;  (** must eventually trigger {!poke} *)
  rbc_broadcast : Message.tag -> Message.payload -> unit;
      (** reliably broadcast as ourselves under the given tag *)
  send_all : Message.t -> unit;  (** best-effort broadcast *)
  output : int -> Vec.t -> unit;  (** [output T v0], fired exactly once *)
}

val create :
  ?double_witnessing:bool ->
  ?safe_cache:Safe_cache.t ->
  n:int -> ts:int -> ta:int -> delta:int -> eps:float ->
  callbacks -> t
(** [safe_cache] memoises the estimation rule's update values (per-witness
    and final); see {!Party.attach}. Fresh per instance when omitted. *)

val start : t -> Vec.t -> unit

val on_value : t -> origin:int -> Vec.t -> unit
(** rBC delivery of an [Init_value] instance. *)

val on_report : t -> origin:int -> (int * Vec.t) list -> unit
(** rBC delivery of an [Init_report] instance. *)

val on_witness_set : t -> from:int -> int list -> unit
(** Best-effort [Witness_set] message. *)

val poke : t -> unit
val has_output : t -> bool

val estimations : t -> Pairset.t
(** The current estimation set [I_e] (exposed for the E8 experiment). *)
