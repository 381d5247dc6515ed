(** Bracha's Reliable Broadcast (ΠrBC, Theorem 4.2), multiplexed.

    One value of type {!t} holds {e all} reliable-broadcast instances a
    single party participates in, keyed by {!Message.rbc_id}. Instances are
    created lazily on the first message that mentions them, so a party
    echoes and amplifies for instances it never explicitly joined — which
    is exactly what the paper's Validity/Consistency-"even when not all
    honest parties join" and Conditional Liveness properties require.

    Secure for [n > 3t], with [c_rBC = 3] (an honest sender's broadcast
    completes within 3Δ of a synchronous start) and [c'_rBC = 2] (once any
    honest party delivers, all do within 2Δ).

    Every received payload is hash-consed through an {!Intern} table once
    at receipt, instances live in a hashtable with a specialized [rbc_id]
    hash, and votes are flat counters plus per-(payload, sender) bitsets —
    no polymorphic compare on the hot path. The seed [PayloadMap]/[IntSet]
    implementation survives as {!Reference}, a test oracle: on every input
    stream both make callback calls that [compare] equal ([test_rbc.ml]). *)

type t

type callbacks = {
  send_all : Message.t -> unit;
      (** best-effort broadcast to all parties, self included *)
  deliver : Message.rbc_id -> Message.payload -> unit;
      (** invoked exactly once per instance, on output *)
}

val create : ?intern:Intern.t -> n:int -> t:int -> callbacks -> t
(** [t] is the corruption threshold the instance thresholds are computed
    from (the paper uses [ts]); requires [n > 3t]. [intern] lets the
    owning party share one interning table across its sub-protocols
    (fresh private table when omitted). *)

val broadcast : t -> Message.rbc_id -> Message.payload -> unit
(** Act as the designated sender of instance [id] (the caller must be
    [id.origin]): sends the initial value to everyone. *)

val on_message :
  t -> from:int -> Message.rbc_id -> Message.step -> Message.payload -> unit
(** Feed an incoming [Rbc] message. Init steps are only accepted from the
    instance's origin (authenticated channels); echo and ready votes are
    counted at most once per (sender, value). *)

(** The seed message layer, verbatim — [Map]s keyed by polymorphic
    compare over full payloads. A test oracle and bench baseline only;
    protocol code goes through {!create}. *)
module Reference : sig
  type t

  val create : n:int -> t:int -> callbacks -> t
  val broadcast : t -> Message.rbc_id -> Message.payload -> unit

  val on_message :
    t -> from:int -> Message.rbc_id -> Message.step -> Message.payload -> unit
end
