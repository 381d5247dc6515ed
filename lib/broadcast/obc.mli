(** Overlap All-to-All Broadcast (ΠoBC, Section 4.2) — one instance, for one
    party and one iteration.

    Every party reliably broadcasts its value; after [c_rBC·Δ], once
    [n − ts] values are in, the party reports its collected set best-effort;
    senders of fully-verified reports become {e witnesses}; after
    [(c_rBC + c'_rBC)·Δ], once [n − ts] witnesses are marked, the party
    outputs its (current) collected set.

    Timing guards re-fire on every event: the owner must route its timer
    wake-ups to {!poke} and arrange timers at the two deadline instants
    (done automatically via the [set_timer] callback on {!start}).

    The [witnessing] flag exists only for the E5 ablation: switching it off
    skips the witness phase and outputs on the first deadline, losing the
    [(ts, ta)]-Overlap guarantee under asynchrony.

    The collected set and every pending report are flat party-indexed
    arrays of {!Intern} value ids, so report verification is O(n) int
    compares instead of a [Pairset.subset] of float vectors on every event.
    The seed Pairset/Map code survives as {!Reference}, a test oracle: on
    every input stream both make callback calls that [compare] equal
    ([test_obc.ml]). *)

type t

type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;  (** must eventually trigger {!poke} *)
  rbc_broadcast : Message.payload -> unit;
      (** start our own rBC instance for this iteration's value *)
  send_all : Message.t -> unit;  (** best-effort broadcast *)
  output : int array -> Vec.t array -> unit;
      (** fired exactly once, with the collected set: its parties in
          ascending order, and their values in the same order *)
}

val create :
  ?intern:Intern.t ->
  ?witnessing:bool ->
  n:int ->
  ts:int ->
  delta:int ->
  iter:int ->
  callbacks ->
  t
(** [intern] shares the owning party's interning table (fresh private
    table when omitted) — pass the same table as the party's {!Rbc} so
    value ids agree across the layers. *)

val start : t -> Vec.t -> unit
(** Join the protocol with our value; records the local start time. *)

val on_value : t -> origin:int -> Vec.t -> unit
(** An rBC instance [(Obc_value iter, origin)] delivered [origin]'s value. *)

val on_report : t -> from:int -> (int * Vec.t) list -> unit
(** A best-effort [Obc_report] arrived. Only the first report per sender is
    retained (honest parties send exactly one). *)

val poke : t -> unit
(** Re-evaluate all guards (call on timer wake-ups). *)

(** The seed Pairset/Map implementation, verbatim — a test oracle only;
    protocol code goes through {!create}. *)
module Reference : sig
  type t

  val create :
    ?witnessing:bool -> n:int -> ts:int -> delta:int -> iter:int ->
    callbacks -> t

  val start : t -> Vec.t -> unit
  val on_value : t -> origin:int -> Vec.t -> unit
  val on_report : t -> from:int -> (int * Vec.t) list -> unit
  val poke : t -> unit
end
