(** The pure-synchronous baseline: round-driven [D]-AA in the style of
    Vaidya–Garg / Mendes–Herlihy, resilience [(D+1)·t < n].

    Each round lasts exactly Δ: parties best-effort broadcast their current
    value at the round start and, at the round's end, trim
    [k = received − (n − t)] outliers via the safe area and adopt the
    midpoint of its diameter pair. After a fixed number of rounds (derived
    from known input bounds, which this family of protocols assumes) the
    current value is output.

    The protocol is cheap — no reliable broadcast, no witnesses — but its
    guarantees evaporate the moment a message takes longer than Δ: a late
    honest value is silently dropped from that round's set, which is
    exactly the failure mode experiment E12 measures. *)

type t

val attach_endpoint :
  t:int -> rounds:int -> delta:int -> Message.t Transport.endpoint -> t
(** Attach onto an arbitrary transport endpoint ([n] comes from the
    endpoint). Requires [(n > (D+1)·t)] for its guarantees, but this is
    not checked here — the baseline is deliberately runnable outside its
    envelope. *)

val start : t -> Vec.t -> unit
val output : t -> Vec.t option

val output_time : t -> int option
(** The end of the last round, once output. *)

val value_history : t -> (int * Vec.t) list
(** [(round, value-after-round)] pairs, ascending; round 0 is the input.
    A {e starved} round — fewer than [n − t] values arrived, or they had
    no safe area — keeps the old value and has no entry, so
    [rounds + 1 − length] counts them: always 0 under synchrony,
    positive when the synchrony assumption broke. *)
