(** Mini-networks that drive a single sub-protocol in isolation, for the
    per-primitive experiments (E4, E5, E8) and focused tests. *)

type rbc_obs = {
  rbc_deliveries : (int * Message.payload * int) list;
      (** (party, payload, delivery time) *)
}

val run_rbc :
  ?seed:int64 ->
  n:int ->
  t:int ->
  policy:Engine.delay_policy ->
  honest:int list ->
  sender:[ `Honest of int * Message.payload
         | `Equivocator of int * Message.payload * Message.payload ] ->
  unit ->
  rbc_obs
(** One reliable-broadcast instance. With [`Equivocator], the sender sends
    the first payload to the lower half and the second to the upper half,
    echoing both. *)

type obc_obs = {
  obc_outputs : (int * Pairset.t * int) list;  (** (party, set, time) *)
}

val run_obc :
  ?seed:int64 ->
  ?witnessing:bool ->
  ?start_delays:(int * int) list ->
  n:int ->
  ts:int ->
  delta:int ->
  policy:Engine.delay_policy ->
  inputs:(int * Vec.t) list ->
  unit ->
  obc_obs
(** One ΠoBC instance per listed (honest) party; unlisted parties are
    silent-corrupt. Parties in [start_delays] join that many ticks late —
    their values then race other parties' collection deadlines, which is
    how report sets diverge. *)

type init_obs = {
  init_results : (int * int * Vec.t * int) list;
      (** (party, T, v0, output time) *)
  init_estimations : (int * Pairset.t) list;  (** party ↦ its I_e *)
}

val run_init :
  ?seed:int64 ->
  ?double_witnessing:bool ->
  n:int ->
  ts:int ->
  ta:int ->
  delta:int ->
  eps:float ->
  policy:Engine.delay_policy ->
  inputs:(int * Vec.t) list ->
  unit ->
  init_obs
(** One Πinit per listed (honest) party. *)
