(** Per-primitive traffic accounting.

    Classifies every sent message by the protocol layer it belongs to, so
    the cost experiments can report where the O(n²)s go. Two groupings
    coexist: the {e physical} classes ({!Init_rbc} … {!Ew}) partition the
    packets actually sent, while the {e step} classes ({!Step_init},
    {!Step_echo}, {!Step_ready}) attribute each logical rBC vote — whether
    it travelled as its own packet or as one entry of an {!Message.Rbc_batch}
    — to its Bracha step. Step rows therefore overlap the physical rows
    and are excluded from {!total}.

    The counts come from the engine's send-path class counters:
    {!classify_into} passed to [Engine.create], then {!of_engine}. *)

type klass =
  | Init_rbc  (** Πinit: value and report reliable broadcasts *)
  | Iteration_rbc  (** ΠoBC value distribution, per iteration *)
  | Halt_rbc  (** [(halt, it)] reliable broadcasts *)
  | Obc_reports  (** ΠoBC best-effort report sets *)
  | Witness_sets  (** Πinit best-effort witness sets *)
  | Baseline  (** baseline protocols' traffic *)
  | Junk  (** adversarial noise *)
  | Batched_rbc  (** combined per-(sender, receiver) rBC vote packets *)
  | Ew  (** Erbes–Wattenhofer direct values and reports *)
  | Step_init  (** logical rBC init votes (standalone or batched) *)
  | Step_echo  (** logical rBC echo votes *)
  | Step_ready  (** logical rBC ready votes *)

val klass_of : Message.t -> klass
(** The physical class of a packet. *)

val klass_name : klass -> string

val num_klasses : int
(** Array size for engine-side accounting ([Engine.create ~classes]). *)

val classify_into : Message.t -> (int -> int -> unit) -> unit
(** [classify_into msg emit] calls [emit klass_index bytes] once for the
    packet's physical class and once per logical rBC vote's step class.
    Pass directly as [Engine.create ~classify]. *)

type t
(** Per-class counters. *)

val of_engine : Message.t Engine.t -> t
(** Snapshot of an engine's send-path class counters; the engine must
    have been created with [~classes:num_klasses ~classify:classify_into]. *)

val count : t -> klass -> int
val bytes : t -> klass -> int

val total : t -> int
(** Messages summed over the physical classes only (step rows overlap). *)

val to_rows : t -> (string * int * int) list
(** [(class name, messages, bytes)], fixed class order. *)
