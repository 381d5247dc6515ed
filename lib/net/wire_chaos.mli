(** Frame-level fault injection the perfect link must mask.

    Mirrors [lib/harness]'s [Fault_plan] atom shapes one layer down:
    these perturb physical frames between the link state machines and
    the socket. Decisions come from per-directed-link RNG streams seeded
    from [(seed, src, dst)], so plans are reproducible. HELLO frames are
    exempt (flaps model connection failure; chaos models a lossy wire). *)

type atom =
  | Drop of { percent : int }  (** lose the frame *)
  | Duplicate of { percent : int }  (** send a second copy *)
  | Reorder of { percent : int; hold : int }
      (** hold the frame [hold] ticks so successors overtake it *)
  | Delay_spike of { from_tick : int; until_tick : int; hold : int }
      (** add [hold] ticks to every frame in the wire-tick window *)
  | Link_flap of { at_tick : int; down_for : int }
      (** force-close the connection at [at_tick]; no re-dial for
          [down_for] ticks *)

type plan = src:int -> dst:int -> atom list
(** Atoms for each directed link. *)

type t

val create : seed:int64 -> n:int -> plan -> t

type verdict = Deliver of int list | Drop_frame

val on_frame :
  t -> src:int -> dst:int -> ftype:Wire.ftype -> tick:int -> verdict
(** Sender-side, pre-write: [Deliver delays] transmits one copy per
    element, each after that many wire ticks; [Drop_frame] transmits
    nothing. *)

val flaps_due : t -> tick:int -> (int * int * int) list
(** [(src, dst, down_for)] for every flap triggering at [tick]. *)

val next_flap : t -> after:int -> int option
(** The earliest flap trigger tick strictly after [after], if any. *)

val dropped : t -> int

val duplicated : t -> int

val held : t -> int
