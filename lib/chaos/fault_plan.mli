(** A seeded, composable fault plan: the chaos layer's DSL.

    A plan is a list of fault atoms. Network atoms ([Partition],
    [Delay_spike], [Reorder]) compile into a wrapper around the scenario's
    {!Engine.delay_policy}; [Duplicate] and [Corrupt_at] atoms install
    themselves on the engine ({!install}) as handler wrappers and an
    adaptive-corruption scheduler. Everything a plan does is a bounded
    transformation {e inside} the paper's network models:

    - in synchronous mode every compiled delay is clamped to [Δ], so a
      partition or spike degrades to a worst-case-but-legal schedule;
    - in asynchronous mode delays stay finite (eventual delivery) — drops
      and partitions are expressed as bounded-duration delays, never as
      message loss;
    - duplicate delivery re-runs a receiver's handler, which authenticated
      channels permit (a Byzantine network may replay);
    - adaptive corruptions consume the scenario's [ts]/[ta] budget, checked
      by {!validate}.

    A plan is plain data: it can be compared, printed, shrunk
    ({!Fault_shrink}) and regenerated bit-identically from a seed
    ({!Fault_gen}). *)

type atom =
  | Corrupt_at of { tick : int; party : int; behavior : Behavior.t }
      (** adaptively corrupt [party] at [tick]: it behaves honestly before,
          then its handler is replaced by [behavior] (its queued state is
          discarded — the adversary takes over) *)
  | Partition of { from_tick : int; until_tick : int; group_of : int array }
      (** messages crossing groups during [\[from_tick, until_tick)] are
          held back until [until_tick] (clamped to [Δ] under synchrony);
          [group_of.(p)] is party [p]'s side *)
  | Delay_spike of { from_tick : int; until_tick : int; factor : int }
      (** multiply every delay in the window by [factor] *)
  | Duplicate of { from_tick : int; until_tick : int; percent : int }
      (** each delivery in the window is replayed to the receiving handler
          with probability [percent]/100 *)
  | Reorder of { from_tick : int; until_tick : int; window : int }
      (** add uniform jitter in [\[0, window\]] to delays in the window,
          permuting arrival order *)

type t = atom list

val corrupted : t -> int list
(** Sorted, de-duplicated targets of the plan's [Corrupt_at] atoms. *)

val validate :
  cfg:Config.t -> sync:bool -> existing:int list -> t -> (unit, string) result
(** Checks the plan against the scenario: corruption targets in range,
    distinct from [existing] (statically corrupted) parties and within the
    remaining budget ([ts − |existing|] under synchrony, [ta − |existing|]
    under asynchrony); ticks non-negative; windows, factors, percentages
    and partition arrays well-formed. *)

val compile :
  sync:bool -> delta:int -> base:Engine.delay_policy -> t -> Engine.delay_policy
(** The network-atom part of the plan as a delay-policy wrapper. Atoms
    apply in list order to the base policy's delay; the result is clamped
    to [\[1, Δ\]] when [sync], to [≥ 1] otherwise. *)

val install : Message.t Engine.t -> cfg:Config.t -> inputs:Vec.t array -> t -> unit
(** Installs the engine-side atoms: duplicate-delivery wrappers on every
    live party and the adaptive-corruption scheduler ([Corrupt_at] wraps
    the victim's handler and arms a trigger timer; when it fires,
    {!Behavior.install} replaces the victim). Call after parties are
    attached and static behaviours installed, before [Engine.run]. *)

val behavior_to_string : Behavior.t -> string
(** Human-readable: ["silent"], ["crash@5"], ["halt-liar:2"], … *)

val atom_to_string : atom -> string
val to_strings : t -> string list

val to_repr : t -> string
(** Machine-readable plan encoding: atoms joined by [';'], fields by
    [','], vectors as ['/']-joined hex floats. Contains no tabs or
    control characters, so a repr embeds directly in a case-file line.
    [of_repr (to_repr p) = Ok p] for every plan whose [Equivocate_split]
    assignments are 0/1 (the encoding normalizes other non-zero marks to
    1). *)

val of_repr : string -> (t, string) result
(** Parses {!to_repr} output; [Error] describes the first offending
    atom. The empty string is the empty plan. Parsing performs no
    scenario validation — run {!validate} separately. *)

val vec_to_repr : Vec.t -> string
(** A vector as the repr writes it: ['/']-joined ["%h"] floats. *)

val vec_of_repr : string -> (Vec.t, string) result
(** Inverse of {!vec_to_repr}; decimal floats are accepted too. *)
