(** Operations on an intersection [K = ⋂ᵢ convex(Vᵢ)] of finitely many
    convex hulls in arbitrary dimension, queried through linear programs.

    This is the implicit representation backing safe areas for [D ≥ 3],
    where explicit vertex enumeration of the intersection is impractical.
    All queries are deterministic. *)

type t
(** A non-trivial intersection description (at least one hull, every hull
    non-empty, all points of equal dimension). *)

val make : Vec.t list list -> t
(** @raise Invalid_argument on an empty list, an empty hull, or mixed
    dimensions. *)

val of_arrays : Vec.t array array -> t
(** Array-native constructor used by the safe-area kernels; adopts the
    arrays without copying, so they must not be mutated afterwards.
    Validation as in {!make}. *)

val find_point : ?eps:float -> t -> Vec.t option
(** Some point of [K], or [None] when [K = ∅]. *)

val is_empty : ?eps:float -> t -> bool

val contains : ?eps:float -> t -> Vec.t -> bool
(** [contains t p]: membership in every hull. *)

val support : ?eps:float -> t -> dir:Vec.t -> (float * Vec.t) option
(** [support t ~dir] maximises [dir·p] over [p ∈ K]; returns the value and
    a maximiser. [None] when [K = ∅]. *)

val diameter_pair : ?eps:float -> t -> (Vec.t * Vec.t) option
(** A deterministic pair [(a, b)] of points of [K] approximating
    [argmax δ(a,b)], found by maximising the support width
    [h_K(d) + h_K(−d)] over a direction family (coordinate axes and
    normalised pairwise differences of the hulls' generators) followed by
    alternating refinement [d ← (a−b)/|a−b|]. Both returned points lie in
    [K] exactly (they are LP support points), so their midpoint is in [K].
    [None] when [K = ∅]. *)

(** All LP-backed queries above share one cached {!Lp.Problem} workspace
    per value of [t] (built lazily on the first query): the constraint
    system, tableau and phase-1 feasibility are computed once and every
    support/feasibility query replays phase 2 from that state, which keeps
    the answers bit-identical to the one-shot reference below.

    On top of the workspace, [support] and [find_point] answers are
    memoised per [t] — [support] keyed on the exact coordinate bits of the
    direction (consistent with {!Vec.equal_exact}) — so the diameter
    search's sign-symmetric family and alternating refinement never
    re-solve an LP they have already solved. A cache hit returns the stored
    answer verbatim and is therefore bit-identical to the cold query. The
    memo tables are valid for one [eps] at a time and reset when queried
    under a different tolerance.

    [Reference] is the unstaged path — every query rebuilds the constraint
    system and calls the one-shot {!Lp.solve} / {!Lp.feasible_point}, as
    the code before the workspace layer did. It exists for differential
    tests and the before/after benchmark groups; protocol code should use
    the cached queries above. *)
module Reference : sig
  val find_point : ?eps:float -> t -> Vec.t option
  val support : ?eps:float -> t -> dir:Vec.t -> (float * Vec.t) option
  val diameter_pair : ?eps:float -> t -> (Vec.t * Vec.t) option
end
