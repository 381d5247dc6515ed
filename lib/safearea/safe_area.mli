(** The safe area [safe_t(M)] of Definition 5.1 and the protocol's
    new-value rule.

    [safe_t(M) = ⋂ { convex(M') : M' ⊆ M, |M'| = |M| − t }] is the region
    guaranteed to lie inside the convex hull of the honest values of [M]
    whenever at most [t] of them are adversarial. The representation is
    exact for dimensions 1–3 (order statistics, convex polygon clipping,
    clipped 3-D polytopes — see {!Hull3d}) and implicit (LP-backed, see
    {!Hullset}) for [D ≥ 4]; degenerate [D = 3] inputs fall back to the
    implicit kernel. The implicit diameter is a deterministic convergent
    approximation, as documented in DESIGN.md.

    Every operation is deterministic: parties recomputing a safe area from
    the same multiset obtain bit-identical results, which Πinit's
    estimation consistency relies on. *)

type t =
  | Interval of { lo : float; hi : float }  (** [D = 1] *)
  | Planar of Polygon.t  (** [D = 2] *)
  | Spatial of Hull3d.poly  (** [D = 3], exact clipped polytope *)
  | Implicit of Hullset.t
      (** [D ≥ 4], and the [D = 3] degenerate fallback; known non-empty *)

val compute : t:int -> Vec.t list -> t option
(** [compute ~t vs] is [safe_t(vs)], or [None] when the intersection is
    empty. [vs] is the multiset [val(M)] (duplicates allowed and
    meaningful).

    @raise Invalid_argument if [vs] is empty, [t < 0], [t ≥ length vs], or
    the subset family exceeds {!Restrict.max_subsets}. *)

val compute_arr : t:int -> Vec.t array -> t option
(** Array-native variant of {!compute} (the protocol hot path); the input
    array is not mutated. Bit-identical to [compute ~t (Array.to_list vs)]. *)

val contains : ?eps:float -> t -> Vec.t -> bool

val diameter_pair : t -> Vec.t * Vec.t
(** The deterministic pair [(a, b)] realizing (for [D ≤ 3]: exactly; for
    the implicit arm: approximately, see DESIGN.md) the diameter of the
    area, with the paper's lexicographic tie-break. *)

val diameter : t -> float

val midpoint_value : t -> Vec.t
(** [(a + b) / 2] for [(a, b) = diameter_pair]; the value an honest party
    adopts in ΠAA-it (and the estimation rule of Πinit). Guaranteed to lie
    in the area (Lemma 5.6). *)

val new_value : t:int -> Vec.t list -> Vec.t option
(** [new_value ~t vs = Option.map midpoint_value (compute ~t vs)]:
    the complete "trim and average" step of one iteration. *)

val new_value_arr : t:int -> Vec.t array -> Vec.t option
(** Array-native {!new_value}, over {!compute_arr}. *)

val interior_point : t -> Vec.t
(** Some deterministic point of the area (used by the ablations; the
    protocol itself uses {!midpoint_value}). *)

val centroid_value : t -> Vec.t
(** The centroid-style update of E7's one-step ablation (DESIGN.md §4):
    the centroid of the area's known extreme points ([D ≤ 3]) or a
    deterministic interior point (implicit arm — the memoised phase-1
    point, no diameter LPs). Valid (stays inside the area, hence inside
    every trimmed-subset hull) but comes without the paper's [√(7/8)]
    contraction constant; E7 measures the difference. *)