(** Convex regions of the plane, possibly degenerate.

    A region is stored as its extreme points in counter-clockwise order: a
    single point, a segment (two points), or a polygon (three or more
    vertices). Safe areas shrink to segments and single points in the
    protocol (Figure 2 of the paper ends in a single point), so every
    operation here must and does support the degenerate cases. *)

type t
(** A non-empty convex region. *)

type halfplane = { normal : Vec.t; offset : float }
(** The closed half-plane [{x : normal·x ≤ offset}]; [normal] has unit
    length so that tolerances are geometric distances. *)

val of_points : Vec.t list -> t
(** Convex hull of a non-empty list of 2-D points (Andrew's monotone
    chain). Points interior to an edge are dropped: collinear inputs give
    their two extremes. @raise Invalid_argument on an empty list or
    non-2-D points. *)

val vertices : t -> Vec.t list
(** Extreme points, CCW. *)

val contains : ?eps:float -> t -> Vec.t -> bool
(** Membership up to distance [eps] (default [1e-9]). *)

val clip : ?eps:float -> t -> halfplane -> t option
(** [clip t h] intersects [t] with [h]; [None] when empty. *)

val inter : ?eps:float -> t -> t -> t option
(** Intersection of two convex regions; [None] when empty. *)

val inter_all : ?eps:float -> t list -> t option
(** Intersection of a non-empty list of regions. *)

val diameter_pair : t -> Vec.t * Vec.t
(** The deterministic pair of extreme points realizing the diameter
    (lexicographic tie-break as in {!Vec.diameter_pair}). For a single
    point [p] this is [(p, p)]. *)

val diameter : t -> float
val area : t -> float
val pp : Format.formatter -> t -> unit
