(** Small descriptive-statistics helpers for the sweep experiments. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p ∈ [0, 100]], linear interpolation between
    order statistics. @raise Invalid_argument on an empty list. *)
