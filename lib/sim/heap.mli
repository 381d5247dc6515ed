(** The simulator's event queue. *)

(** Min-heap with explicit [int] keys — the engine's event queue. Ties are
    broken by whatever the caller packs into the key (the engine packs
    [(time, seq)] into one int), so equal keys never arise there; with
    equal keys the pop order is unspecified. *)
module Keyed : sig
  type 'a t

  val create : unit -> 'a t
  val is_empty : 'a t -> bool
  val size : 'a t -> int

  val push : 'a t -> key:int -> aux:int -> 'a -> unit
  (** [aux] is an unboxed int carried alongside the element — the engine
      stores the delivery target there instead of allocating a wrapper
      record per event. *)

  val min_key_exn : 'a t -> int
  (** The minimal key, without removing its element.
      @raise Invalid_argument on an empty heap. *)

  val min_aux_exn : 'a t -> int
  (** The [aux] rider of the minimal-key element.
      @raise Invalid_argument on an empty heap. *)

  val pop_exn : 'a t -> 'a
  (** Removes and returns an element with the minimal key.
      @raise Invalid_argument on an empty heap. *)

  val iter : 'a t -> (key:int -> aux:int -> 'a -> unit) -> unit
  (** Visits every pending entry exactly once, in internal (heap-array)
      order — {e not} sorted. The engine's pending-event snapshot sorts
      the result itself. Must not mutate the heap from [f]. *)
end
