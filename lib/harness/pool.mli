(** The domain scheduler for embarrassingly parallel sweeps (stdlib
    only). It adds no randomness: as long as every job owns its mutable
    state (the harness gives each scenario its own {!Engine.t}, {!Rng.t}
    and LP workspaces) and nothing prints from inside a job, the outcomes
    of [map] are bit-identical for any domain count. *)

type 'b outcome =
  | Done of 'b
  | Crashed of {
      attempts : int;  (** [max_retries + 1]: every try raised *)
      exn : exn;  (** the final try's exception *)
      backtrace : Printexc.raw_backtrace;
    }

val map :
  domains:int ->
  ?max_retries:int ->
  ?on_done:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** [map ~domains job xs] runs [job] over [xs] on [min domains n] worker
    domains, which claim items from one shared counter, and returns one
    outcome per item in submission order. A job that raises is retried in
    place up to [max_retries] times (default [0]), then reported as
    [Crashed]; its siblings are unaffected. OCaml 5 delivers
    [Out_of_memory] and [Stack_overflow] to the job's own handler, so
    fatal errors are caught the same way. With one domain or at most one
    item the jobs run in the calling domain and nothing is spawned.

    [on_done], if given, runs in the {e calling} domain once per item as
    its outcome becomes final (completion order, not submission order):
    the hook for journaling progress to disk. Every spawned domain is
    joined before [map] returns. *)

val get : 'b outcome -> 'b
(** The value of a [Done] outcome; a [Crashed] one re-raises its
    exception with its backtrace. [List.map get (map ...)] therefore
    raises the lowest-indexed failure, after every job has run. *)

val active_domains : unit -> int
(** Domains spawned by [map] and not yet joined, across the whole
    process: [0] whenever no sweep is in flight (the no-leaked-domains
    test probe). *)
