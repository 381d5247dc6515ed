(** A fixed-size pool of worker domains for embarrassingly parallel
    scenario sweeps (stdlib [Domain]/[Mutex]/[Condition] only).

    Determinism: the pool adds no randomness of its own. As long as every
    job owns its mutable state (the harness gives each scenario its own
    {!Engine.t}, {!Rng.t} and LP workspaces) and nothing prints from
    inside a job, [map pool f xs] is bit-identical to [List.map f xs] for
    any pool size — only wall-clock interleaving changes. *)

type t

val create : ?domains:int -> unit -> t
(** Spawns [domains] worker domains (default
    [Domain.recommended_domain_count ()], clamped to ≥ 1). *)

val size : t -> int
(** Number of worker domains. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Fans the list out to the pool as one job per {e contiguous chunk} of
    ⌈length/size⌉ items (one chunk per worker) and blocks until every
    element is done; results come back in submission order. If jobs
    raise, every job still runs to completion and the exception of the
    {e lowest-indexed} failing element is re-raised (with its backtrace);
    the pool stays usable. *)

val submit : t -> (unit -> unit) -> unit
(** Low-level enqueue of one fire-and-forget job.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Lets queued jobs drain, then stops and joins every worker.
    Idempotent. *)

val with_pool : ?domains:int -> (t -> 'b) -> 'b
(** [create], run, then [shutdown] (also on exceptions). *)

(** Crash-tolerant sweeps. Where {!map} captures job exceptions in-slot,
    [Supervised.map] treats {e any} exception escaping a job — including
    fatal ones like [Out_of_memory] — as the death of its worker domain:
    the worker exits, the supervising (calling) domain joins it, spawns a
    replacement and requeues the in-flight item with a bounded retry
    count, so the sweep degrades gracefully instead of dying. *)
module Supervised : sig
  type 'b outcome =
    | Done of 'b
    | Crashed of { attempts : int; last_error : string }
        (** the item crashed its worker on every one of [attempts]
            ([= max_retries + 1]) tries; [last_error] is the final
            exception, printed *)

  val map :
    ?domains:int ->
    ?max_retries:int ->
    ?on_done:(int -> 'b outcome -> unit) ->
    ('a -> 'b) ->
    'a list ->
    'b outcome list
  (** Runs [job] over the list on [domains] worker domains (default
      [Domain.recommended_domain_count ()], capped at the item count) and
      returns one outcome per item in submission order. A job exception
      kills its worker; the item is requeued up to [max_retries] times
      (default [1]) onto a freshly spawned replacement, then reported as
      [Crashed]. [on_done] — if given — is invoked in the {e calling}
      domain, without any pool lock held, once per item as its outcome
      becomes final (completion order, not submission order): the hook for
      journaling incremental progress to disk. Every spawned domain is
      joined before [map] returns, crash or no crash. *)

  val active_domains : unit -> int
  (** Domains spawned by [Supervised.map] and not yet joined, across the
      whole process — [0] whenever no supervised sweep is in flight (the
      no-leaked-domains test probe). *)
end
