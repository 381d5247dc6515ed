(** An honest party running the full hybrid protocol ΠAA (Section 5).

    The party first runs {!Init_round} to obtain [(T, v0)], then iterates
    {!Obc}-based ΠAA-it rounds: distribute the current value, trim
    [max(k, ta)] outliers via the safe area, adopt the midpoint of the
    safe area's diameter pair. At iteration [T] it reliably broadcasts
    [(halt, T)]; it outputs [v_{it_h}] — where [it_h] is the [(ts+1)]-th
    smallest halt iteration received (counting one halt per origin) — once
    [ts + 1] halts from earlier iterations are in, and then stops joining
    iterations. The reliable-broadcast layer keeps running after output so
    other parties retain its echo/ready amplification, which the paper's
    Conditional Liveness arguments rely on.

    The party is driven entirely by simulator events: wire {!handle} into
    an {!Engine} with [Engine.set_party] (or use {!attach}) and call
    {!start} at the party's (local) starting time. *)

type t

type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
      (** fired when [v_iter] is adopted (iteration completed); also fired
          with [iter = 0] for the Πinit output [v0] *)
  on_output : iter:int -> Vec.t -> unit;  (** fired once, on ΠAA output *)
}

val no_callbacks : callbacks

type mode =
  | Estimate  (** the paper's protocol: run Πinit to obtain [(T, v0)] *)
  | Fixed_t of int
      (** the known-input-bounds variant of the prior work the paper
          departs from ([20, 29]): skip Πinit, start the iterations from
          the party's own input and halt at the given [T]. Cheaper by
          [c_init] rounds and the Πinit traffic — but correct only if the
          supplied [T] really covers the honest inputs' spread, which is
          exactly what experiment E16 probes. *)

type mutant = Non_contracting_update | Premature_output
(** Deliberately broken protocol variants, used {e only} to prove the
    fault-injection monitor can detect real bugs (see [lib/monitor] and the
    soak driver's mutant mode):
    - [Non_contracting_update] offsets every adopted iteration value far
      outside the safe area — the midpoint step no longer contracts, so
      per-iteration hull containment and validity break;
    - [Premature_output] outputs the party's raw input immediately — the
      ε-agreement check "loosened" to infinity. *)

type layer =
  | Interned
      (** the fast path (default): one {!Intern} hash-consing table per
          party, shared by its rBC multiplexer and every per-iteration oBC
          instance, created fresh per party — so a run never sees another
          run's payload ids *)
  | Reference
      (** the seed Map-based vote tables; bit-identical traces to
          [Interned], kept for differential testing and the B6/B11 benches *)
  | Batched of { window : int }
      (** the interned vote tables behind a {!Batch} egress buffer: the rBC
          votes emitted within a tick leave as one combined packet per
          receiver when the end-of-tick flusher fires, coalescing across up
          to [window] ticks ({!Batch.create}; [1] = per tick). Outputs,
          iterations and monitor verdicts are identical under RNG-free
          delay policies, while sent-message counts drop from Θ(n³) to
          Θ(n²) per iteration. *)
(** The broadcast layer an honest party's sub-protocols run on. *)

type opts = {
  mode : mode;
  mutant : mutant option;
  layer : layer;
}
(** Every ΠAA-only option, as one value. *)

val default_opts : opts
(** [{ mode = Estimate; mutant = None; layer = Interned }]: the paper's
    protocol on the fast path. *)

val create :
  ?callbacks:callbacks ->
  ?opts:opts ->
  ?register_flush:(((final:bool -> unit) -> unit)) ->
  ?safe_cache:Safe_cache.t ->
  cfg:Config.t ->
  me:int ->
  now:(unit -> int) ->
  send_all:(Message.t -> unit) ->
  set_timer:(at:int -> unit) ->
  unit ->
  t
(** [opts] defaults to {!default_opts}. [register_flush] must be provided
    when the layer is [Batched]: it receives the party's end-of-tick
    flush closure and is expected to arrange for it to run once per tick,
    plus a last [~final:true] fire before the run goes quiescent
    ({!attach} wires it to [Engine.set_flusher]). Raises
    [Invalid_argument] if [Batched] is requested without it. *)

val attach_endpoint :
  ?callbacks:callbacks ->
  ?opts:opts ->
  ?safe_cache:Safe_cache.t ->
  cfg:Config.t ->
  Message.t Transport.endpoint ->
  t
(** Creates the party against an abstract transport endpoint and installs
    its handler through it — the backend-independent form of {!attach}
    (the simulator engine and the networked runtime both present
    themselves as endpoints). Raises [Invalid_argument] when the
    endpoint's [n] disagrees with the config. *)

val attach :
  ?callbacks:callbacks ->
  ?opts:opts ->
  ?safe_cache:Safe_cache.t ->
  cfg:Config.t ->
  me:int ->
  Message.t Engine.t ->
  t
(** [attach_endpoint] on [Engine.endpoint engine ~me]: creates the party
    wired to the engine and registers its handler.
    [safe_cache] memoises the new-value rule; pass one cache to every
    party of a run ({!Maaa.run} and the harness runner do) so identical
    report multisets are evaluated once per run instead of once per
    party. Results are bit-identical either way — the cache is keyed on
    the exact value multiset. Never share one across engines/runs. *)

val start : t -> Vec.t -> unit
(** Join the protocol with input [v] (dimension must match the config). *)

val handle : t -> Message.t Transport.event -> unit

(* -- observers, used by the harness and the experiments -- *)

val me : t -> int
val output : t -> Vec.t option
val output_iteration : t -> int option
val output_time : t -> int option
val current_iteration : t -> int
(** 0 while still in Πinit. *)

val iteration_estimate : t -> int option
(** The [T] obtained from Πinit. *)

val value_history : t -> (int * Vec.t) list
(** [(it, v_it)] pairs, [it = 0] being the Πinit output, ascending. *)

val intern_stats : t -> int * int * int
(** [(hits, misses, size)] of the party's payload-interning table. *)
