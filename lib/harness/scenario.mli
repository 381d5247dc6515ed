(** A complete experiment description: configuration, network, inputs,
    corruptions and (optionally) a chaos fault plan. Running one is a pure
    function of this record. *)

type budget = {
  max_events : int option;
      (** engine event budget for the run; [None] = the engine default
          (10M) — but see {!Runner.run}: exhaustion is reported as a
          structured [Budget_exhausted] outcome, not an exception *)
  wall_seconds : float option;
      (** wall-clock deadline for the run, polled cooperatively between
          engine events; exceeding it yields a [Timed_out] outcome.
          Wall-clock is inherently non-reproducible — use it as a hang
          safety net, and [max_events] as the deterministic budget *)
}

type protocol =
  | Maaa of Party.opts
      (** the paper's hybrid ΠAA, with its mode, mutant and message layer
          (see {!Party.opts}) *)
  | Ew
      (** the Erbes–Wattenhofer quadratic-communication asynchronous AA
          ({!Ew_aa} on its direct channel); it has no options, so a
          ΠAA-only setting under it cannot be written down *)
  | Pure_sync of { rounds : int }
      (** E12's pure-synchronous baseline ({!Sync_aa}) for [rounds] rounds
          of Δ + 1 ticks, trimming at [cfg.ts] *)
  | Pure_async of { iters : int }
      (** E12's pure-asynchronous baseline ({!Ew_aa} on its reliable
          channel) for [iters] iterations, trimming at [cfg.ta] *)
(** Which protocol the honest parties run. Under [Maaa] every
    {!Behavior.t} is allowed. Under the other three a static corruption
    is [Silent] (nothing attached) or [Honest_with_input v] (the
    scenario's own protocol, started on [v]), and a fault-plan
    corruption is [Silent]: every other behaviour is ΠAA code, whose
    messages these protocols drop, and {!make} rejects it. The two
    baselines have no {!Spec} spelling. *)

val maaa : protocol
(** [Maaa Party.default_opts]: the paper's protocol on the fast path. *)

type t = {
  name : string;
  cfg : Config.t;
  seed : int64;
  policy : Engine.delay_policy;
  sync_network : bool;
      (** whether [policy] respects the Δ bound — decides which corruption
          budget ([ts] or [ta]) the run is graded against *)
  inputs : Vec.t list;  (** one per party, including corrupted ones *)
  corruptions : (int * Behavior.t) list;  (** party id ↦ behaviour *)
  chaos : Fault_plan.t option;
      (** seeded fault plan layered on top of [policy] and [corruptions]
          (see {!Fault_plan}); adaptive corruption targets count against
          the same [ts]/[ta] budget *)
  isolate : bool;
      (** run the engine under [`Isolate]: a party-handler exception
          records a failure and crashes that party instead of aborting the
          whole run (and, in pooled sweeps, the whole batch) *)
  protocol : protocol;  (** default {!maaa} *)
  transport : [ `Sim | `Net ];
      (** message-passing backend: [`Sim] (default) keeps deliveries
          inside the engine's event queue; [`Net] routes every message
          through the loopback TCP runtime ({!Netrun}) below the same
          engine-as-scheduler — results are byte-identical by design,
          which is exactly what the differential harness checks *)
  wire_chaos : Wire_chaos.plan option;
      (** frame-level fault plan for the [`Net] transport (drop /
          duplicate / reorder / delay / flap below the perfect link);
          {!make} rejects one under [`Sim] *)
  budget : budget;
      (** per-case watchdog budgets the runner enforces (see {!budget});
          defaults to both fields [None] *)
}

val make :
  ?name:string ->
  ?seed:int64 ->
  ?policy:Engine.delay_policy ->
  ?sync_network:bool ->
  ?corruptions:(int * Behavior.t) list ->
  ?chaos:Fault_plan.t ->
  ?isolate:bool ->
  ?protocol:protocol ->
  ?transport:[ `Sim | `Net ] ->
  ?wire_chaos:Wire_chaos.plan ->
  ?budget:budget ->
  cfg:Config.t ->
  inputs:Vec.t list ->
  unit ->
  t
(** Defaults: worst-case synchronous lockstep policy, no corruptions, no
    chaos plan, {!maaa}, fail-fast engine, simulator transport.
    @raise Invalid_argument on malformed inputs/corruptions, a
    behaviour the protocol cannot run (naming it, see {!protocol}),
    [wire_chaos] under [`Sim], or when the fault plan
    fails {!Fault_plan.validate} (out-of-range or duplicate targets,
    corruption budget exceeded, bad windows). *)

val replicate : seeds:int64 list -> t -> t list
(** One copy per seed (same config, inputs, corruptions and policy), the
    name suffixed ["@<seed>"]. The cheap way to widen a statistical sweep
    over scheduling randomness; feed the list to {!Runner.run_batch}. *)

val honest : t -> int list
(** Parties without a static corruption (adaptive chaos targets are still
    listed — they start the run honest). *)

val chaos_corrupted : t -> int list
(** Targets of the fault plan's adaptive corruptions, sorted. *)

val graded_honest : t -> int list
(** The parties the run's properties are graded against: honest {e and}
    never adaptively corrupted. Equals {!honest} when [chaos] is absent. *)

val corrupt_count : t -> int
(** Static plus adaptive corruptions. *)

val honest_inputs : t -> Vec.t list
(** Inputs of the {!graded_honest} parties. *)

(** The one owner of every textual spelling of a scenario setting: the
    enumerated keys the soak journal, [SOAK.json], the explore quarantine
    header and the CLIs share, the %-escape codec those TSV files use,
    and the front door's [agree] request line. *)
module Spec : sig
  type 'a key
  (** An enumerated key: a closed set of spellings, and its error text. *)

  val of_string : 'a key -> string -> ('a, string) result
  (** [Error "unknown <key> \"<s>\" (expected a|b|…)"] for any other
      spelling. *)

  val to_string : 'a key -> 'a -> string
  (** The value's spelling; every value of every key has one. *)

  val values : 'a key -> 'a list
  (** Every spelled value, in spelling order. *)

  val mutant : Party.mutant option key
  (** ["none"], ["non-contracting"], ["premature-output"]. *)

  val layer : Party.layer key
  (** ["interned"], ["batched"]. *)

  val transport : [ `Sim | `Net ] key
  (** ["sim"], ["net"]. *)

  val protocol_fields : protocol -> (string * string) list
  (** [[("protocol", "maaa"|"ew"); ("mutant", _); ("layer", _)]]; under
      {!Ew} the two ΠAA keys read their defaults. @raise Invalid_argument for
      the [Fixed_t] mode and the two baselines, which have no spelling. *)

  val protocol_of_fields : (string * string) list -> (protocol, string) result
  (** Inverse of {!protocol_fields}; an absent key reads its default.
      [Error] on an unknown spelling, or when ["protocol"] is ["ew"] and a
      ΠAA key is not at its default. *)

  val encode : string -> string
  (** Percent-escapes ['%'], TAB, ['~'], control characters and DEL as
      [%xx], so the result is one TSV field that never equals the ["~"]
      empty-list marker. *)

  val decode : string -> (string, string) result
  (** Inverse of {!encode}; [Error] on a ['%'] not followed by two hex
      digits. *)

  (** One [agree] request of the front door ({!Serve}). *)
  type request = {
    d : int;
    eps : float;
    delta : int;
    ts : int;
    ta : int;
    transport : [ `Sim | `Net ];
    seed : int64;
    inputs : Vec.t list;
  }

  val of_line : string -> (request, string) result
  (** Parses [agree v=1 d=… eps=… delta=… ts=… ta=… [transport=…]
      [seed=…] inputs=…] (fields in any order, CRLF tolerated). The key
      set is closed: an unknown or repeated key is an [Error] naming it.
      [Error] strings are single-line and name the offending field. *)

  val to_line : request -> string
  (** Prints every field, floats as ["%.17g"], so
      [of_line (to_line r) = Ok r] bit for bit on finite floats. *)
end
