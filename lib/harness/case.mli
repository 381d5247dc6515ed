(** One counterexample as soak and explore both record it, and the three
    things the two harnesses share about it: judging a re-run against its
    verdict ({!reproduces}), shrinking it ({!shrink}, over
    {!Fault_shrink.shrink}) and the one line codec every case file is
    written in (schema ["maaa-case/1"]). Rebuilding a scenario from a
    spec line is the callers': [Soak] and [Explore] spell their own, and
    [Explore.replay] dispatches on the spec's kind. *)

type verdict =
  | Violates of string list
      (** these invariants are violated (names as {!violated} gives them) *)
  | Incomplete
      (** the run does not complete within its budgets. Only a
          [budget-exhausted] row (the event budget) replays
          deterministically; a [timed-out] row replays only under its
          spec's [wall=] budget, so whether it reproduces depends on the
          host's speed *)

type t = {
  spec : string;
      (** how to rebuild the scenario: a kind word, then space-separated
          [key=value] pairs ({!spec}) *)
  plan : Fault_plan.t;
  schedule : int list;
      (** chooser answers at the first choice points, trailing [0]s
          stripped; [[]] is the engine's default order *)
  verdict : verdict;
  shrunk_plan : Fault_plan.t;
  shrunk_schedule : int list;
  tries : int;  (** oracle re-executions spent shrinking *)
  minimal : bool;  (** see {!Fault_shrink.outcome} *)
}

(** {2 Running and judging} *)

exception Cut
(** Raised by a [beyond] hook (see {!run}) to abandon an execution. *)

type run = {
  result : Runner.result option;  (** [None] when the execution was cut *)
  answers : int list;  (** every chooser answer given, in order *)
  points : int;  (** chooser consultations *)
}

val run :
  ?tracer:(Message.t Engine.trace_event -> unit) ->
  ?beyond:(Message.t Engine.t -> Message.t Engine.choice array -> int list -> int) ->
  Scenario.t ->
  plan:Fault_plan.t ->
  schedule:int list ->
  run
(** One monitored execution with [plan] as the chaos plan ([[]] = none)
    and the chooser answering [schedule], then
    [beyond engine candidates earlier_answers_reversed] (default [0]).
    An answer out of range for its choice point cuts the execution, as
    does [beyond] raising {!Cut}. *)

val violated : Runner.result -> string list
(** Sorted violated-invariant names: the monitor's, whatever the
    termination, plus ["liveness"], ["validity"] and ["agreement"] from
    the result's flags when the run completed. *)

val reproduces :
  Scenario.t -> verdict -> plan:Fault_plan.t -> schedule:int list -> bool
(** Re-runs the case: [Violates invs] reproduces when every one of [invs]
    is violated again, [Incomplete] when the run still does not complete.
    A cut execution reproduces nothing. The shrinker's oracle, and the
    check every replay makes. *)

val shrink :
  spec:string -> Scenario.t -> verdict -> plan:Fault_plan.t ->
  schedule:int list -> t
(** The case for a (plan, schedule) that produced [verdict], shrunk by
    {!Fault_shrink.shrink} against {!reproduces}. *)

(** {2 The line codec}

    A case file is a header line tagged {!schema}, then one line per
    record: a tag, TAB-separated [key=value] fields with values escaped
    by {!Scenario.Spec.encode}, and a ["."] sentinel, so a line torn by
    a SIGKILL is detectably incomplete. A case is tagged ["case"] with
    {!to_fields}; a writer may append its own fields. *)

val schema : string

type fields = (string * string) list

val line : string -> fields -> string
(** [line tag fields], without a newline. *)

val parse_line : string -> (string * fields, string) result
(** The tag and decoded fields; [Error] on a missing sentinel, a field
    that is not [key=value] or a bad escape. *)

val field : fields -> string -> (string -> 'a option) -> ('a, string) result
(** [field fields key parse]; [Error] names a missing or bad value. *)

val ints : int list -> string
(** Comma-joined; [""] for [[]]. *)

val ints_of : string -> int list option
(** Inverse of {!ints} on non-negative integers. *)

val to_fields : t -> fields

val of_fields : fields -> (t, string) result
(** Ignores fields it does not know. *)

(** {2 Spec lines} *)

val spec : string -> (string * string) list -> string
(** [spec kind keys] = ["kind k1=v1 k2=v2 …"]; values hold no spaces. *)

val spec_fields : string -> (string * (string * string) list, string) result
(** Inverse of {!spec}: the kind and its keys. *)
