(** Randomized chaos soak: thousands of seeded (scenario × fault-plan)
    cases fanned across supervised worker domains, each watched by the
    online {!Monitor} and by a per-case watchdog (event budget + wall
    deadline), with deterministic counterexample shrinking on any
    violation and quarantine (plus shrunk repro) for any case the
    watchdog had to abort or whose worker domain crashed.

    Everything in the report is a pure function of {!config}: the case
    grid is generated up front from one RNG stream, per-case records are
    aggregated in case-index order, and the journal replays records
    byte-exactly — so the produced report (and its JSON rendering) is
    byte-identical for any [domains] count {e and} for an
    interrupted-and-resumed sweep vs an uninterrupted one. *)

type config = {
  cases : int;  (** number of (scenario × fault-plan) cases *)
  seed : int64;  (** master seed; every case derives from it *)
  domains : int;  (** worker domains for the sweep *)
  case_events : int;
      (** per-case engine event budget — the deterministic watchdog *)
  case_wall : float option;
      (** per-case wall-clock deadline in seconds ([None] = no deadline) —
          the non-reproducible hang safety net *)
  retries : int;
      (** requeues allowed per case after a worker-domain crash before the
          case is quarantined *)
  stuck : int option;
      (** test/CI hook: replace case [i]'s faults with an unbounded
          spammer so the case livelocks and must be caught by the
          watchdog *)
  protocol : Scenario.protocol;
      (** what every case's honest parties run: [Maaa opts] re-soaks the
          same grid under [opts] (a mutant the monitor must then flag,
          or another message layer); [Ew] caps the static corruption
          budget at the case config's [ta] (EW's resilience bound
          regardless of synchrony), drops the chaos plans and makes every
          drawn static corruption [Silent] ({!Scenario.make} rejects the
          ΠAA-only behaviours under EW), after the draws, so the grid's
          names, seeds and corrupted parties are the ones drawn. It must have a
          {!Scenario.Spec.protocol_fields} spelling. *)
  transport : [ `Sim | `Net ];
      (** message backend every case runs on: [`Sim] (default) keeps
          messages inside the discrete-event engine; [`Net] carries every
          one over the loopback TCP perfect-link runtime ({!Netrun}).
          Because the net backend is exact w.r.t. the engine schedule,
          the graded results are identical — the net sweep exercises the
          wire stack under the same case grid *)
}

val default : config
(** 500 cases, seed 7, 1 domain, {!Scenario.maaa}, 10M
    events + 300 s per case, 1 retry, no stuck case, simulator
    transport. *)

(** How one case ended, as plain data, so a record round-trips through
    the journal exactly. *)
type violating_detail = {
  vd_seed : int64;  (** the scenario's engine seed *)
  vd_case : Case.t;  (** verdict [Violates]: the violated invariants *)
  vd_total : int;  (** violations recorded *)
  vd_first : string list;  (** up to 3 rendered violations *)
}

type quarantine_detail = {
  qd_seed : int64;
  qd_case : Case.t;
      (** verdict [Incomplete]; for a crash the plan is not shrunk
          (re-running a crasher under the supervisor is unsafe) *)
  qd_reason : string;
      (** ["budget-exhausted(N events)"], ["timed-out(N events)"] or
          ["crashed: <exn> (attempts=K)"] *)
}

type case_status =
  | Clean
  | Violating of violating_detail
  | Quarantined of quarantine_detail

type case_record = {
  cr_index : int;  (** position in the case grid; named [soak-%04d] *)
  cr_sync : bool;
  cr_checks : int;
  cr_counts : int list;  (** aligned with [Monitor.all_invariants] *)
  cr_missing : int;
  cr_pfail : int;
  cr_diameter : float;
  cr_eps : float;
  cr_status : case_status;
}

type outcome = {
  total : int;
  sync_cases : int;
  async_cases : int;
  checks : int;  (** monitor invariant evaluations across graded cases *)
  counts : (string * int) list;  (** per-invariant violation totals *)
  violations_total : int;
  missing_outputs : int;  (** graded-honest parties that never output *)
  party_failures : int;  (** handler exceptions isolated by the engine *)
  worst_diameter : float;
  worst_diameter_eps : float;
  worst_diameter_case : string;
  violating : (case_record * violating_detail) list;
      (** each violating case's record, with its [Violating] detail *)
  quarantined : (case_record * quarantine_detail) list;
      (** watchdogged or crash-killed cases: excluded from every aggregate
          above (a truncated run's monitor tables are not trustworthy),
          reported here with a shrunk repro instead *)
}

val build_scenarios : config -> Scenario.t list
(** The seeded case grid: alternating sync/async network modes over several
    feasible configs at the paper's resilience bounds, random workloads,
    random static corruptions and a {!Fault_gen}-sampled chaos plan, all
    within the mode's [ts]/[ta] budget. Scenarios run [isolate]d and carry
    the per-case {!Scenario.budget} from [case_events]/[case_wall]. The
    [stuck] hook (if set) swaps that one case's faults for an unbounded
    spammer {e after} all RNG draws, so the rest of the grid is
    unchanged. *)

val scenario_of_spec : (string * string) list -> (Scenario.t, string) result
(** Rebuilds one case of a grid from the keys of its ["soak"] spec line
    ({!Case.spec_fields}): the sweep keys that fix a case (seed, event
    and wall budgets, stuck hook, protocol, transport) and its grid
    index. [build_scenarios] splits the master RNG once per case, so
    case [i] is rebuilt by [i + 1] splits, without the others. *)

val render_case : case_record -> string
(** One journal line ({!Case.line}): a clean case is an ["ok"] line with
    the aggregation fields only; a violating or quarantined case is a
    ["case"] line ({!Case.to_fields}) with those fields appended. *)

val parse_case : string -> (case_record, string) result
(** Inverse of {!render_case}. [Error] on a torn or malformed line, and
    on a counts field whose length is not the number of invariants. *)

val execute : ?journal:string -> ?resume:bool -> config -> outcome
(** Build the grid, run every case not already recorded, aggregate.

    Each case runs inside a {!Pool.Supervised} worker under its watchdog;
    a case the watchdog stops is quarantined with a shrunk repro (oracle:
    the sub-plan still prevents completion), a case whose worker crashes
    is requeued up to [retries] times and then quarantined unshrunk.

    With [~journal:path], completed case records are appended (and
    flushed) to [path] as they finish, after a header binding the journal
    to every config field but [domains]; with [~resume:true] the journal
    is first replayed and recorded cases are skipped, so an interrupted
    sweep continues where it left off and produces the same {!outcome}.
    Lines {!parse_case} rejects (e.g. kill-torn ones) re-run.
    @raise Invalid_argument on [cases <= 0], [domains <= 0],
    [resume] without [journal], a missing/mismatched resume journal
    (one line for another schema), or
    a [protocol] with no spelling (see {!config}). *)

val to_json : config -> outcome -> string
(** The [SOAK.json] document (schema ["maaa-soak/2"]; field list documented
    in the Makefile's soak help). Deterministic: contains no wall-clock
    values and no [domains]-dependent data, and is byte-identical between
    fresh and resumed sweeps. *)

val pp : Format.formatter -> outcome -> unit
