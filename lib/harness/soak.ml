type config = {
  cases : int;
  seed : int64;
  domains : int;
  case_events : int;
  case_wall : float option;
  retries : int;
  stuck : int option;
  protocol : Scenario.protocol;
  transport : [ `Sim | `Net ];
}

let default =
  {
    cases = 500;
    seed = 7L;
    domains = 1;
    case_events = 10_000_000;
    case_wall = Some 300.;
    retries = 1;
    stuck = None;
    protocol = Scenario.maaa;
    transport = `Sim;
  }

(* -- Per-case records ------------------------------------------------

   Everything the final report needs about one case, as plain data, so a
   record round-trips through the journal exactly and a resumed sweep
   aggregates to the same SOAK.json as an uninterrupted one. *)

type violating_detail = {
  vd_seed : int64;
  vd_case : Case.t;
  vd_total : int;
  vd_first : string list;  (* up to 3 rendered violations *)
}

type quarantine_detail = {
  qd_seed : int64;
  qd_case : Case.t;
  qd_reason : string;
}

type case_status =
  | Clean
  | Violating of violating_detail
  | Quarantined of quarantine_detail

type case_record = {
  cr_index : int;
  cr_sync : bool;
  cr_checks : int;
  cr_counts : int list;  (* aligned with Monitor.all_invariants *)
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
  checks : int;
  counts : (string * int) list;
  violations_total : int;
  missing_outputs : int;
  party_failures : int;
  worst_diameter : float;
  worst_diameter_eps : float;
  worst_diameter_case : string;
  violating : (case_record * violating_detail) list;
  quarantined : (case_record * quarantine_detail) list;
}

(* Configs at the paper's resilience bounds ((D+1)·ts + ta < n, n > 3·ts);
   the last is tight: 3·2 + 2 = 8 = n − 1. *)
let grid_configs =
  [
    Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10;
    Config.make_exn ~n:6 ~ts:1 ~ta:1 ~d:1 ~eps:0.02 ~delta:8;
    Config.make_exn ~n:9 ~ts:2 ~ta:2 ~d:2 ~eps:0.1 ~delta:10;
  ]

let sample_inputs rng (cfg : Config.t) =
  let d = cfg.Config.d and n = cfg.Config.n in
  match Rng.int rng 4 with
  | 0 -> Inputs.simplex_corners ~d ~scale:10. ~n
  | 1 -> Inputs.uniform_cube rng ~d ~n ~side:5.
  | 2 -> Inputs.two_clusters rng ~d ~n ~separation:8.
  | _ -> Inputs.gaussian_cluster rng ~d ~n ~center:(Vec.make d 1.) ~spread:2.

let sample_policy rng ~sync ~static (cfg : Config.t) =
  let delta = cfg.Config.delta in
  if sync then
    match Rng.int rng 3 with
    | 0 -> Network.lockstep ~delta
    | 1 -> Network.sync_uniform ~delta
    | _ -> Network.rushing ~delta ~corrupt:(fun p -> List.mem p static)
  else
    match Rng.int rng 2 with
    | 0 -> Network.async_uniform ~max_delay:(4 * delta)
    | _ -> Network.async_heavy_tail ~base:delta

let case_name i = Printf.sprintf "soak-%04d" i

let build_case ~config rng i =
  let cfg = List.nth grid_configs (Rng.int rng (List.length grid_configs)) in
  let sync = i mod 2 = 0 in
  let horizon = 40 * cfg.Config.delta in
  let inputs = sample_inputs rng cfg in
  let ew = config.protocol = Scenario.Ew in
  (* EW is correct only up to [ta] corruptions regardless of network
     synchrony, so its sweep caps the static budget there. The default
     ΠAA grid is untouched — same draws, same cases, same SOAK.json. *)
  let budget = if sync && not ew then cfg.Config.ts else cfg.Config.ta in
  let n_static = Rng.int rng (budget + 1) in
  let ids = Array.init cfg.Config.n Fun.id in
  Rng.shuffle rng ids;
  let static = Array.to_list (Array.sub ids 0 n_static) in
  let corruptions =
    List.map (fun p -> (p, Fault_gen.behaviors_menu rng ~cfg ~horizon ~tick:0)) static
  in
  let chaos = Fault_gen.sample rng ~cfg ~sync ~existing:static ~horizon in
  let policy = sample_policy rng ~sync ~static cfg in
  let seed = Rng.next_int64 rng in
  (* EW drops the chaos plan and runs a ΠAA-only static corruption
     [Silent], after drawing both so every case draws the same RNG
     stream: adaptive corruption grading is calibrated against ΠAA's
     iteration structure, and Scenario.make rejects the ΠAA-only
     behaviours under EW. *)
  let chaos, corruptions =
    if ew then
      ( None,
        List.map
          (fun (p, b) ->
            (p, if Behavior.needs_maaa b then Behavior.Silent else b))
          corruptions )
    else (Some chaos, corruptions)
  in
  let scen =
    Scenario.make
      ~name:(case_name i)
      ~seed ~policy ~sync_network:sync ~corruptions ?chaos
      ~protocol:config.protocol ~transport:config.transport ~isolate:true
      ~budget:
        {
          Scenario.max_events = Some config.case_events;
          wall_seconds = config.case_wall;
        }
      ~cfg ~inputs ()
  in
  (* Test/CI hook: replace case [i]'s corruptions with one unbounded
     spammer, a protocol livelock that generates events forever — the
     watchdog must quarantine it instead of letting it wedge the sweep.
     Patched in after [Scenario.make] so the RNG draw sequence (and hence
     every other case of the grid) is untouched. *)
  match config.stuck with
  | Some s when s = i ->
      {
        scen with
        Scenario.corruptions =
          [ (0, Behavior.Spam { period = 1; payload_bytes = 8; until = max_int }) ];
        chaos = None;
      }
  | _ -> scen

let build_scenarios config =
  let master = Rng.create config.seed in
  let rec go i acc =
    if i >= config.cases then List.rev acc
    else
      (* split first so each case owns an independent stream derived only
         from the master's position, not from earlier cases' draw counts *)
      let rng = Rng.split master in
      go (i + 1) (build_case ~config rng i :: acc)
  in
  go 0 []

(* -- Spec lines: one case, rebuilt on its own -- *)

(* The config's enumerated keys, spelled by [Scenario.Spec]. *)
let spec_fields config =
  Scenario.Spec.protocol_fields config.protocol
  @ [ ("transport", Scenario.Spec.(to_string transport config.transport)) ]

let opt_repr f = function None -> "none" | Some x -> f x

let opt_of f = function
  | "none" -> Some None
  | s -> Option.map Option.some (f s)

(* Every config key a case's scenario depends on. *)
let sweep_keys config =
  [
    ("seed", Int64.to_string config.seed);
    ("events", string_of_int config.case_events);
    ("wall", opt_repr (Printf.sprintf "%h") config.case_wall);
    ("stuck", opt_repr string_of_int config.stuck);
  ]
  @ spec_fields config

let spec config i =
  Case.spec "soak" (sweep_keys config @ [ ("case", string_of_int i) ])

let ( let* ) = Result.bind

let scenario_of_spec keys =
  let f key parse = Case.field keys key parse in
  let* seed = f "seed" Int64.of_string_opt in
  let* case_events = f "events" int_of_string_opt in
  let* case_wall = f "wall" (opt_of float_of_string_opt) in
  let* stuck = f "stuck" (opt_of int_of_string_opt) in
  let* protocol = Scenario.Spec.protocol_of_fields keys in
  let* transport =
    Result.bind (f "transport" Option.some) Scenario.Spec.(of_string transport)
  in
  let* i =
    f "case" (fun s ->
        match Case.ints_of s with Some [ i ] -> Some i | _ -> None)
  in
  let config =
    { default with seed; case_events; case_wall; stuck; protocol; transport }
  in
  (* [build_scenarios] splits the master once per case *)
  let master = Rng.create seed in
  for _ = 1 to i do
    ignore (Rng.split master)
  done;
  Ok (build_case ~config (Rng.split master) i)

(* -- Running one case -- *)

let violated_invariants (m : Monitor.summary) =
  List.filter_map
    (fun (name, c) -> if c > 0 then Some name else None)
    m.Monitor.counts

let zero_counts = List.map (fun _ -> 0) Monitor.all_invariants

let render_violation (v : Monitor.violation) =
  Printf.sprintf "[%s] party=%d t=%d %s"
    (Monitor.invariant_name v.Monitor.invariant)
    v.Monitor.party v.Monitor.time v.Monitor.detail

let quarantined ((idx, scen) : int * Scenario.t) case reason =
  {
    cr_index = idx;
    cr_sync = scen.Scenario.sync_network;
    cr_checks = 0;
    cr_counts = zero_counts;
    cr_missing = 0;
    cr_pfail = 0;
    cr_diameter = 0.;
    cr_eps = scen.Scenario.cfg.Config.eps;
    cr_status =
      Quarantined
        { qd_seed = scen.Scenario.seed; qd_case = case; qd_reason = reason };
  }

(* One case, run inside a pool worker: watchdogged run, then (still in the
   worker, so it parallelizes and needs no engine state afterwards) the
   deterministic shrink of anything abnormal, folded into a plain-data
   record. *)
let run_case config ((idx, scen) as item : int * Scenario.t) : case_record =
  let r = Runner.run ~monitor:true scen in
  let shrink verdict =
    Case.shrink ~spec:(spec config idx) scen verdict
      ~plan:(Option.value scen.Scenario.chaos ~default:[])
      ~schedule:[]
  in
  match r.Runner.termination with
  | Runner.Completed ->
      let m = Option.get r.Runner.monitor in
      let status =
        match m.Monitor.violations with
        | [] -> Clean
        | vs ->
            Violating
              {
                vd_seed = scen.Scenario.seed;
                vd_case = shrink (Case.Violates (violated_invariants m));
                vd_total = List.length vs;
                vd_first =
                  List.filteri (fun k _ -> k < 3) (List.map render_violation vs);
              }
      in
      {
        cr_index = idx;
        cr_sync = scen.Scenario.sync_network;
        cr_checks = m.Monitor.checks;
        cr_counts = List.map snd m.Monitor.counts;
        cr_missing = m.Monitor.honest_expected - m.Monitor.honest_outputs;
        cr_pfail = r.Runner.stats.Engine.party_failures;
        cr_diameter = m.Monitor.final_diameter;
        cr_eps = m.Monitor.eps;
        cr_status = status;
      }
  | (Runner.Timed_out | Runner.Budget_exhausted) as t ->
      (* A watchdogged case is quarantined: its partial monitor tables are
         not trustworthy (deferred containment checks need complete runs),
         so it contributes nothing to the aggregate counters. The repro
         plan is still shrunk, against a "still fails to complete" oracle
         bounded by the same budgets. *)
      quarantined item (shrink Case.Incomplete)
        (Printf.sprintf "%s(%d events)"
           (Runner.termination_to_string t)
           r.Runner.stats.Engine.events_processed)

(* A crashed case (any exception, Out_of_memory-style fatals included,
   retried [config.retries] times by [Pool.map]) is quarantined without
   re-running anything — the repro "shrink" would risk crashing the
   calling domain itself, so the unshrunk plan is the artifact. *)
let crashed_record config ((idx, scen) as item) ~attempts ~last_error =
  let plan = Option.value scen.Scenario.chaos ~default:[] in
  quarantined item
    {
      Case.spec = spec config idx;
      plan;
      schedule = [];
      verdict = Case.Incomplete;
      shrunk_plan = plan;
      shrunk_schedule = [];
      tries = 0;
      minimal = false;
    }
    (Printf.sprintf "crashed: %s (attempts=%d)" last_error attempts)

(* -- Journal ---------------------------------------------------------

   Append-only checkpoint file in the case-file format ({!Case}): a header
   line binding the journal to the exact sweep configuration, then one
   line per completed case, written and flushed by the calling domain
   as each case's outcome becomes final. A clean case is an "ok" line
   with the aggregation fields only; a violating or quarantined case is a
   "case" line — replayable by [explore_main --replay] — with the same
   fields appended. A resumed sweep replays records instead of re-running
   their cases, so the final SOAK.json is byte-identical to an
   uninterrupted run's for any --domains count. A line that fails to
   parse (a SIGKILL-torn one, or counts of the wrong length) is dropped
   and its case re-runs. Floats render as hex ("%h") so they round-trip
   bit-exactly. *)

let journal_header config =
  Case.line Case.schema
    ([ ("cases", string_of_int config.cases);
       ("retries", string_of_int config.retries) ]
    @ sweep_keys config)

let render_case (r : case_record) =
  let fields =
    [
      ("index", string_of_int r.cr_index);
      ("sync", string_of_bool r.cr_sync);
      ("checks", string_of_int r.cr_checks);
      ("counts", Case.ints r.cr_counts);
      ("missing", string_of_int r.cr_missing);
      ("pfail", string_of_int r.cr_pfail);
      ("diameter", Printf.sprintf "%h" r.cr_diameter);
      ("eps", Printf.sprintf "%h" r.cr_eps);
    ]
  in
  match r.cr_status with
  | Clean -> Case.line "ok" fields
  | Violating v ->
      Case.line "case"
        (Case.to_fields v.vd_case @ fields
        @ [ ("seed", Int64.to_string v.vd_seed);
            ("total", string_of_int v.vd_total) ]
        @ List.map (fun l -> ("first", l)) v.vd_first)
  | Quarantined q ->
      Case.line "case"
        (Case.to_fields q.qd_case @ fields
        @ [ ("seed", Int64.to_string q.qd_seed); ("reason", q.qd_reason) ])

let parse_case line =
  let* tag, fs = Case.parse_line line in
  let f key parse = Case.field fs key parse in
  let* status =
    match tag with
    | "ok" -> Ok Clean
    | "case" -> (
        let* case = Case.of_fields fs in
        let* seed = f "seed" Int64.of_string_opt in
        match case.Case.verdict with
        | Case.Violates _ ->
            let* total = f "total" int_of_string_opt in
            let first =
              List.filter_map
                (fun (k, v) -> if k = "first" then Some v else None)
                fs
            in
            Ok
              (Violating
                 { vd_seed = seed; vd_case = case; vd_total = total;
                   vd_first = first })
        | Case.Incomplete ->
            let* reason = f "reason" Option.some in
            Ok
              (Quarantined
                 { qd_seed = seed; qd_case = case; qd_reason = reason }))
    | t -> Error (Printf.sprintf "unknown record %S" t)
  in
  let* cr_index = f "index" int_of_string_opt in
  let* cr_sync = f "sync" bool_of_string_opt in
  let* cr_checks = f "checks" int_of_string_opt in
  let* cr_counts =
    f "counts" (fun s ->
        match Case.ints_of s with
        | Some l when List.length l = List.length Monitor.all_invariants -> Some l
        | _ -> None)
  in
  let* cr_missing = f "missing" int_of_string_opt in
  let* cr_pfail = f "pfail" int_of_string_opt in
  let* cr_diameter = f "diameter" float_of_string_opt in
  let* cr_eps = f "eps" float_of_string_opt in
  Ok
    {
      cr_index; cr_sync; cr_checks; cr_counts; cr_missing; cr_pfail;
      cr_diameter; cr_eps; cr_status = status;
    }

let load_journal ~header path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | [] -> Error (Printf.sprintf "journal %s is empty" path)
  | first :: rest -> (
      match String.split_on_char '\t' first with
      | schema :: _ when schema <> Case.schema ->
          Error
            (Printf.sprintf "journal %s has schema %s, expected %s" path schema
               Case.schema)
      | _ when first <> header ->
          Error
            (Printf.sprintf
               "journal %s was written by a different sweep configuration\n\
               \  journal: %s\n\
               \  current: %s" path first header)
      | _ -> Ok (List.filter_map (fun l -> Result.to_option (parse_case l)) rest))

(* -- Sweep ----------------------------------------------------------- *)

let aggregate records =
  let graded =
    List.filter
      (fun r -> match r.cr_status with Quarantined _ -> false | _ -> true)
      records
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 graded in
  (* every record's counts are aligned with the invariants: the codec
     refuses any other length *)
  let counts =
    List.mapi
      (fun k inv ->
        (Monitor.invariant_name inv, sum (fun r -> List.nth r.cr_counts k)))
      Monitor.all_invariants
  in
  let violations_total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  let worst_diameter, worst_diameter_eps, worst_diameter_case =
    List.fold_left
      (fun ((best, _, _) as acc) r ->
        if r.cr_diameter > best then (r.cr_diameter, r.cr_eps, case_name r.cr_index)
        else acc)
      (-1., 0., "") graded
  in
  let violating =
    List.filter_map
      (fun r ->
        match r.cr_status with Violating v -> Some (r, v) | _ -> None)
      records
  in
  let quarantined =
    List.filter_map
      (fun r ->
        match r.cr_status with Quarantined q -> Some (r, q) | _ -> None)
      records
  in
  let sync_cases = List.length (List.filter (fun r -> r.cr_sync) records) in
  {
    total = List.length records;
    sync_cases;
    async_cases = List.length records - sync_cases;
    checks = sum (fun r -> r.cr_checks);
    counts;
    violations_total;
    missing_outputs = sum (fun r -> r.cr_missing);
    party_failures = sum (fun r -> r.cr_pfail);
    worst_diameter = (if worst_diameter < 0. then 0. else worst_diameter);
    worst_diameter_eps;
    worst_diameter_case;
    violating;
    quarantined;
  }

let execute ?journal ?(resume = false) config =
  if config.cases <= 0 then invalid_arg "Soak.execute: cases <= 0";
  if config.domains <= 0 then invalid_arg "Soak.execute: domains <= 0";
  if resume && journal = None then
    invalid_arg "Soak.execute: resume requires a journal";
  let scenarios = build_scenarios config in
  let header = journal_header config in
  let records_tbl : (int, case_record) Hashtbl.t =
    Hashtbl.create (config.cases * 2)
  in
  (match (journal, resume) with
  | Some path, true -> (
      match load_journal ~header path with
      | Ok records ->
          List.iter
            (fun r ->
              if r.cr_index >= 0 && r.cr_index < config.cases
                 && not (Hashtbl.mem records_tbl r.cr_index)
              then Hashtbl.add records_tbl r.cr_index r)
            records
      | Error msg -> invalid_arg ("Soak.execute: " ^ msg))
  | _ -> ());
  let indexed = List.mapi (fun i s -> (i, s)) scenarios in
  let remaining =
    Array.of_list
      (List.filter (fun (i, _) -> not (Hashtbl.mem records_tbl i)) indexed)
  in
  let oc =
    match journal with
    | None -> None
    | Some path ->
        if resume then begin
          let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
          (* a SIGKILL may have torn the last line mid-write, leaving no
             trailing newline; start on a fresh line so the first resumed
             record can't merge into the torn one (a blank line parses as
             malformed and is skipped, which is harmless) *)
          output_char oc '\n';
          Some oc
        end
        else begin
          let oc = open_out path in
          output_string oc header;
          output_char oc '\n';
          flush oc;
          Some oc
        end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out oc)
    (fun () ->
      if Array.length remaining > 0 then begin
        (* on_done runs in this (calling) domain, case by case as the
           workers finish them — the journal records progress even if the
           process is killed mid-sweep. *)
        let on_done pos outcome =
          let ((idx, _) as item) = remaining.(pos) in
          let record =
            match outcome with
            | Pool.Done r -> r
            | Pool.Crashed { attempts; exn; _ } ->
                crashed_record config item ~attempts
                  ~last_error:(Printexc.to_string exn)
          in
          Hashtbl.replace records_tbl idx record;
          match oc with
          | None -> ()
          | Some oc ->
              output_string oc (render_case record);
              output_char oc '\n';
              flush oc
        in
        ignore
          (Pool.map ~domains:config.domains
             ~max_retries:config.retries ~on_done (run_case config)
             (Array.to_list remaining))
      end);
  aggregate (List.map (fun (i, _) -> Hashtbl.find records_tbl i) indexed)

(* -- JSON report -- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let invariants (c : Case.t) =
  match c.Case.verdict with Case.Violates invs -> invs | Case.Incomplete -> []

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let json_strings lst =
  "[" ^ String.concat ", " (List.map (fun s -> "\"" ^ json_escape s ^ "\"") lst)
  ^ "]"

(* No wall-clock values and no [domains]-dependent fields: the document must
   be byte-identical for any worker count and for interrupted-and-resumed
   vs uninterrupted sweeps (both tested in test_chaos.ml). *)
let to_json config (o : outcome) =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "{\n";
  out "  \"schema\": \"maaa-soak/2\",\n";
  out "  \"seed\": %Ld,\n" config.seed;
  let fields = spec_fields config and defaults = spec_fields default in
  out "  \"mutant\": \"%s\",\n" (List.assoc "mutant" fields);
  (* The other keys are emitted only when non-default so the committed
     SOAK.json (written before these knobs existed) stays byte-stable
     under schema 2. *)
  List.iter
    (fun (key, json_key) ->
      let v = List.assoc key fields in
      if v <> List.assoc key defaults then out "  \"%s\": \"%s\",\n" json_key v)
    [ ("layer", "message_layer"); ("protocol", "protocol");
      ("transport", "transport") ];
  out "  \"case_events\": %d,\n" config.case_events;
  out "  \"cases\": %d,\n" o.total;
  out "  \"sync_cases\": %d,\n" o.sync_cases;
  out "  \"async_cases\": %d,\n" o.async_cases;
  out "  \"checks\": %d,\n" o.checks;
  out "  \"violations_total\": %d,\n" o.violations_total;
  out "  \"invariants\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (name, c) -> Printf.sprintf "\"%s\": %d" (json_escape name) c)
          o.counts));
  out "  \"missing_outputs\": %d,\n" o.missing_outputs;
  out "  \"party_failures\": %d,\n" o.party_failures;
  out "  \"quarantined\": %d,\n" (List.length o.quarantined);
  out "  \"worst_final_diameter\": {\"case\": \"%s\", \"value\": %s, \"eps\": %s},\n"
    (json_escape o.worst_diameter_case)
    (json_float o.worst_diameter)
    (json_float o.worst_diameter_eps);
  let head r seed =
    out "      \"name\": \"%s\",\n" (json_escape (case_name r.cr_index));
    out "      \"seed\": %Ld,\n" seed;
    out "      \"sync\": %b,\n" r.cr_sync
  in
  let repro (c : Case.t) =
    out "      \"plan\": %s,\n" (json_strings (Fault_plan.to_strings c.Case.plan));
    out "      \"shrunk_plan\": %s,\n"
      (json_strings (Fault_plan.to_strings c.Case.shrunk_plan));
    out "      \"shrink_tries\": %d,\n" c.Case.tries;
    out "      \"shrink_minimal\": %b\n" c.Case.minimal
  in
  out "  \"quarantined_cases\": [";
  List.iteri
    (fun k (r, q) ->
      if k > 0 then out ",";
      out "\n    {\n";
      head r q.qd_seed;
      out "      \"reason\": \"%s\",\n" (json_escape q.qd_reason);
      repro q.qd_case;
      out "    }")
    o.quarantined;
  if o.quarantined <> [] then out "\n  ";
  out "],\n";
  out "  \"violating_cases\": [";
  List.iteri
    (fun k (r, v) ->
      if k > 0 then out ",";
      out "\n    {\n";
      head r v.vd_seed;
      out "      \"invariants\": %s,\n" (json_strings (invariants v.vd_case));
      out "      \"violations\": %d,\n" v.vd_total;
      (match v.vd_first with
      | [] -> ()
      | line :: _ ->
          out "      \"first_violation\": \"%s\",\n" (json_escape line));
      repro v.vd_case;
      out "    }")
    o.violating;
  if o.violating <> [] then out "\n  ";
  out "]\n";
  out "}\n";
  Buffer.contents b

let pp ppf (o : outcome) =
  Format.fprintf ppf
    "soak: %d cases (%d sync, %d async), %d checks, %d violations, %d quarantined@."
    o.total o.sync_cases o.async_cases o.checks o.violations_total
    (List.length o.quarantined);
  List.iter
    (fun (name, c) -> Format.fprintf ppf "  %-18s %d@." name c)
    o.counts;
  Format.fprintf ppf "  missing outputs: %d, isolated failures: %d@."
    o.missing_outputs o.party_failures;
  if o.worst_diameter_case <> "" then
    Format.fprintf ppf "  worst final diameter: %.3e (eps=%g) in %s@."
      o.worst_diameter o.worst_diameter_eps o.worst_diameter_case;
  let head kind r seed what =
    Format.fprintf ppf "  %s %s (seed=%Ld, %s): %s@." kind
      (case_name r.cr_index) seed
      (if r.cr_sync then "sync" else "async")
      what
  in
  let shrunk (c : Case.t) ~empty =
    Format.fprintf ppf "    shrunk (%d tries, minimal=%b): %s@." c.Case.tries
      c.Case.minimal
      (match Fault_plan.to_strings c.Case.shrunk_plan with
      | [] -> empty
      | atoms -> String.concat "; " atoms)
  in
  List.iter
    (fun (r, q) ->
      head "QUARANTINED" r q.qd_seed q.qd_reason;
      Format.fprintf ppf "    plan: %s@."
        (match Fault_plan.to_strings q.qd_case.Case.plan with
        | [] -> "<none>"
        | atoms -> String.concat "; " atoms);
      shrunk q.qd_case ~empty:"<empty plan — the case wedges under every sub-plan>")
    o.quarantined;
  List.iter
    (fun (r, v) ->
      head "VIOLATION" r v.vd_seed (String.concat "," (invariants v.vd_case));
      List.iter
        (fun line -> Format.fprintf ppf "    %s@." line)
        v.vd_first;
      Format.fprintf ppf "    plan: %s@."
        (String.concat "; " (Fault_plan.to_strings v.vd_case.Case.plan));
      shrunk v.vd_case ~empty:"<empty plan — the protocol variant itself violates>")
    o.violating
