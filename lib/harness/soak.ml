type config = {
  cases : int;
  seed : int64;
  domains : int;
  max_shrink : int;
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
    max_shrink = 200;
    case_events = 10_000_000;
    case_wall = Some 300.;
    retries = 1;
    stuck = None;
    protocol = Scenario.maaa;
    transport = `Sim;
  }

(* -- Per-case records ------------------------------------------------

   Everything the final report needs about one case, as plain data
   (strings, ints, floats — no closures, no plan values), so a record can
   round-trip through the journal byte-exactly and a resumed sweep
   aggregates to the same SOAK.json as an uninterrupted one. *)

type violating_detail = {
  vd_invariants : string list;
  vd_total : int;
  vd_first : string list;  (* up to 3 rendered violations *)
  vd_shrunk : string list;
  vd_tries : int;
  vd_minimal : bool;
}

type quarantine_detail = {
  qd_reason : string;
  qd_shrunk : string list;
  qd_tries : int;
  qd_minimal : bool;
}

type case_status =
  | Clean
  | Violating of violating_detail
  | Quarantined of quarantine_detail

type case_record = {
  cr_index : int;
  cr_name : string;
  cr_seed : int64;
  cr_sync : bool;
  cr_checks : int;
  cr_counts : int list;  (* aligned with Monitor.all_invariants *)
  cr_missing : int;
  cr_pfail : int;
  cr_diameter : float;
  cr_eps : float;
  cr_plan : string list;
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
  (* EW drops the chaos plan (after sampling it, so every case draws the
     same RNG stream): adaptive corruption grading is calibrated against
     ΠAA's iteration structure, and EW's static-corruption coverage is
     the property under test. *)
  let chaos = if ew then None else Some chaos in
  let scen =
    Scenario.make
      ~name:(Printf.sprintf "soak-%04d" i)
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

let violated_invariants (m : Monitor.summary) =
  List.filter_map
    (fun (name, c) -> if c > 0 then Some name else None)
    m.Monitor.counts

let shrink_case ~max_shrink (scen : Scenario.t) (m : Monitor.summary) =
  let target = violated_invariants m in
  let reproduces plan' =
    let r = Runner.run ~monitor:true { scen with Scenario.chaos = Some plan' } in
    match r.Runner.monitor with
    | Some m' ->
        List.exists
          (fun (name, c) -> c > 0 && List.mem name target)
          m'.Monitor.counts
    | None -> false
  in
  let plan = Option.value scen.Scenario.chaos ~default:[] in
  Fault_shrink.shrink ~max_tries:max_shrink ~reproduces plan

let monitor_exn name = function
  | Some (m : Monitor.summary) -> m
  | None -> invalid_arg ("Soak: no monitor summary for " ^ name)

let plan_strings (scen : Scenario.t) =
  match scen.Scenario.chaos with
  | None -> []
  | Some plan -> Fault_plan.to_strings plan

let zero_counts = List.map (fun _ -> 0) Monitor.all_invariants

let render_violation (v : Monitor.violation) =
  Printf.sprintf "[%s] party=%d t=%d %s"
    (Monitor.invariant_name v.Monitor.invariant)
    v.Monitor.party v.Monitor.time v.Monitor.detail

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* One case, run inside a pool worker: watchdogged run, then (still in the
   worker, so it parallelizes and needs no engine state afterwards) the
   deterministic shrink of anything abnormal, folded into a plain-data
   record. *)
let run_case config ((idx, scen) : int * Scenario.t) : case_record =
  let r = Runner.run ~monitor:true scen in
  let base ~checks ~counts ~missing ~pfail ~diameter ~eps status =
    {
      cr_index = idx;
      cr_name = scen.Scenario.name;
      cr_seed = scen.Scenario.seed;
      cr_sync = scen.Scenario.sync_network;
      cr_checks = checks;
      cr_counts = counts;
      cr_missing = missing;
      cr_pfail = pfail;
      cr_diameter = diameter;
      cr_eps = eps;
      cr_plan = plan_strings scen;
      cr_status = status;
    }
  in
  match r.Runner.termination with
  | Runner.Completed ->
      let m = monitor_exn scen.Scenario.name r.Runner.monitor in
      let counts =
        List.map
          (fun inv ->
            match
              List.assoc_opt (Monitor.invariant_name inv) m.Monitor.counts
            with
            | Some c -> c
            | None -> 0)
          Monitor.all_invariants
      in
      let status =
        if Monitor.total_violations m = 0 then Clean
        else
          let shrunk = shrink_case ~max_shrink:config.max_shrink scen m in
          Violating
            {
              vd_invariants = violated_invariants m;
              vd_total = List.length m.Monitor.violations;
              vd_first = take 3 (List.map render_violation m.Monitor.violations);
              vd_shrunk = Fault_plan.to_strings shrunk.Fault_shrink.plan;
              vd_tries = shrunk.Fault_shrink.tries;
              vd_minimal = shrunk.Fault_shrink.minimal;
            }
      in
      base ~checks:m.Monitor.checks ~counts
        ~missing:(m.Monitor.honest_expected - m.Monitor.honest_outputs)
        ~pfail:r.Runner.stats.Engine.party_failures
        ~diameter:m.Monitor.final_diameter ~eps:m.Monitor.eps status
  | (Runner.Timed_out | Runner.Budget_exhausted) as t ->
      (* A watchdogged case is quarantined: its partial monitor tables are
         not trustworthy (deferred containment checks need complete runs),
         so it contributes nothing to the aggregate counters. The repro
         plan is still shrunk, against a "still fails to complete" oracle
         bounded by the same budgets. *)
      let reproduces plan' =
        let r' =
          Runner.run ~monitor:false { scen with Scenario.chaos = Some plan' }
        in
        r'.Runner.termination <> Runner.Completed
      in
      let plan = Option.value scen.Scenario.chaos ~default:[] in
      let shrunk =
        Fault_shrink.shrink ~max_tries:config.max_shrink ~reproduces plan
      in
      base ~checks:0 ~counts:zero_counts ~missing:0 ~pfail:0 ~diameter:0.
        ~eps:scen.Scenario.cfg.Config.eps
        (Quarantined
           {
             qd_reason =
               Printf.sprintf "%s(%d events)"
                 (Runner.termination_to_string t)
                 r.Runner.stats.Engine.events_processed;
             qd_shrunk = Fault_plan.to_strings shrunk.Fault_shrink.plan;
             qd_tries = shrunk.Fault_shrink.tries;
             qd_minimal = shrunk.Fault_shrink.minimal;
           })

(* A worker-domain crash (Out_of_memory-style fatal, retried
   [config.retries] times by the supervised pool) is quarantined without
   re-running anything — the repro "shrink" would risk crashing the
   supervisor itself, so the unshrunk plan is the artifact. *)
let crashed_record ((idx, scen) : int * Scenario.t) ~attempts ~last_error =
  let plan = plan_strings scen in
  {
    cr_index = idx;
    cr_name = scen.Scenario.name;
    cr_seed = scen.Scenario.seed;
    cr_sync = scen.Scenario.sync_network;
    cr_checks = 0;
    cr_counts = zero_counts;
    cr_missing = 0;
    cr_pfail = 0;
    cr_diameter = 0.;
    cr_eps = scen.Scenario.cfg.Config.eps;
    cr_plan = plan;
    cr_status =
      Quarantined
        {
          qd_reason =
            Printf.sprintf "crashed: %s (attempts=%d)" last_error attempts;
          qd_shrunk = plan;
          qd_tries = 0;
          qd_minimal = false;
        };
  }

(* -- Journal ---------------------------------------------------------

   Append-only checkpoint file (schema "maaa-soak-journal/2"): a header
   line binding the journal to the exact sweep configuration, then one
   line per completed case, written and flushed by the supervising domain
   as each case's outcome becomes final. A resumed sweep replays records
   instead of re-running their cases, so the final SOAK.json is
   byte-identical to an uninterrupted run's for any --domains count.

   Robustness: a SIGKILL can truncate the last line mid-write, so every
   record line ends with a "." sentinel field and any line that fails to
   parse (or lacks the sentinel) is discarded — that case simply re-runs.
   Encoding is line-oriented: fields are TAB-separated; strings are
   percent-encoded (%, TAB, control bytes, '~'); string lists join their
   encoded elements with US (0x1f), with "~" denoting the empty list;
   floats render as hex ("%h") so they round-trip bit-exactly. *)

let journal_schema = "maaa-soak-journal/2"

(* The config's enumerated keys, spelled by [Scenario.Spec]. *)
let spec_fields config =
  Scenario.Spec.protocol_fields config.protocol
  @ [ ("transport", Scenario.Spec.(to_string transport config.transport)) ]

let journal_header config =
  let p k = List.assoc k (spec_fields config) in
  Printf.sprintf
    "%s\tseed=%Ld\tcases=%d\tmutant=%s\tevents=%d\twall=%s\tretries=%d\tstuck=%s\tmax_shrink=%d\tlayer=%s\tprotocol=%s\ttransport=%s"
    journal_schema config.seed config.cases (p "mutant")
    config.case_events
    (match config.case_wall with None -> "none" | Some w -> Printf.sprintf "%h" w)
    config.retries
    (match config.stuck with None -> "none" | Some i -> string_of_int i)
    config.max_shrink (p "layer") (p "protocol") (p "transport")

exception Bad_line

let dec s =
  match Scenario.Spec.decode s with Ok s -> s | Error _ -> raise Bad_line

let enc_list = function
  | [] -> "~"
  | l -> String.concat "\x1f" (List.map Scenario.Spec.encode l)

let dec_list = function
  | "~" -> []
  | s -> List.map dec (String.split_on_char '\x1f' s)

let int_of_field s = match int_of_string_opt s with Some i -> i | None -> raise Bad_line
let int64_of_field s = match Int64.of_string_opt s with Some i -> i | None -> raise Bad_line
let float_of_field s = match float_of_string_opt s with Some f -> f | None -> raise Bad_line

let bool_of_field = function
  | "1" -> true
  | "0" -> false
  | _ -> raise Bad_line

let render_case (r : case_record) =
  let b = Buffer.create 256 in
  let fld s = Buffer.add_char b '\t'; Buffer.add_string b s in
  Buffer.add_string b "c";
  fld (string_of_int r.cr_index);
  fld (Scenario.Spec.encode r.cr_name);
  fld (Int64.to_string r.cr_seed);
  fld (if r.cr_sync then "1" else "0");
  fld (string_of_int r.cr_checks);
  fld (String.concat "," (List.map string_of_int r.cr_counts));
  fld (string_of_int r.cr_missing);
  fld (string_of_int r.cr_pfail);
  fld (Printf.sprintf "%h" r.cr_diameter);
  fld (Printf.sprintf "%h" r.cr_eps);
  fld (enc_list r.cr_plan);
  (match r.cr_status with
  | Clean -> fld "ok"
  | Violating v ->
      fld "viol";
      fld (enc_list v.vd_invariants);
      fld (string_of_int v.vd_total);
      fld (enc_list v.vd_first);
      fld (enc_list v.vd_shrunk);
      fld (string_of_int v.vd_tries);
      fld (if v.vd_minimal then "1" else "0")
  | Quarantined q ->
      fld "quar";
      fld (Scenario.Spec.encode q.qd_reason);
      fld (enc_list q.qd_shrunk);
      fld (string_of_int q.qd_tries);
      fld (if q.qd_minimal then "1" else "0"));
  fld ".";
  Buffer.contents b

let parse_case line =
  match String.split_on_char '\t' line with
  | "c" :: idx :: name :: seed :: sync :: checks :: counts :: missing :: pfail
    :: diam :: eps :: plan :: rest ->
      let status =
        match rest with
        | [ "ok"; "." ] -> Clean
        | [ "viol"; invs; total; first; shrunk; tries; minimal; "." ] ->
            Violating
              {
                vd_invariants = dec_list invs;
                vd_total = int_of_field total;
                vd_first = dec_list first;
                vd_shrunk = dec_list shrunk;
                vd_tries = int_of_field tries;
                vd_minimal = bool_of_field minimal;
              }
        | [ "quar"; reason; shrunk; tries; minimal; "." ] ->
            Quarantined
              {
                qd_reason = dec reason;
                qd_shrunk = dec_list shrunk;
                qd_tries = int_of_field tries;
                qd_minimal = bool_of_field minimal;
              }
        | _ -> raise Bad_line
      in
      {
        cr_index = int_of_field idx;
        cr_name = dec name;
        cr_seed = int64_of_field seed;
        cr_sync = bool_of_field sync;
        cr_checks = int_of_field checks;
        cr_counts =
          (match counts with
          | "" -> []
          | s -> List.map int_of_field (String.split_on_char ',' s));
        cr_missing = int_of_field missing;
        cr_pfail = int_of_field pfail;
        cr_diameter = float_of_field diam;
        cr_eps = float_of_field eps;
        cr_plan = dec_list plan;
        cr_status = status;
      }
  | _ -> raise Bad_line

let load_journal ~header path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "journal %s does not exist" path)
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    match List.rev !lines with
    | [] -> Error (Printf.sprintf "journal %s is empty" path)
    | first :: rest ->
        if first <> header then
          Error
            (Printf.sprintf
               "journal %s was written by a different sweep configuration\n\
               \  journal: %s\n\
               \  current: %s" path first header)
        else
          Ok
            (List.filter_map
               (fun line -> try Some (parse_case line) with Bad_line -> None)
               rest)
  end

(* -- Sweep ----------------------------------------------------------- *)

let aggregate records =
  let graded =
    List.filter
      (fun r -> match r.cr_status with Quarantined _ -> false | _ -> true)
      records
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 graded in
  let counts =
    List.mapi
      (fun k inv ->
        ( Monitor.invariant_name inv,
          sum (fun r -> try List.nth r.cr_counts k with _ -> 0) ))
      Monitor.all_invariants
  in
  let violations_total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  let worst_diameter, worst_diameter_eps, worst_diameter_case =
    List.fold_left
      (fun ((best, _, _) as acc) r ->
        if r.cr_diameter > best then (r.cr_diameter, r.cr_eps, r.cr_name)
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
        (* on_done runs in this (supervising) domain, case by case as the
           pool finishes them — the journal records progress even if the
           process is killed mid-sweep. *)
        let on_done pos outcome =
          let ((idx, _) as item) = remaining.(pos) in
          let record =
            match outcome with
            | Pool.Supervised.Done r -> r
            | Pool.Supervised.Crashed { attempts; last_error } ->
                crashed_record item ~attempts ~last_error
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
          (Pool.Supervised.map ~domains:config.domains
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
  out "  \"quarantined_cases\": [";
  List.iteri
    (fun k (r, q) ->
      if k > 0 then out ",";
      out "\n    {\n";
      out "      \"name\": \"%s\",\n" (json_escape r.cr_name);
      out "      \"seed\": %Ld,\n" r.cr_seed;
      out "      \"sync\": %b,\n" r.cr_sync;
      out "      \"reason\": \"%s\",\n" (json_escape q.qd_reason);
      out "      \"plan\": %s,\n" (json_strings r.cr_plan);
      out "      \"shrunk_plan\": %s,\n" (json_strings q.qd_shrunk);
      out "      \"shrink_tries\": %d,\n" q.qd_tries;
      out "      \"shrink_minimal\": %b\n" q.qd_minimal;
      out "    }")
    o.quarantined;
  if o.quarantined <> [] then out "\n  ";
  out "],\n";
  out "  \"violating_cases\": [";
  List.iteri
    (fun k (r, v) ->
      if k > 0 then out ",";
      out "\n    {\n";
      out "      \"name\": \"%s\",\n" (json_escape r.cr_name);
      out "      \"seed\": %Ld,\n" r.cr_seed;
      out "      \"sync\": %b,\n" r.cr_sync;
      out "      \"invariants\": %s,\n" (json_strings v.vd_invariants);
      out "      \"violations\": %d,\n" v.vd_total;
      (match v.vd_first with
      | [] -> ()
      | line :: _ ->
          out "      \"first_violation\": \"%s\",\n" (json_escape line));
      out "      \"plan\": %s,\n" (json_strings r.cr_plan);
      out "      \"shrunk_plan\": %s,\n" (json_strings v.vd_shrunk);
      out "      \"shrink_tries\": %d,\n" v.vd_tries;
      out "      \"shrink_minimal\": %b\n" v.vd_minimal;
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
  List.iter
    (fun (r, q) ->
      Format.fprintf ppf "  QUARANTINED %s (seed=%Ld, %s): %s@." r.cr_name
        r.cr_seed
        (if r.cr_sync then "sync" else "async")
        q.qd_reason;
      Format.fprintf ppf "    plan: %s@."
        (match r.cr_plan with
        | [] -> "<none>"
        | atoms -> String.concat "; " atoms);
      Format.fprintf ppf "    shrunk (%d tries, minimal=%b): %s@."
        q.qd_tries q.qd_minimal
        (match q.qd_shrunk with
        | [] -> "<empty plan — the case wedges under every sub-plan>"
        | atoms -> String.concat "; " atoms))
    o.quarantined;
  List.iter
    (fun (r, v) ->
      Format.fprintf ppf "  VIOLATION %s (seed=%Ld, %s): %s@." r.cr_name
        r.cr_seed
        (if r.cr_sync then "sync" else "async")
        (String.concat "," v.vd_invariants);
      List.iter
        (fun line -> Format.fprintf ppf "    %s@." line)
        v.vd_first;
      Format.fprintf ppf "    plan: %s@."
        (String.concat "; " r.cr_plan);
      Format.fprintf ppf "    shrunk (%d tries, minimal=%b): %s@."
        v.vd_tries v.vd_minimal
        (match v.vd_shrunk with
        | [] -> "<empty plan — the protocol variant itself violates>"
        | atoms -> String.concat "; " atoms))
    o.violating
