module IntSet = Set.Make (Int)

type mode = Naive | Pruned

type adversary =
  | Honest
  | Crash of { party : int; max_tick : int }
  | Equivocator of { party : int; values : Vec.t * Vec.t }

type config = {
  cfg : Config.t;
  inputs : Vec.t list;
  mode : mode;
  adversary : adversary;
  protocol : Scenario.protocol;
  max_events : int;
  max_executions : int;
  max_schedule_depth : int;
  max_counterexamples : int;
}

(* -- the adversary's symbolic domain, as fault plans -- *)

let plans_of_adversary cfg = function
  | Honest -> [ [] ]
  | Crash { party; max_tick } ->
      List.init (max_tick + 1) (fun tick ->
          [ Fault_plan.Corrupt_at { tick; party; behavior = Behavior.Silent } ])
  | Equivocator { party; values } ->
      (* Every nonempty subset of the other parties receives the second
         value; the split party itself always stays on side 0. *)
      let n = cfg.Config.n in
      let others = List.filter (fun p -> p <> party) (List.init n Fun.id) in
      let k = List.length others in
      List.init ((1 lsl k) - 1) (fun m ->
          let mask = m + 1 in
          let assign = Array.make n 0 in
          List.iteri
            (fun bit p -> if mask land (1 lsl bit) <> 0 then assign.(p) <- 1)
            others;
          [
            Fault_plan.Corrupt_at
              {
                tick = 0;
                party;
                behavior = Behavior.Equivocate_split { values; assign };
              };
          ])

let default_config ?(mode = Pruned) ?(adversary = Honest)
    ?(protocol = Scenario.maaa) ?(max_events = 50_000) ?(max_executions = 20_000)
    ?(max_schedule_depth = 4) ?(max_counterexamples = 3) ~cfg ~inputs () =
  if List.length inputs <> cfg.Config.n then
    invalid_arg "Explore.default_config: need one input per party";
  (match plans_of_adversary cfg adversary with
  | [] | [ [] ] -> ()
  | plan :: _ -> (
      (* One representative plan stands in for the whole domain: every
         plan in it has the same corruption target. *)
      match Fault_plan.validate ~cfg ~sync:true ~existing:[] plan with
      | Ok () -> ()
      | Error e -> invalid_arg ("Explore.default_config: " ^ e)));
  {
    cfg;
    inputs;
    mode;
    adversary;
    protocol;
    max_events;
    max_executions;
    max_schedule_depth;
    max_counterexamples;
  }

(* -- one execution under a schedule prefix -- *)

exception Cut_execution

let scenario_of config plan =
  Scenario.make ~name:"explore"
    ?chaos:(if plan = [] then None else Some plan)
    ~protocol:config.protocol
    ~budget:{ Scenario.max_events = Some config.max_events; wall_seconds = None }
    ~cfg:config.cfg ~inputs:config.inputs ()

(* Violated-invariant names for one graded run. Monitor violations count
   whatever the termination (an agreement or malformed-message violation
   over a partial run is a real violation); liveness and the result-level
   flags are meaningful only for a quiescent run. *)
let violated (result : Runner.result) =
  let from_monitor =
    match result.Runner.monitor with
    | None -> []
    | Some s ->
        List.map
          (fun v -> Monitor.invariant_name v.Monitor.invariant)
          s.Monitor.violations
  in
  let flags =
    if result.Runner.termination = Runner.Completed then
      (if not result.Runner.live then [ "liveness" ] else [])
      @ (if result.Runner.live && not result.Runner.valid then [ "validity" ]
         else [])
      @
      if result.Runner.live && not result.Runner.agreement then [ "agreement" ]
      else []
    else []
  in
  List.sort_uniq compare (from_monitor @ flags)

(* Canonical state fingerprint at a choice point. Components:
   - the current tick (parties observe [now]);
   - per-party digest chains over each party's own delivery/timer
     history — order across parties does not enter, which is exactly the
     commutativity the DPOR reduction exploits;
   - the pending-event multiset (the popped candidates plus the rest of
     the heap) as (delta-tick, target, event digest), sorted — sequence
     numbers, which depend on the order commuting handlers ran in, are
     deliberately excluded;
   - handler liveness per party (crashes are state). *)
let fingerprint ~digests ~alive ~now ~cands ~rest =
  let b = Buffer.create 512 in
  Buffer.add_string b (string_of_int now);
  Buffer.add_char b '|';
  Array.iter
    (fun d ->
      Buffer.add_string b d;
      Buffer.add_char b '.')
    digests;
  Array.iter (fun a -> Buffer.add_char b (if a then '1' else '0')) alive;
  let entry (c : Message.t Engine.choice) =
    ( c.Engine.ch_at - now,
      c.Engine.ch_target,
      Digest.string (Marshal.to_string c.Engine.ch_event []) )
  in
  let pend =
    List.sort compare (List.map entry (Array.to_list cands @ rest))
  in
  List.iter
    (fun (dt, tgt, dg) ->
      Buffer.add_string b (Printf.sprintf "|%d.%d." dt tgt);
      Buffer.add_string b dg)
    pend;
  Digest.string (Buffer.contents b)

type exec = {
  ex_schedule : int list;  (** recorded chooser answers *)
  ex_alternatives : int list list;  (** sibling prefixes registered *)
  ex_invariants : string list;
  ex_truncated : bool;
  ex_cut : bool;
  ex_points : int;  (** chooser consultations in this execution *)
}

(* State-dedup table: fingerprint -> Pareto-maximal (remaining events,
   remaining depth) pairs already explored from that state. A revisit is
   cut only when some recorded visit dominated it on both budgets —
   otherwise the deeper/longer revisit still contributes coverage. *)
type dedup = (string, (int * int) list) Hashtbl.t

let dedup_dominates table fp ~re ~rd =
  match Hashtbl.find_opt table fp with
  | None -> false
  | Some visits -> List.exists (fun (re', rd') -> re' >= re && rd' >= rd) visits

let dedup_record table fp ~re ~rd =
  let visits = Option.value (Hashtbl.find_opt table fp) ~default:[] in
  let survivors =
    List.filter (fun (re', rd') -> not (re >= re' && rd >= rd')) visits
  in
  Hashtbl.replace table fp ((re, rd) :: survivors)

let run_one config plan ~prefix ~(dedup : dedup option) ~register_alternatives =
  let scenario = scenario_of config plan in
  let n = config.cfg.Config.n in
  let digests = Array.make n "" in
  let events_done = ref 0 in
  let prefix_left = ref prefix in
  let sched_rev = ref [] in
  let alts_rev = ref [] in
  let points = ref 0 in
  let cut = ref false in
  let engine_ref = ref None in
  let tracer ev =
    match ev with
    | Engine.Delivered { src; dst; at; msg } ->
        incr events_done;
        digests.(dst) <-
          Digest.string
            (digests.(dst)
            ^ Printf.sprintf "D%d.%d." src at
            ^ Digest.string (Marshal.to_string msg []))
    | Engine.Timer_fired { party; at; tag } ->
        incr events_done;
        digests.(party) <-
          Digest.string (digests.(party) ^ Printf.sprintf "T%d.%d" tag at)
    | Engine.Sent _ | Engine.Party_failed _ -> ()
  in
  let chooser (cands : Message.t Engine.choice array) =
    incr points;
    let k = Array.length cands in
    match !prefix_left with
    | i :: rest ->
        prefix_left := rest;
        (* A prefix recorded against this very search tree always fits;
           an index out of range means a stale replay file. *)
        if i >= k then raise Cut_execution;
        sched_rev := i :: !sched_rev;
        i
    | [] ->
        let engine = Option.get !engine_ref in
        (match dedup with
        | None -> ()
        | Some table ->
            let alive = Array.init n (Engine.has_handler engine) in
            let now = cands.(0).Engine.ch_at in
            let fp =
              fingerprint ~digests ~alive ~now ~cands
                ~rest:(Engine.pending engine)
            in
            let re = config.max_events - !events_done in
            let rd = config.max_schedule_depth - List.length !sched_rev in
            if dedup_dominates table fp ~re ~rd then raise Cut_execution
            else dedup_record table fp ~re ~rd);
        let depth = List.length !sched_rev in
        if register_alternatives && depth < config.max_schedule_depth then begin
          let branch =
            match config.mode with
            | Naive -> List.init (k - 1) (fun j -> j + 1)
            | Pruned ->
                let t0 = cands.(0).Engine.ch_target in
                if Engine.has_handler engine t0 then
                  List.filter
                    (fun j -> cands.(j).Engine.ch_target = t0)
                    (List.init (k - 1) (fun j -> j + 1))
                else []
          in
          List.iter
            (fun j -> alts_rev := List.rev (j :: !sched_rev) :: !alts_rev)
            branch
        end;
        sched_rev := 0 :: !sched_rev;
        0
  in
  let on_engine engine =
    engine_ref := Some engine;
    Engine.set_chooser engine chooser
  in
  let result =
    try Some (Runner.run ~monitor:true ~tracer ~on_engine scenario)
    with Cut_execution ->
      cut := true;
      None
  in
  match result with
  | None ->
      {
        ex_schedule = List.rev !sched_rev;
        ex_alternatives = !alts_rev;
        ex_invariants = [];
        ex_truncated = false;
        ex_cut = true;
        ex_points = !points;
      }
  | Some r ->
      {
        ex_schedule = List.rev !sched_rev;
        ex_alternatives = !alts_rev;
        ex_invariants = violated r;
        ex_truncated = r.Runner.termination <> Runner.Completed;
        ex_cut = false;
        ex_points = !points;
      }

let replay config ~plan ~schedule =
  let ex =
    run_one config plan ~prefix:schedule ~dedup:None
      ~register_alternatives:false
  in
  ex.ex_invariants

(* -- counterexample shrinking -- *)

type counterexample = {
  cx_plan : Fault_plan.t;
  cx_schedule : int list;
  cx_invariants : string list;
  cx_shrunk_plan : Fault_plan.t;
  cx_shrunk_schedule : int list;
  cx_tries : int;
  cx_minimal : bool;
}

let subset_of xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Trailing default answers are behaviourally void: beyond the recorded
   prefix the chooser answers 0 anyway. No oracle call needed. *)
let strip_trailing_zeros schedule =
  List.rev
    (let rec drop = function 0 :: tl -> drop tl | s -> s in
     drop (List.rev schedule))

let shrink_schedule ~check schedule =
  let rec zero_pass sched i =
    if i >= List.length sched then sched
    else if List.nth sched i = 0 then zero_pass sched (i + 1)
    else
      let cand = List.mapi (fun j x -> if j = i then 0 else x) sched in
      if check cand then zero_pass cand (i + 1) else zero_pass sched (i + 1)
  in
  let rec fix sched =
    let sched' = strip_trailing_zeros (zero_pass sched 0) in
    if sched' = sched then sched else fix sched'
  in
  fix (strip_trailing_zeros schedule)

let shrink_counterexample config ~plan ~schedule ~invariants =
  let tries = ref 0 in
  let reproduces p s =
    incr tries;
    subset_of invariants (replay config ~plan:p ~schedule:s)
  in
  let schedule1 = shrink_schedule ~check:(fun s -> reproduces plan s) schedule in
  let plan_outcome =
    if plan = [] then { Fault_shrink.plan = []; tries = 0; minimal = true }
    else
      Fault_shrink.shrink ~reproduces:(fun p -> reproduces p schedule1) plan
  in
  let plan2 = plan_outcome.Fault_shrink.plan in
  let schedule2 =
    shrink_schedule ~check:(fun s -> reproduces plan2 s) schedule1
  in
  {
    cx_plan = plan;
    cx_schedule = strip_trailing_zeros schedule;
    cx_invariants = invariants;
    cx_shrunk_plan = plan2;
    cx_shrunk_schedule = schedule2;
    cx_tries = !tries + plan_outcome.Fault_shrink.tries;
    cx_minimal = plan_outcome.Fault_shrink.minimal;
  }

(* -- the search -- *)

type report = {
  r_mode : mode;
  executions : int;
  choice_points : int;
  truncated : int;
  dedup_cuts : int;
  distinct_states : int;
  exhausted : bool;
  counterexamples : counterexample list;
}

let explore config =
  let executions = ref 0 in
  let choice_points = ref 0 in
  let truncated = ref 0 in
  let dedup_cuts = ref 0 in
  let distinct_states = ref 0 in
  let exhausted = ref true in
  let counterexamples = ref [] in
  let plans = plans_of_adversary config.cfg config.adversary in
  List.iter
    (fun plan ->
      let dedup =
        match config.mode with
        | Naive -> None
        | Pruned -> Some (Hashtbl.create 1024)
      in
      let stack = ref [ [] ] in
      let found = ref 0 in
      let seen_shrunk = Hashtbl.create 16 in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | prefix :: rest ->
            if !executions >= config.max_executions then begin
              exhausted := false;
              stack := []
            end
            else begin
              stack := rest;
              incr executions;
              let ex =
                run_one config plan ~prefix ~dedup ~register_alternatives:true
              in
              choice_points := !choice_points + ex.ex_points;
              if ex.ex_cut then incr dedup_cuts;
              if ex.ex_truncated then incr truncated;
              stack := ex.ex_alternatives @ !stack;
              if ex.ex_invariants <> [] then begin
                let cx =
                  shrink_counterexample config ~plan ~schedule:ex.ex_schedule
                    ~invariants:ex.ex_invariants
                in
                let key = (cx.cx_shrunk_plan, cx.cx_shrunk_schedule) in
                if not (Hashtbl.mem seen_shrunk key) then begin
                  Hashtbl.add seen_shrunk key ();
                  counterexamples := cx :: !counterexamples;
                  incr found
                end;
                if !found >= config.max_counterexamples then begin
                  if !stack <> [] then exhausted := false;
                  stack := []
                end
              end
            end
      done;
      match dedup with
      | None -> ()
      | Some table -> distinct_states := !distinct_states + Hashtbl.length table)
    plans;
  {
    r_mode = config.mode;
    executions = !executions;
    choice_points = !choice_points;
    truncated = !truncated;
    dedup_cuts = !dedup_cuts;
    distinct_states = !distinct_states;
    exhausted = !exhausted;
    counterexamples = List.rev !counterexamples;
  }

(* -- quarantine journal (soak TSV idiom, own schema) -- *)

let schema = "maaa-explore-quarantine/3"

(* The shared %-decoder, its error tagged with the line. *)
let dec ~line v =
  Result.map_error (Printf.sprintf "line %d: %s" line) (Scenario.Spec.decode v)

let vec_repr v =
  String.concat "/"
    (List.map (Printf.sprintf "%h") (Array.to_list (Vec.to_array v)))

let vec_of_repr s =
  try
    Ok
      (Vec.of_array
         (Array.of_list
            (List.map float_of_string (String.split_on_char '/' s))))
  with _ -> Error (Printf.sprintf "bad vector %S" s)

let mode_repr = function Naive -> "naive" | Pruned -> "pruned"

let mode_of_repr = function
  | "naive" -> Ok Naive
  | "pruned" -> Ok Pruned
  | s -> Error (Printf.sprintf "bad mode %S" s)

let adversary_repr = function
  | Honest -> "honest"
  | Crash { party; max_tick } -> Printf.sprintf "crash:%d:%d" party max_tick
  | Equivocator { party; values = va, vb } ->
      Printf.sprintf "equiv:%d:%s:%s" party (vec_repr va) (vec_repr vb)

let adversary_of_repr s =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ "honest" ] -> Ok Honest
  | [ "crash"; p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some party, Some max_tick -> Ok (Crash { party; max_tick })
      | _ -> Error (Printf.sprintf "bad crash adversary %S" s))
  | [ "equiv"; p; va; vb ] -> (
      match int_of_string_opt p with
      | None -> Error (Printf.sprintf "bad equivocator party %S" p)
      | Some party ->
          let* va = vec_of_repr va in
          let* vb = vec_of_repr vb in
          Ok (Equivocator { party; values = (va, vb) }))
  | _ -> Error (Printf.sprintf "bad adversary %S" s)

let schedule_repr = function
  | [] -> "~"
  | s -> String.concat "-" (List.map string_of_int s)

let schedule_of_repr = function
  | "~" -> Ok []
  | s -> (
      let parts = String.split_on_char '-' s in
      match
        List.fold_right
          (fun p acc ->
            match (acc, int_of_string_opt p) with
            | Some tl, Some i when i >= 0 -> Some (i :: tl)
            | _ -> None)
          parts (Some [])
      with
      | Some sched -> Ok sched
      | None -> Error (Printf.sprintf "bad schedule %S" s))

(* "~" is the empty plan; encoding escapes '~', so no plan collides with
   it. Encoded fields stay tab-free whatever a foreign repr contains. *)
let plan_repr = function
  | [] -> "~"
  | plan -> Scenario.Spec.encode (Fault_plan.to_repr plan)

let plan_of_repr ~line = function
  | "~" -> Ok []
  | s -> Result.bind (dec ~line s) Fault_plan.of_repr

let header_line config =
  let cfg = config.cfg in
  String.concat "\t" @@
    [
      schema;
      "mode=" ^ mode_repr config.mode;
      Printf.sprintf "n=%d" cfg.Config.n;
      Printf.sprintf "d=%d" cfg.Config.d;
      Printf.sprintf "ts=%d" cfg.Config.ts;
      Printf.sprintf "ta=%d" cfg.Config.ta;
      Printf.sprintf "eps=%h" cfg.Config.eps;
      Printf.sprintf "delta=%d" cfg.Config.delta;
    ]
  @ List.map (fun (k, v) -> k ^ "=" ^ v)
      (Scenario.Spec.protocol_fields config.protocol)
  @ [
      "adversary=" ^ Scenario.Spec.encode (adversary_repr config.adversary);
      "inputs="
      ^ Scenario.Spec.encode (String.concat "|" (List.map vec_repr config.inputs));
      Printf.sprintf "max-events=%d" config.max_events;
      Printf.sprintf "max-execs=%d" config.max_executions;
      Printf.sprintf "depth=%d" config.max_schedule_depth;
      Printf.sprintf "max-cx=%d" config.max_counterexamples;
      ".";
    ]

let stats_line r =
  String.concat "\t"
    [
      "stats";
      Printf.sprintf "execs=%d" r.executions;
      Printf.sprintf "points=%d" r.choice_points;
      Printf.sprintf "truncated=%d" r.truncated;
      Printf.sprintf "cuts=%d" r.dedup_cuts;
      Printf.sprintf "states=%d" r.distinct_states;
      Printf.sprintf "exhausted=%d" (if r.exhausted then 1 else 0);
      ".";
    ]

let case_line cx =
  String.concat "\t"
    [
      "case";
      "invariants=" ^ String.concat "," cx.cx_invariants;
      "plan=" ^ plan_repr cx.cx_plan;
      "schedule=" ^ schedule_repr cx.cx_schedule;
      "shrunk-plan=" ^ plan_repr cx.cx_shrunk_plan;
      "shrunk-schedule=" ^ schedule_repr cx.cx_shrunk_schedule;
      Printf.sprintf "tries=%d" cx.cx_tries;
      Printf.sprintf "minimal=%d" (if cx.cx_minimal then 1 else 0);
      ".";
    ]

let write_quarantine ~path config report =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_line config);
      output_char oc '\n';
      output_string oc (stats_line report);
      output_char oc '\n';
      List.iter
        (fun cx ->
          output_string oc (case_line cx);
          output_char oc '\n')
        report.counterexamples)

(* -- parsing + replay -- *)

let field ~line ~what s key =
  match String.index_opt s '=' with
  | Some i when String.sub s 0 i = key ->
      Ok (String.sub s (i + 1) (String.length s - i - 2 + 1))
  | _ -> Error (Printf.sprintf "line %d: expected %s field %S" line what key)

let int_field ~line s key =
  Result.bind (field ~line ~what:"integer" s key) (fun v ->
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "line %d: bad integer %S for %s" line v key))

let float_field ~line s key =
  Result.bind (field ~line ~what:"float" s key) (fun v ->
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "line %d: bad float %S for %s" line v key))

let parse_header line s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\t' s with
  | [
   sc; mode; n; d; ts; ta; eps; delta; protocol; mutant; layer; adversary;
   inputs; max_events; max_execs; depth; max_cx; ".";
  ]
    when sc = schema ->
      let* mode = Result.bind (field ~line ~what:"mode" mode "mode") mode_of_repr in
      let* n = int_field ~line n "n" in
      let* d = int_field ~line d "d" in
      let* ts = int_field ~line ts "ts" in
      let* ta = int_field ~line ta "ta" in
      let* eps = float_field ~line eps "eps" in
      let* delta = int_field ~line delta "delta" in
      let* protocol =
        let kv f key = Result.map (fun v -> (key, v)) (field ~line ~what:key f key) in
        let* p = kv protocol "protocol" in
        let* m = kv mutant "mutant" in
        let* l = kv layer "layer" in
        Result.map_error
          (Printf.sprintf "line %d: %s" line)
          (Scenario.Spec.protocol_of_fields [ p; m; l ])
      in
      let* adversary =
        let* v = field ~line ~what:"adversary" adversary "adversary" in
        let* v = dec ~line v in
        adversary_of_repr v
      in
      let* inputs_s = field ~line ~what:"inputs" inputs "inputs" in
      let* inputs_s = dec ~line inputs_s in
      let* inputs =
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* v = vec_of_repr v in
            Ok (v :: acc))
          (String.split_on_char '|' inputs_s)
          (Ok [])
      in
      let* max_events = int_field ~line max_events "max-events" in
      let* max_executions = int_field ~line max_execs "max-execs" in
      let* max_schedule_depth = int_field ~line depth "depth" in
      let* max_counterexamples = int_field ~line max_cx "max-cx" in
      let* cfg =
        match Config.make ~n ~ts ~ta ~d ~eps ~delta with
        | Ok cfg -> Ok cfg
        | Error e -> Error (Printf.sprintf "line %d: %s" line e)
      in
      if List.length inputs <> n then
        Error (Printf.sprintf "line %d: %d inputs for n=%d" line
                 (List.length inputs) n)
      else
        Ok
          {
            cfg;
            inputs;
            mode;
            adversary;
            protocol;
            max_events;
            max_executions;
            max_schedule_depth;
            max_counterexamples;
          }
  | sc :: _
    when sc <> schema
         && String.starts_with ~prefix:"maaa-explore-quarantine/" sc ->
      Error (Printf.sprintf "line %d: schema %s, expected %s" line sc schema)
  | _ -> Error (Printf.sprintf "line %d: malformed quarantine header" line)

let parse_case line s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\t' s with
  | [ "case"; invs; plan; sched; splan; ssched; tries; minimal; "." ] ->
      let* invs_s = field ~line ~what:"invariants" invs "invariants" in
      let invariants =
        List.filter (fun s -> s <> "") (String.split_on_char ',' invs_s)
      in
      let* plan =
        Result.bind (field ~line ~what:"plan" plan "plan") (plan_of_repr ~line)
      in
      let* schedule =
        Result.bind (field ~line ~what:"schedule" sched "schedule")
          schedule_of_repr
      in
      let* shrunk_plan =
        Result.bind
          (field ~line ~what:"shrunk plan" splan "shrunk-plan")
          (plan_of_repr ~line)
      in
      let* shrunk_schedule =
        Result.bind
          (field ~line ~what:"shrunk schedule" ssched "shrunk-schedule")
          schedule_of_repr
      in
      let* tries = int_field ~line tries "tries" in
      let* minimal = int_field ~line minimal "minimal" in
      Ok
        {
          cx_plan = plan;
          cx_schedule = schedule;
          cx_invariants = invariants;
          cx_shrunk_plan = shrunk_plan;
          cx_shrunk_schedule = shrunk_schedule;
          cx_tries = tries;
          cx_minimal = minimal <> 0;
        }
  | _ -> Error (Printf.sprintf "line %d: malformed case line" line)

type replay_outcome = {
  rp_total : int;
  rp_reproduced : int;
  rp_failures : string list;
}

let replay_quarantine ~path =
  let ( let* ) = Result.bind in
  let* lines =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          Ok (go []))
    with Sys_error e -> Error e
  in
  match lines with
  | [] -> Error "empty quarantine file"
  | header :: rest ->
      let* config = parse_header 1 header in
      let* cases =
        List.fold_left
          (fun acc (i, l) ->
            let* acc = acc in
            if l = "" || String.length l >= 5 && String.sub l 0 5 = "stats"
            then Ok acc
            else
              let* cx = parse_case (i + 2) l in
              Ok (cx :: acc))
          (Ok [])
          (List.mapi (fun i l -> (i, l)) rest)
      in
      let cases = List.rev cases in
      let failures = ref [] in
      let reproduced = ref 0 in
      List.iteri
        (fun i cx ->
          let got =
            replay config ~plan:cx.cx_shrunk_plan ~schedule:cx.cx_shrunk_schedule
          in
          if subset_of cx.cx_invariants got then incr reproduced
          else
            failures :=
              Printf.sprintf
                "case %d: expected violations {%s}, replay produced {%s}"
                (i + 1)
                (String.concat ", " cx.cx_invariants)
                (String.concat ", " got)
              :: !failures)
        cases;
      Ok
        {
          rp_total = List.length cases;
          rp_reproduced = !reproduced;
          rp_failures = List.rev !failures;
        }
