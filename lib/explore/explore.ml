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

(* -- scenarios and their spec lines -- *)

let scenario_of ~cfg ~inputs ~protocol ~max_events =
  Scenario.make ~name:"explore" ~protocol
    ~budget:{ Scenario.max_events = Some max_events; wall_seconds = None }
    ~cfg ~inputs ()

let scenario config =
  scenario_of ~cfg:config.cfg ~inputs:config.inputs ~protocol:config.protocol
    ~max_events:config.max_events

let spec config =
  let cfg = config.cfg and i = string_of_int in
  Case.spec "explore"
    ([
       ("n", i cfg.Config.n);
       ("d", i cfg.Config.d);
       ("ts", i cfg.Config.ts);
       ("ta", i cfg.Config.ta);
       ("eps", Printf.sprintf "%h" cfg.Config.eps);
       ("delta", i cfg.Config.delta);
     ]
    @ Scenario.Spec.protocol_fields config.protocol
    @ [
        ("inputs", String.concat "|" (List.map Fault_plan.vec_to_repr config.inputs));
        ("max-events", i config.max_events);
      ])

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

(* One execution of the search under a schedule prefix: past the prefix
   each choice point is deduped against the visited states and registers
   the sibling prefixes still worth trying, then answers the default. *)
let run_one config scen plan ~prefix ~(dedup : dedup option) =
  let n = config.cfg.Config.n in
  let digests = Array.make n "" in
  let events_done = ref 0 in
  let alts = ref [] in
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
  let beyond engine (cands : Message.t Engine.choice array) answers =
    let depth = List.length answers in
    (match dedup with
    | None -> ()
    | Some table ->
        let alive = Array.init n (Engine.has_handler engine) in
        let now = cands.(0).Engine.ch_at in
        let fp =
          fingerprint ~digests ~alive ~now ~cands ~rest:(Engine.pending engine)
        in
        let re = config.max_events - !events_done in
        let rd = config.max_schedule_depth - depth in
        if dedup_dominates table fp ~re ~rd then raise Case.Cut
        else dedup_record table fp ~re ~rd);
    if depth < config.max_schedule_depth then begin
      let others = List.init (Array.length cands - 1) (fun j -> j + 1) in
      let branch =
        match config.mode with
        | Naive -> others
        | Pruned ->
            let t0 = cands.(0).Engine.ch_target in
            if Engine.has_handler engine t0 then
              List.filter (fun j -> cands.(j).Engine.ch_target = t0) others
            else []
      in
      List.iter (fun j -> alts := List.rev (j :: answers) :: !alts) branch
    end;
    0
  in
  let run = Case.run ~tracer ~beyond scen ~plan ~schedule:prefix in
  (run, !alts)

(* -- the search -- *)

type report = {
  r_mode : mode;
  executions : int;
  choice_points : int;
  truncated : int;
  dedup_cuts : int;
  distinct_states : int;
  exhausted : bool;
  counterexamples : Case.t list;
}

let explore config =
  let executions = ref 0 in
  let choice_points = ref 0 in
  let truncated = ref 0 in
  let dedup_cuts = ref 0 in
  let distinct_states = ref 0 in
  let exhausted = ref true in
  let counterexamples = ref [] in
  let scen = scenario config in
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
              let run, alts = run_one config scen plan ~prefix ~dedup in
              choice_points := !choice_points + run.Case.points;
              let invariants =
                match run.Case.result with
                | None ->
                    incr dedup_cuts;
                    []
                | Some r ->
                    if r.Runner.termination <> Runner.Completed then incr truncated;
                    Case.violated r
              in
              stack := alts @ !stack;
              if invariants <> [] then begin
                let cx =
                  Case.shrink ~spec:(spec config) scen (Case.Violates invariants)
                    ~plan ~schedule:run.Case.answers
                in
                let key = (cx.Case.shrunk_plan, cx.Case.shrunk_schedule) in
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

(* -- case files -- *)

let mode_repr = function Naive -> "naive" | Pruned -> "pruned"

let mode_of_repr = function
  | "naive" -> Ok Naive
  | "pruned" -> Ok Pruned
  | s -> Error (Printf.sprintf "bad mode %S" s)

let ( let* ) = Result.bind

let adversary_of_repr s =
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
          let* va = Fault_plan.vec_of_repr va in
          let* vb = Fault_plan.vec_of_repr vb in
          Ok (Equivocator { party; values = (va, vb) }))
  | _ -> Error (Printf.sprintf "bad adversary %S" s)

let write_quarantine ~path config r =
  let header =
    Case.line Case.schema
      [
        ("source", "explore");
        ("mode", mode_repr config.mode);
        ("depth", string_of_int config.max_schedule_depth);
        ("execs", string_of_int r.executions);
        ("exhausted", string_of_bool r.exhausted);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (header
        :: List.map (fun c -> Case.line "case" (Case.to_fields c))
             r.counterexamples))

(* -- replay: dispatch on the spec's kind -- *)

let scenario_of_spec spec =
  let* kind, keys = Case.spec_fields spec in
  let f key parse = Case.field keys key parse in
  let int key = f key int_of_string_opt in
  try
    match kind with
    | "soak" -> Soak.scenario_of_spec keys
    | "explore" ->
        let* n = int "n" in
        let* d = int "d" in
        let* ts = int "ts" in
        let* ta = int "ta" in
        let* eps = f "eps" float_of_string_opt in
        let* delta = int "delta" in
        let* protocol = Scenario.Spec.protocol_of_fields keys in
        let* inputs =
          f "inputs" (fun s ->
              List.fold_right
                (fun v acc ->
                  match (acc, Fault_plan.vec_of_repr v) with
                  | Some tl, Ok v -> Some (v :: tl)
                  | _ -> None)
                (String.split_on_char '|' s) (Some []))
        in
        let* max_events = int "max-events" in
        let* cfg = Config.make ~n ~ts ~ta ~d ~eps ~delta in
        if List.length inputs <> n then
          Error (Printf.sprintf "%d inputs for n=%d" (List.length inputs) n)
        else Ok (scenario_of ~cfg ~inputs ~protocol ~max_events)
    | k -> Error (Printf.sprintf "unknown spec kind %S" k)
  with Invalid_argument e -> Error e

(* A case's replay, ready to run: its scenario rebuilt and its shrunk
   plan checked against it. *)
let rebuild (c : Case.t) =
  let* scen = scenario_of_spec c.Case.spec in
  let* () =
    Fault_plan.validate ~cfg:scen.Scenario.cfg ~sync:scen.Scenario.sync_network
      ~existing:(List.map fst scen.Scenario.corruptions)
      c.Case.shrunk_plan
  in
  Ok
    (fun () ->
      Case.reproduces scen c.Case.verdict ~plan:c.Case.shrunk_plan
        ~schedule:c.Case.shrunk_schedule)

let replay c = Result.map (fun run -> run ()) (rebuild c)

type replay_outcome = {
  rp_total : int;
  rp_reproduced : int;
  rp_failures : string list;
}

let replay_file ~path =
  let* lines =
    try Ok (In_channel.with_open_text path In_channel.input_lines)
    with Sys_error e -> Error e
  in
  let at k = Result.map_error (Printf.sprintf "line %d: %s" k) in
  match lines with
  | [] -> Error "empty case file"
  | header :: rest ->
      let* tag, _ = at 1 (Case.parse_line header) in
      let* () =
        if tag = Case.schema then Ok ()
        else at 1 (Error (Printf.sprintf "schema %s, expected %s" tag Case.schema))
      in
      (* every case row is parsed and rebuilt before any runs; soak's "ok"
         rows carry no repro *)
      let* cases =
        List.fold_left
          (fun acc (k, l) ->
            let* acc = acc in
            match at k (Case.parse_line l) with
            | _ when l = "" -> Ok acc
            | Ok ("case", fields) ->
                let* c = at k (Case.of_fields fields) in
                let* run = at k (rebuild c) in
                Ok ((k, c, run) :: acc)
            | Ok _ -> Ok acc
            | Error e -> Error e)
          (Ok [])
          (List.mapi (fun i l -> (i + 2, l)) rest)
      in
      let failures =
        List.filter_map
          (fun (k, c, run) ->
            if run () then None
            else
              Some
                (Printf.sprintf "line %d: the shrunk repro no longer %s" k
                   (match c.Case.verdict with
                   | Case.Violates invs ->
                       "violates {" ^ String.concat ", " invs ^ "}"
                   | Case.Incomplete -> "fails to complete")))
          (List.rev cases)
      in
      let total = List.length cases in
      Ok
        {
          rp_total = total;
          rp_reproduced = total - List.length failures;
          rp_failures = failures;
        }
