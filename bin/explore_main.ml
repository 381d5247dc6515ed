(* Bounded model-checking driver over lib/explore.
   Usage: explore.exe [--mode naive|pruned] [--mutant M] [--adversary SPEC]
                      [--n N] [--d D] [--ts N] [--ta N] [--eps E] [--delta N]
                      [--depth K] [--max-events N] [--max-execs N] [--max-cx N]
                      [--protocol maaa|ew] [--out FILE]
          explore.exe --replay FILE
          explore.exe --check
   Enumerates delivery interleavings (and, with --adversary, crash points /
   equivocation splits) of a small configuration, grades every execution
   with the online invariant monitor, shrinks violations to minimal
   (plan, schedule) repros and quarantines them to --out as a case file
   (schema maaa-case/1). --replay re-runs the shrunk repro of every case
   row of a case file — an explore quarantine or a soak journal — and
   verifies each verdict comes back: the same invariants violated, or
   the run still not completing. --check runs the pinned CI gates: the
   honest n=3 D=1 space explores exhaustively clean, both protocol mutants
   are rediscovered with replay-verified shrunk repros, and DPOR pruning
   plus state dedup beat naive enumeration by the pinned factor.
   --mutant applies to ΠAA only: --protocol ew with a mutant other than
   none is rejected, whatever the flag order. --check and --replay run
   configurations of their own, so they reject each other and every
   exploration flag.
   Exit codes: 0 clean, 1 violations found / gate failed / replay failed,
   2 argument errors and unparsable or older-schema --replay files (one
   line on stderr). *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("explore: " ^ msg);
      exit 2)
    fmt

let pos_int ~flag v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> n
  | Some n -> die "%s must be >= 1 (got %d)" flag n
  | None -> die "%s expects a positive integer (got %S)" flag v

let nonneg_int ~flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | Some n -> die "%s must be >= 0 (got %d)" flag n
  | None -> die "%s expects a non-negative integer (got %S)" flag v

(* Evenly spread 1-D inputs work for any (n, d): party i gets
   (i/(n-1)) * e_1 — distinct, spread 1, hull = [0,1] on the first axis. *)
let default_inputs ~n ~d =
  List.init n (fun i ->
      Vec.of_array
        (Array.init d (fun j ->
             if j = 0 && n > 1 then float_of_int i /. float_of_int (n - 1)
             else 0.)))

let invariants (cx : Case.t) =
  match cx.Case.verdict with Case.Violates l -> l | Case.Incomplete -> []

let summarize label (r : Explore.report) =
  Printf.printf
    "%s: %d executions, %d choice points, %d truncated, %d dedup cuts, %d \
     distinct states, exhausted=%b, %d counterexample(s)\n"
    label r.Explore.executions r.Explore.choice_points r.Explore.truncated
    r.Explore.dedup_cuts r.Explore.distinct_states r.Explore.exhausted
    (List.length r.Explore.counterexamples);
  List.iteri
    (fun i cx ->
      Printf.printf "  cx %d: {%s} plan=%s schedule=[%s] tries=%d minimal=%b\n"
        (i + 1)
        (String.concat ", " (invariants cx))
        (match cx.Case.shrunk_plan with
        | [] -> "-"
        | p -> Fault_plan.to_repr p)
        (String.concat "; " (List.map string_of_int cx.Case.shrunk_schedule))
        cx.Case.tries cx.Case.minimal)
    r.Explore.counterexamples

(* -- the pinned CI gates -- *)

let check_config ?mutant ~mode () =
  let cfg = Config.make_exn ~n:3 ~ts:0 ~ta:0 ~d:1 ~eps:0.25 ~delta:2 in
  let protocol = Scenario.Maaa { Party.default_opts with mutant } in
  Explore.default_config ~mode ~protocol ~max_schedule_depth:4
    ~max_executions:20_000 ~cfg
    ~inputs:(default_inputs ~n:3 ~d:1)
    ()

let run_check () =
  let failures = ref [] in
  let gate name ok detail =
    Printf.printf "%-44s %s%s\n" name
      (if ok then "ok" else "FAIL")
      (if detail = "" then "" else " (" ^ detail ^ ")");
    if not ok then failures := name :: !failures
  in
  (* Gate 1: the honest space is exhaustively clean. *)
  let honest = Explore.explore (check_config ~mode:Explore.Pruned ()) in
  gate "honest n=3 D=1 exhaustive" honest.Explore.exhausted
    (Printf.sprintf "%d executions" honest.Explore.executions);
  gate "honest n=3 D=1 clean"
    (honest.Explore.counterexamples = [])
    (Printf.sprintf "%d counterexamples"
       (List.length honest.Explore.counterexamples));
  gate "honest n=3 D=1 no truncation"
    (honest.Explore.truncated = 0)
    (Printf.sprintf "%d truncated" honest.Explore.truncated);
  (* Gate 2: both protocol mutants are rediscovered, with shrunk repros
     that replay. *)
  List.iter
    (fun (m, expect_inv) ->
      let name = Scenario.Spec.(to_string mutant (Some m)) in
      let config = check_config ~mutant:m ~mode:Explore.Pruned () in
      let r = Explore.explore config in
      let flagged =
        List.exists
          (fun cx -> List.mem expect_inv (invariants cx))
          r.Explore.counterexamples
      in
      gate
        (Printf.sprintf "mutant %s flagged (%s)" name expect_inv)
        flagged
        (Printf.sprintf "%d counterexamples"
           (List.length r.Explore.counterexamples));
      let replays =
        r.Explore.counterexamples <> []
        && List.for_all
             (fun cx -> Explore.replay cx = Ok true)
             r.Explore.counterexamples
      in
      gate (Printf.sprintf "mutant %s shrunk repros replay" name) replays "")
    [
      (Party.Non_contracting_update, "validity");
      (Party.Premature_output, "agreement");
    ]
  ;
  (* Gate 3: pruning pays. Same honest space, naive enumeration vs DPOR +
     state dedup, pinned reduction factor. *)
  let naive = Explore.explore (check_config ~mode:Explore.Naive ()) in
  let factor =
    if honest.Explore.executions = 0 then 0.
    else
      float_of_int naive.Explore.executions
      /. float_of_int honest.Explore.executions
  in
  gate "naive exploration exhaustive" naive.Explore.exhausted
    (Printf.sprintf "%d executions" naive.Explore.executions);
  gate "pruned >= 5x fewer executions than naive" (factor >= 5.)
    (Printf.sprintf "%d naive / %d pruned = %.1fx" naive.Explore.executions
       honest.Explore.executions factor);
  (* Gate 4: the dedup table stays small on the pinned config — the
     canonical-state fingerprint is doing its compression job. *)
  gate "pruned distinct states under ceiling"
    (honest.Explore.distinct_states <= 20_000)
    (Printf.sprintf "%d states" honest.Explore.distinct_states);
  match !failures with
  | [] ->
      print_endline "explore-check: all gates passed";
      0
  | fs ->
      Printf.printf "explore-check: %d gate(s) failed\n" (List.length fs);
      1

let () =
  let mode = ref Explore.Pruned in
  let adversary = ref Explore.Honest in
  let n = ref 3 in
  let d = ref 1 in
  let ts = ref 0 in
  let ta = ref 0 in
  let eps = ref 0.25 in
  let delta = ref 2 in
  let depth = ref 4 in
  let max_events = ref 50_000 in
  let max_execs = ref 20_000 in
  let max_cx = ref 3 in
  (* protocol-key spellings, newest first; resolved after all flags *)
  let protocol_keys = ref [] in
  let out = ref None in
  let replay_file = ref None in
  let check = ref false in
  (* the first exploration flag given, which --check and --replay reject *)
  let explore_flag = ref None in
  let rec parse args =
    (match args with
    | flag :: _
      when !explore_flag = None
           && List.mem flag
                [ "--mode"; "--mutant"; "--protocol"; "--adversary"; "--n";
                  "--d"; "--ts"; "--ta"; "--eps"; "--delta"; "--depth";
                  "--max-events"; "--max-execs"; "--max-cx"; "--out" ] ->
        explore_flag := Some flag
    | _ -> ());
    match args with
    | [] -> ()
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--replay" :: v :: rest ->
        replay_file := Some v;
        parse rest
    | "--mode" :: v :: rest -> (
        match Explore.mode_of_repr v with
        | Ok m ->
            mode := m;
            parse rest
        | Error msg -> die "--mode: %s" msg)
    | (("--protocol" | "--mutant") as flag) :: v :: rest ->
        protocol_keys :=
          (String.sub flag 2 (String.length flag - 2), v) :: !protocol_keys;
        parse rest
    | "--adversary" :: v :: rest -> (
        match Explore.adversary_of_repr v with
        | Ok a ->
            adversary := a;
            parse rest
        | Error msg -> die "--adversary: %s" msg)
    | "--n" :: v :: rest ->
        n := pos_int ~flag:"--n" v;
        parse rest
    | "--d" :: v :: rest ->
        d := pos_int ~flag:"--d" v;
        parse rest
    | "--ts" :: v :: rest ->
        ts := nonneg_int ~flag:"--ts" v;
        parse rest
    | "--ta" :: v :: rest ->
        ta := nonneg_int ~flag:"--ta" v;
        parse rest
    | "--eps" :: v :: rest -> (
        match float_of_string_opt v with
        | Some e when e > 0. ->
            eps := e;
            parse rest
        | _ -> die "--eps expects a positive float (got %S)" v)
    | "--delta" :: v :: rest ->
        delta := pos_int ~flag:"--delta" v;
        parse rest
    | "--depth" :: v :: rest ->
        depth := nonneg_int ~flag:"--depth" v;
        parse rest
    | "--max-events" :: v :: rest ->
        max_events := pos_int ~flag:"--max-events" v;
        parse rest
    | "--max-execs" :: v :: rest ->
        max_execs := pos_int ~flag:"--max-execs" v;
        parse rest
    | "--max-cx" :: v :: rest ->
        max_cx := pos_int ~flag:"--max-cx" v;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | [ ("--replay" | "--mode" | "--mutant" | "--adversary" | "--n" | "--d"
        | "--ts" | "--ta" | "--eps" | "--delta" | "--depth" | "--max-events"
        | "--max-execs" | "--max-cx" | "--protocol" | "--out") as flag ] ->
        die "%s expects a value" flag
    | flag :: _ -> die "unknown argument %S" flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match (!check, !replay_file, !explore_flag) with
  | true, Some _, _ -> die "--check and --replay are mutually exclusive"
  | true, None, Some flag -> die "%s does not apply to --check" flag
  | false, Some _, Some flag -> die "%s does not apply to --replay" flag
  | _ -> ());
  let protocol =
    match Scenario.Spec.protocol_of_fields !protocol_keys with
    | Ok p -> p
    | Error msg -> die "%s" msg
  in
  if !check then exit (run_check ());
  match !replay_file with
  | Some path -> (
      match Explore.replay_file ~path with
      | Error msg -> die "--replay %s: %s" path msg
      | Ok { Explore.rp_total; rp_reproduced; rp_failures } ->
          Printf.printf "replayed %d/%d shrunk counterexample(s)\n"
            rp_reproduced rp_total;
          List.iter print_endline rp_failures;
          exit (if rp_reproduced = rp_total then 0 else 1))
  | None ->
      let cfg =
        match
          Config.make ~n:!n ~ts:!ts ~ta:!ta ~d:!d ~eps:!eps ~delta:!delta
        with
        | Ok cfg -> cfg
        | Error e -> die "infeasible configuration: %s" e
      in
      let config =
        try
          Explore.default_config ~mode:!mode ~adversary:!adversary
            ~protocol ~max_events:!max_events
            ~max_executions:!max_execs ~max_schedule_depth:!depth
            ~max_counterexamples:!max_cx ~cfg
            ~inputs:(default_inputs ~n:!n ~d:!d)
            ()
        with Invalid_argument msg -> die "%s" msg
      in
      let report = Explore.explore config in
      summarize (Explore.mode_repr !mode) report;
      (match !out with
      | None -> ()
      | Some path -> Explore.write_quarantine ~path config report);
      exit (if report.Explore.counterexamples = [] then 0 else 1)
