(* Randomized chaos soak driver.
   Usage: soak.exe [--cases N] [--seed S] [--domains N] [--mutant M]
                   [--message-layer interned|batched]
                   [--protocol maaa|ew] [--transport sim|net]
                   [--out FILE] [--journal FILE] [--resume]
                   [--case-events N] [--wall SECONDS|none] [--retries N]
                   [--inject-stuck I] [--smoke]
   Runs N seeded (scenario × fault-plan) cases under the online invariant
   monitor with a per-case watchdog, shrinks any abnormal case to a minimal
   reproducing plan, quarantines cases the watchdog stopped, and writes a
   SOAK.json report (schema maaa-soak/2; see `make help-soak`). With
   --journal the sweep checkpoints every finished case to a case file
   (schema maaa-case/1) whose violating and quarantined rows replay with
   `explore_main --replay`; --resume replays the journal and finishes the
   remainder, producing a byte-identical report, and refuses a journal
   of an older schema. Exit code 1 when any invariant was violated — which is the
   EXPECTED outcome with --mutant, where a deliberately broken protocol
   variant must be caught. The report is byte-identical for any --domains.
   --mutant and --message-layer configure ΠAA only: --protocol ew with
   either of them at a non-default value is rejected, whatever the flag
   order. --smoke is --cases 60; giving both is rejected in either order.
   All argument errors are one line on stderr and exit code 2. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("soak: " ^ msg);
      exit 2)
    fmt

(* Every malformed value gets its own one-line diagnostic (not just the
   usage block): these are the errors scripts hit, and "which flag, which
   value, what was expected" is what makes them greppable in CI logs. *)
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

let () =
  let cases = ref None in
  let smoke = ref false in
  let seed = ref Soak.default.Soak.seed in
  let domains =
    ref
      (match Sys.getenv_opt "MAAA_DOMAINS" with
      | Some s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> n
          | _ -> die "MAAA_DOMAINS must be a positive integer (got %S)" s)
      | None -> Domain.recommended_domain_count ())
  in
  let out_file = ref (Some "SOAK.json") in
  let journal = ref None in
  let resume = ref false in
  let case_events = ref Soak.default.Soak.case_events in
  let case_wall = ref Soak.default.Soak.case_wall in
  let retries = ref Soak.default.Soak.retries in
  let stuck = ref None in
  (* protocol-key spellings, newest first; resolved after all flags *)
  let protocol_keys = ref [] in
  let transport = ref Soak.default.Soak.transport in
  let rec parse = function
    | [] -> ()
    | "--cases" :: v :: rest ->
        cases := Some (pos_int ~flag:"--cases" v);
        parse rest
    | "--seed" :: v :: rest -> (
        match Int64.of_string_opt v with
        | Some s ->
            seed := s;
            parse rest
        | None -> die "--seed expects a 64-bit integer (got %S)" v)
    | "--domains" :: v :: rest ->
        domains := pos_int ~flag:"--domains" v;
        parse rest
    | (("--protocol" | "--mutant" | "--message-layer") as flag) :: v :: rest ->
        let key =
          match flag with
          | "--message-layer" -> "layer"
          | f -> String.sub f 2 (String.length f - 2)
        in
        protocol_keys := (key, v) :: !protocol_keys;
        parse rest
    | "--out" :: v :: rest ->
        out_file := (if v = "-" then None else Some v);
        parse rest
    | "--journal" :: v :: rest ->
        journal := Some v;
        parse rest
    | "--resume" :: rest ->
        resume := true;
        parse rest
    | "--case-events" :: v :: rest ->
        case_events := pos_int ~flag:"--case-events" v;
        parse rest
    | "--wall" :: "none" :: rest ->
        case_wall := None;
        parse rest
    | "--wall" :: v :: rest -> (
        match float_of_string_opt v with
        | Some w when w > 0. ->
            case_wall := Some w;
            parse rest
        | _ -> die "--wall expects a positive number of seconds or 'none' (got %S)" v)
    | "--retries" :: v :: rest ->
        retries := nonneg_int ~flag:"--retries" v;
        parse rest
    | "--inject-stuck" :: v :: rest ->
        stuck := Some (nonneg_int ~flag:"--inject-stuck" v);
        parse rest
    | "--transport" :: v :: rest -> (
        match Scenario.Spec.(of_string transport v) with
        | Ok t ->
            transport := t;
            parse rest
        | Error msg -> die "%s" msg)
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | [ flag ]
      when List.mem flag
             [ "--cases"; "--seed"; "--domains"; "--mutant"; "--out";
               "--journal"; "--case-events"; "--wall"; "--retries";
               "--inject-stuck"; "--message-layer"; "--protocol";
               "--transport" ] ->
        die "%s expects a value" flag
    | flag :: _ ->
        die
          "unknown argument %S (usage: soak.exe [--cases N] [--seed S] \
           [--domains N] [--mutant M] [--message-layer \
           interned|batched] [--protocol maaa|ew] \
           [--transport sim|net] [--out FILE] [--journal FILE] [--resume] \
           [--case-events N] [--wall SECONDS|none] [--retries N] \
           [--inject-stuck I] [--smoke])"
          flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cases =
    match (!smoke, !cases) with
    | true, Some _ -> die "--smoke and --cases are mutually exclusive"
    | true, None -> 60
    | false, c -> Option.value c ~default:Soak.default.Soak.cases
  in
  let protocol =
    match Scenario.Spec.protocol_of_fields !protocol_keys with
    | Ok p -> p
    | Error msg -> die "%s" msg
  in
  if !resume && !journal = None then die "--resume requires --journal FILE";
  (match (!resume, !journal) with
  | true, Some path when not (Sys.file_exists path) ->
      die "--resume: journal %s does not exist" path
  | _ -> ());
  (match !stuck with
  | Some i when i >= cases ->
      die "--inject-stuck %d is out of range (only %d cases)" i cases
  | _ -> ());
  let config =
    {
      Soak.cases = cases;
      seed = !seed;
      domains = !domains;
      case_events = !case_events;
      case_wall = !case_wall;
      retries = !retries;
      stuck = !stuck;
      protocol;
      transport = !transport;
    }
  in
  let outcome =
    try Soak.execute ?journal:!journal ~resume:!resume config
    with Invalid_argument msg -> die "%s" msg
  in
  Soak.pp Format.std_formatter outcome;
  Format.pp_print_flush Format.std_formatter ();
  let json = Soak.to_json config outcome in
  (match !out_file with
  | None -> print_string json
  | Some f ->
      let oc = open_out f in
      output_string oc json;
      close_out oc;
      Printf.printf "report: %s\n" f);
  exit (if outcome.Soak.violations_total > 0 then 1 else 0)
