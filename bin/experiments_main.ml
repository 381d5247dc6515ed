(* Regenerates every experiment report of EXPERIMENTS.md.
   Usage: experiments.exe [--domains N] [e1 ... e16]
   No experiment id runs everything. Independent scenario batches run on
   N worker domains (also settable via MAAA_DOMAINS; default
   Domain.recommended_domain_count). The report text is byte-identical
   for every N — see DESIGN.md §7 "Parallel harness & determinism". *)

let usage () =
  prerr_endline "usage: experiments.exe [--domains N] [e1 ... e16]";
  exit 2

let () =
  let default_domains =
    match Sys.getenv_opt "MAAA_DOMAINS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ ->
            prerr_endline "experiments: MAAA_DOMAINS must be a positive integer";
            exit 2)
    | None -> Domain.recommended_domain_count ()
  in
  let rec parse domains ids = function
    | [] -> (domains, List.rev ids)
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> parse n ids rest
        | _ ->
            prerr_endline "experiments: --domains expects a positive integer";
            usage ())
    | [ "--domains" ] -> usage ()
    | a :: rest -> parse domains (a :: ids) rest
  in
  let domains, ids = parse default_domains [] (List.tl (Array.to_list Sys.argv)) in
  Experiments.set_domains domains;
  let ok =
    match ids with
    | [] -> Experiments.run_all ()
    | ids ->
        List.for_all
          (fun id ->
            match Experiments.find_opt (String.lowercase_ascii id) with
            | Some run -> run ()
            | None ->
                prerr_endline
                  ("unknown experiment '" ^ id ^ "'; known: e1 .. e16");
                false)
          ids
  in
  exit (if ok then 0 else 1)
