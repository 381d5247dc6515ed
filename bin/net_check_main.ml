(* Sim-as-oracle differential gate for the networked runtime.
   Usage: net_check.exe [--verbose]
   Runs the pinned differential grid (lib/harness/differential.mli):
   every case on the sim backend, the loopback TCP backend, and the TCP
   backend under frame chaos — the three results must be identical after
   masking wire statistics, and the chaos run's monitor must be clean.
   The default output is deterministic; --verbose adds the per-case frame
   counts and the chaos totals, which depend on kernel scheduling.
   Exit 0 when every case agrees, 1 on any mismatch, 2 on bad args. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("net_check: " ^ msg);
      exit 2)
    fmt

let () =
  let verbose = ref false in
  let rec parse = function
    | [] -> ()
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | flag :: _ ->
        die "unknown argument %S (usage: net_check.exe [--verbose])" flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  let log = if !verbose then fun s -> Printf.printf "%s\n%!" s else ignore in
  let report = Differential.execute ~log () in
  Format.printf "%a@." Differential.pp report;
  if !verbose then Format.printf "%a@." Differential.pp_chaos_totals report;
  exit (if Differential.passed report then 0 else 1)
