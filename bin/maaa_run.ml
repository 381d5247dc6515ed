(* Command-line driver: run a single ΠAA scenario and print the outcome.

   Example:
     maaa_run.exe --n 8 --ts 2 --ta 1 --dim 2 --eps 0.05 \
                  --network async --corrupt poison:1 --corrupt silent:5 *)

open Cmdliner

let run n ts ta dim eps delta network seed corrupt workload side verbose =
  match Config.make ~n ~ts ~ta ~d:dim ~eps ~delta with
  | Error e ->
      prerr_endline ("invalid configuration: " ^ e);
      1
  | Ok cfg -> (
      let rng = Rng.create (Int64.of_int (Int64.to_int seed + 17)) in
      let inputs =
        match workload with
        | "cube" -> Inputs.uniform_cube rng ~d:dim ~n ~side
        | "clusters" -> Inputs.two_clusters rng ~d:dim ~n ~separation:side
        | "corners" -> Inputs.simplex_corners ~d:dim ~scale:side ~n
        | "gradients" ->
            Inputs.gradients rng ~d:dim ~n ~truth:(Vec.make dim 1.)
              ~noise:(side /. 10.)
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2
      in
      let policy, sync_network =
        match network with
        | "lockstep" -> (Network.lockstep ~delta, true)
        | "sync" -> (Network.sync_uniform ~delta, true)
        | "rushing" ->
            ( Network.rushing ~delta
                ~corrupt:(fun i -> List.exists (fun (_, j) -> j = i) corrupt),
              true )
        | "async" -> (Network.async_heavy_tail ~base:delta, false)
        | "starve" ->
            ( Network.async_starve ~victims:(fun i -> i = 0) ~release:(60 * delta)
                ~fast:4,
              false )
        | p ->
            prerr_endline ("unknown network policy " ^ p);
            exit 2
      in
      let corruptions =
        List.map
          (fun (kind, i) ->
            let b =
              match kind with
              | "silent" -> Behavior.Silent
              | "poison" ->
                  Behavior.Honest_with_input (Vec.make dim (1000. *. side))
              | "crash" -> Behavior.Crash_at (6 * delta)
              | "equivocate" ->
                  Behavior.Equivocate
                    (Vec.make dim (10. *. side), Vec.make dim (-10. *. side))
              | "haltliar" -> Behavior.Halt_liar 1
              | "spam" ->
                  Behavior.Spam
                    { period = 3; payload_bytes = 64; until = 100 * delta }
              | k ->
                  prerr_endline ("unknown corruption " ^ k);
                  exit 2
            in
            (i, b))
          corrupt
      in
      match
        Scenario.make ~name:"cli" ~seed ~policy ~sync_network ~corruptions ~cfg
          ~inputs ()
      with
      | exception Invalid_argument e ->
          prerr_endline e;
          1
      | scenario ->
          let r = Runner.run scenario in
          Format.printf "%a@." Runner.pp_summary r;
          if verbose then begin
            Format.printf "@.outputs:@.";
            List.iter
              (fun (i, v) -> Format.printf "  P%d -> %a@." i Vec.pp v)
              r.Runner.outputs;
            Format.printf "@.iteration diameters:@.";
            List.iter
              (fun (it, d) -> Format.printf "  it %2d: %.6e@." it d)
              (Runner.iteration_diameters r);
            Format.printf "@.bytes sent: %d@." r.Runner.stats.Engine.bytes_sent
          end;
          if Runner.passed r then 0 else 1)

let corrupt_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ kind; i ] -> (
        match int_of_string_opt i with
        | Some i -> Ok (kind, i)
        | None -> Error (`Msg "expected kind:party-index"))
    | _ -> Error (`Msg "expected kind:party-index, e.g. poison:3")
  in
  let print ppf (k, i) = Format.fprintf ppf "%s:%d" k i in
  Arg.conv (parse, print)

let cmd =
  let n = Arg.(value & opt int 8 & info [ "n"; "parties" ] ~doc:"Number of parties.") in
  let ts =
    Arg.(value & opt int 2 & info [ "ts" ] ~doc:"Synchronous corruption bound.")
  in
  let ta =
    Arg.(value & opt int 1 & info [ "ta" ] ~doc:"Asynchronous corruption bound.")
  in
  let dim = Arg.(value & opt int 2 & info [ "dim"; "d" ] ~doc:"Dimension D.") in
  let eps =
    Arg.(value & opt float 0.05 & info [ "eps" ] ~doc:"Agreement parameter.")
  in
  let delta =
    Arg.(value & opt int 10 & info [ "delta" ] ~doc:"Synchrony bound in ticks.")
  in
  let network =
    Arg.(
      value & opt string "sync"
      & info [ "network" ]
          ~doc:"Network policy: lockstep, sync, rushing, async, starve.")
  in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"RNG seed.") in
  let corrupt =
    Arg.(
      value & opt_all corrupt_conv []
      & info [ "corrupt" ]
          ~doc:
            "Corruption kind:party, repeatable. Kinds: silent, poison, crash, \
             equivocate, haltliar, spam.")
  in
  let workload =
    Arg.(
      value & opt string "cube"
      & info [ "workload" ] ~doc:"Inputs: cube, clusters, corners, gradients.")
  in
  let side =
    Arg.(value & opt float 10. & info [ "side" ] ~doc:"Workload scale.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"More output.") in
  Cmd.v
    (Cmd.info "maaa_run" ~doc:"Run one hybrid D-AA scenario in the simulator")
    Term.(
      const run $ n $ ts $ ta $ dim $ eps $ delta $ network $ seed $ corrupt
      $ workload $ side $ verbose)

let () = exit (Cmd.eval' cmd)
