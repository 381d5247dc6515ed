(* Sim-as-oracle differentials: see differential.mli for the contract.
   The comparison is structural equality on the full Runner.result with
   only [transport] and [wire] masked — the net backend owes the sim an
   exact reproduction, so nothing else is forgiven. *)

type verdict = {
  name : string;
  net_ok : bool;
  chaos_ok : bool;
  monitor_clean : bool;
  detail : string option;
  wire : Netrun.wire_stats;
  chaos_wire : Netrun.wire_stats;
}

type report = { verdicts : verdict list; cases : int; failures : int }

(* -- the pinned grid ---------------------------------------------------- *)

let delta = 4
let eps = 0.1
let grid_configs = [ (1, 4, 1, 0); (1, 8, 2, 1); (2, 4, 1, 0); (2, 8, 2, 1) ]

let poison_vec d = Vec.make d 50.

(* Corruption arms within the mode's budget; the degenerate budget-0 arms
   would duplicate "clean", so they are skipped rather than run twice. *)
let corruption_arms ~n ~d ~budget =
  if budget = 0 then [ ("clean", []) ]
  else
    let ids = List.init budget (fun i -> n - 1 - i) in
    [
      ("clean", []);
      ("silent", List.map (fun i -> (i, Behavior.Silent)) ids);
      ( "poison",
        List.map (fun i -> (i, Behavior.Honest_with_input (poison_vec d))) ids
      );
    ]

let pinned_grid () =
  let idx = ref 0 in
  List.concat_map
    (fun (d, n, ts, ta) ->
      let cfg = Config.make_exn ~n ~ts ~ta ~d ~eps ~delta in
      let inputs =
        Inputs.uniform_cube
          (Rng.create (Int64.of_int ((7 * n) + d)))
          ~d ~n ~side:1.0
      in
      let modes =
        [
          (true, ts,
           [ ("lockstep", Network.lockstep ~delta);
             ("sync-uniform", Network.sync_uniform ~delta) ]);
          (false, ta,
           [ ("async-uniform", Network.async_uniform ~max_delay:(3 * delta)) ]);
        ]
      in
      List.concat_map
        (fun (sync, budget, policies) ->
          List.concat_map
            (fun (pname, policy) ->
              List.map
                (fun (cname, corruptions) ->
                  let name =
                    Printf.sprintf "diff-d%d-n%d-%s-%s-%s" d n
                      (if sync then "sync" else "async")
                      pname cname
                  in
                  let i = !idx in
                  incr idx;
                  Scenario.make ~name
                    ~seed:(Int64.of_int (101 + (17 * i)))
                    ~policy ~sync_network:sync ~corruptions
                    ~budget:
                      { Scenario.max_events = None; wall_seconds = Some 120. }
                    ~cfg ~inputs ())
                (corruption_arms ~n ~d ~budget))
            policies)
        modes)
    grid_configs

let default_wire_chaos ~src ~dst =
  let base =
    [
      Wire_chaos.Drop { percent = 15 };
      Wire_chaos.Duplicate { percent = 10 };
      Wire_chaos.Reorder { percent = 10; hold = 3 };
    ]
  in
  let spike =
    if src = 0 then
      [ Wire_chaos.Delay_spike { from_tick = 40; until_tick = 80; hold = 4 } ]
    else []
  in
  let flap =
    if src = 0 && dst = 1 then
      [ Wire_chaos.Link_flap { at_tick = 60; down_for = 30 } ]
    else []
  in
  base @ spike @ flap

(* -- comparison --------------------------------------------------------- *)

let mask (r : Runner.result) = { r with Runner.transport = `Sim; wire = None }

(* Field-by-field so a mismatch names what diverged instead of just
   "results differ". Ordered cheapest-to-richest. *)
let diff_detail (a : Runner.result) (b : Runner.result) =
  let open Runner in
  if a.termination <> b.termination then Some "termination"
  else if a.live <> b.live then Some "live"
  else if a.valid <> b.valid then Some "valid"
  else if a.agreement <> b.agreement then Some "agreement"
  else if a.diameter <> b.diameter then Some "diameter"
  else if a.outputs <> b.outputs then Some "outputs"
  else if a.output_iters <> b.output_iters then Some "output_iters"
  else if a.output_times <> b.output_times then Some "output_times"
  else if a.t_estimates <> b.t_estimates then Some "t_estimates"
  else if a.histories <> b.histories then Some "histories"
  else if a.completion_rounds <> b.completion_rounds then
    Some "completion_rounds"
  else if a.stats <> b.stats then Some "engine stats"
  else if a.traffic <> b.traffic then Some "traffic"
  else if a.monitor <> b.monitor then Some "monitor summary"
  else if mask a <> mask b then Some "result (unclassified field)"
  else None

let wire_of (r : Runner.result) =
  match r.Runner.wire with
  | Some w -> w
  | None -> failwith "differential: net run carried no wire stats"

let run_case (scen : Scenario.t) =
  let arm transport wire_chaos =
    Runner.run ~monitor:true
      { scen with Scenario.transport; wire_chaos }
  in
  let rs = arm `Sim None in
  let rn = arm `Net None in
  let rc = arm `Net (Some default_wire_chaos) in
  let d_net = diff_detail rs rn in
  let d_chaos = diff_detail rs rc in
  let monitor_clean =
    match rc.Runner.monitor with
    | Some s -> Monitor.total_violations s = 0
    | None -> false
  in
  {
    name = scen.Scenario.name;
    net_ok = d_net = None;
    chaos_ok = d_chaos = None;
    monitor_clean;
    detail =
      (match (d_net, d_chaos) with
      | Some f, _ -> Some ("net: " ^ f)
      | None, Some f -> Some ("chaos: " ^ f)
      | None, None -> None);
    wire = wire_of rn;
    chaos_wire = wire_of rc;
  }

let failed v = not (v.net_ok && v.chaos_ok && v.monitor_clean)

let execute ?(log = fun _ -> ()) () =
  let grid = pinned_grid () in
  let verdicts =
    List.map
      (fun scen ->
        let v = run_case scen in
        log
          (Printf.sprintf "%-40s %s  (frames=%d retx=%d reconn=%d)" v.name
             (if failed v then "MISMATCH" else "ok")
             v.chaos_wire.Netrun.frames_sent v.chaos_wire.Netrun.retransmits
             v.chaos_wire.Netrun.reconnects);
        v)
      grid
  in
  {
    verdicts;
    cases = List.length verdicts;
    failures = List.length (List.filter failed verdicts);
  }

let passed r = r.failures = 0

let pp ppf r =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "sim-as-oracle differential: %d cases, %d failures"
    r.cases r.failures;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,  %-40s net=%s chaos=%s monitor=%s%s" v.name
        (if v.net_ok then "ok" else "MISMATCH")
        (if v.chaos_ok then "ok" else "MISMATCH")
        (if v.monitor_clean then "clean" else "VIOLATIONS")
        (match v.detail with None -> "" | Some d -> "  first diff: " ^ d))
    r.verdicts;
  Format.pp_close_box ppf ()

let pp_chaos_totals ppf r =
  let tot f = List.fold_left (fun a v -> a + f v.chaos_wire) 0 r.verdicts in
  Format.fprintf ppf
    "  chaos arms masked: %d frames dropped, %d duplicated, %d retransmits, \
     %d reconnects"
    (tot (fun w -> w.Netrun.chaos_dropped))
    (tot (fun w -> w.Netrun.chaos_duplicated))
    (tot (fun w -> w.Netrun.retransmits))
    (tot (fun w -> w.Netrun.reconnects))
