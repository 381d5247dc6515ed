(* Tests for the bounded model-checking explorer and its supporting
   seams: the engine chooser hook is byte-invisible at its default on
   both the sim and the net backend, Fault_plan reprs round-trip, the
   shrinker is 1-minimal and idempotent against its own move set, EW's
   echo confirmation contains an explicitly equivocating adversary, and
   the explorer rediscovers both protocol mutants with replayable shrunk
   repros. *)

let zero_chooser engine = Engine.set_chooser engine (fun _ -> 0)

(* --- chooser default byte-identity: sim / net --- *)

let grid_slice ~n ~d =
  match
    List.find_opt
      (fun s -> s.Scenario.cfg.Config.n = n && s.Scenario.cfg.Config.d = d)
      (Differential.pinned_grid ())
  with
  | Some s -> s
  | None -> Alcotest.failf "no (n=%d, d=%d) slice in the pinned grid" n d

(* Everything in a result is schedule-determined except the transport
   tag and the kernel-scheduling-dependent wire statistics, which
   Differential.diff_detail masks. *)
let check_identity name baseline hooked =
  Alcotest.(check (option string))
    (name ^ ": always-0 chooser is byte-identical to no chooser")
    None
    (Differential.diff_detail baseline hooked)

let test_chooser_identity_sim () =
  List.iter
    (fun (n, d) ->
      let s = grid_slice ~n ~d in
      check_identity
        (Printf.sprintf "sim n=%d d=%d" n d)
        (Runner.run ~monitor:true s)
        (Runner.run ~monitor:true ~on_engine:zero_chooser s))
    [ (4, 1); (8, 2) ]

let test_chooser_identity_net () =
  let s = { (grid_slice ~n:4 ~d:1) with Scenario.transport = `Net } in
  check_identity "net n=4 d=1"
    (Runner.run ~monitor:true s)
    (Runner.run ~monitor:true ~on_engine:zero_chooser s)

(* A non-default chooser must actually steer the schedule — guards
   against the hook silently degenerating into a no-op. *)
let test_chooser_steers () =
  let s = grid_slice ~n:4 ~d:1 in
  let consulted = ref 0 in
  let last_chooser engine =
    Engine.set_chooser engine (fun cands ->
        incr consulted;
        Array.length cands - 1)
  in
  let base = Runner.run s in
  let steered = Runner.run ~on_engine:last_chooser s in
  Alcotest.(check bool) "chooser was consulted" true (!consulted > 0);
  (* Outputs must still agree (the protocol is schedule-insensitive in
     its correctness envelope) but the event order differs, which the
     per-party output times expose under the lockstep policy. *)
  Alcotest.(check bool)
    "live either way" true
    (base.Runner.live && steered.Runner.live)

(* --- Fault_plan repr round-trip --- *)

let all_atoms_plan =
  let v x = Vec.of_list [ x; -1.5 ] in
  [
    Fault_plan.Corrupt_at { tick = 7; party = 1; behavior = Behavior.Silent };
    Fault_plan.Corrupt_at { tick = 0; party = 2; behavior = Behavior.Crash_at 9 };
    Fault_plan.Corrupt_at
      { tick = 3; party = 3; behavior = Behavior.Honest_with_input (v 2.25) };
    Fault_plan.Corrupt_at
      { tick = 1; party = 4; behavior = Behavior.Equivocate (v 1., v 2.) };
    Fault_plan.Corrupt_at
      {
        tick = 2;
        party = 5;
        behavior =
          Behavior.Equivocate_split
            { values = (v 0.5, v 0.125); assign = [| 0; 1; 0; 1; 1; 0; 0; 0 |] };
      };
    Fault_plan.Corrupt_at { tick = 4; party = 6; behavior = Behavior.Halt_liar 2 };
    Fault_plan.Corrupt_at
      {
        tick = 5;
        party = 0;
        behavior = Behavior.Spam { period = 3; payload_bytes = 64; until = 40 };
      };
    Fault_plan.Corrupt_at { tick = 6; party = 7; behavior = Behavior.Garbage 17 };
    Fault_plan.Corrupt_at { tick = 8; party = 1; behavior = Behavior.Lagger 4 };
    Fault_plan.Partition
      { from_tick = 2; until_tick = 9; group_of = [| 0; 0; 1; 1; 0; 1; 0; 1 |] };
    Fault_plan.Delay_spike { from_tick = 0; until_tick = 5; factor = 3 };
    Fault_plan.Duplicate { from_tick = 1; until_tick = 6; percent = 35 };
    Fault_plan.Reorder { from_tick = 4; until_tick = 12; window = 5 };
  ]

let test_repr_roundtrip_all_atoms () =
  let repr = Fault_plan.to_repr all_atoms_plan in
  Alcotest.(check bool) "repr is tab-free" false (String.contains repr '\t');
  match Fault_plan.of_repr repr with
  | Error e -> Alcotest.failf "of_repr rejected its own encoding: %s" e
  | Ok plan -> Alcotest.(check bool) "round trip" true (plan = all_atoms_plan)

let test_repr_rejects_garbage () =
  List.iter
    (fun s ->
      match Fault_plan.of_repr s with
      | Ok _ -> Alcotest.failf "of_repr accepted %S" s
      | Error _ -> ())
    [ "X,1,2"; "C,1"; "C,x,2,s"; "P,0,5,012x"; "D,3,1"; "C,1,2,e:1.0" ]

let cfg8 = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

let prop_repr_roundtrip =
  QCheck.Test.make ~name:"generated plans round-trip through repr" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let plan =
        Fault_gen.sample
          (Rng.create (Int64.of_int seed))
          ~cfg:cfg8 ~sync:true ~existing:[] ~horizon:200
      in
      Fault_plan.of_repr (Fault_plan.to_repr plan) = Ok plan)

(* --- Fault_shrink: strong 1-minimality and idempotence --- *)

(* A deterministic, strictly candidate-monotone oracle: every move in
   the shrinker's repertoire (atom drop, candidate weakening) strictly
   decreases [weight], so "weight >= threshold" lets us assert full
   1-minimality against exactly the shrinker's move set. *)
let weight_atom = function
  | Fault_plan.Corrupt_at { tick; behavior; _ } ->
      tick + (match behavior with Behavior.Silent -> 0 | _ -> 5)
  | Fault_plan.Partition { from_tick; until_tick; _ } ->
      from_tick + (until_tick - from_tick)
  | Fault_plan.Delay_spike { from_tick; until_tick; factor } ->
      from_tick + (until_tick - from_tick) + factor
  | Fault_plan.Duplicate { from_tick; until_tick; percent } ->
      from_tick + (until_tick - from_tick) + percent
  | Fault_plan.Reorder { from_tick; until_tick; window } ->
      from_tick + (until_tick - from_tick) + window

let weight plan = List.fold_left (fun acc a -> acc + weight_atom a) 0 plan

let check_one_minimal ~reproduces plan =
  List.iteri
    (fun i _ ->
      let dropped = List.filteri (fun j _ -> j <> i) plan in
      if reproduces dropped then
        Alcotest.failf "dropping atom %d still reproduces" i)
    plan;
  List.iteri
    (fun i atom ->
      List.iter
        (fun cand ->
          let replaced = List.mapi (fun j a -> if j = i then cand else a) plan in
          if reproduces replaced then
            Alcotest.failf "weakening atom %d (%s) still reproduces" i
              (Fault_plan.atom_to_string cand))
        (Fault_shrink.candidates atom))
    plan

let prop_shrink_minimal_idempotent =
  QCheck.Test.make
    ~name:"shrink output is 1-minimal against drops and candidates, and \
           shrinking is idempotent"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let plan =
        Fault_gen.sample
          (Rng.create (Int64.of_int seed))
          ~cfg:cfg8 ~sync:true ~existing:[] ~horizon:120
      in
      let total = weight plan in
      QCheck.assume (plan <> [] && total > 0);
      let threshold = max 1 (total / 2) in
      let reproduces p = weight p >= threshold in
      let shrink =
        Fault_shrink.shrink ~max_tries:100_000 ~reproduces:(fun p _ ->
            reproduces p)
      in
      let o = shrink plan in
      let p = o.Fault_shrink.plan in
      if not (reproduces p) then
        QCheck.Test.fail_report "shrunk plan lost the property";
      if not o.Fault_shrink.minimal then
        QCheck.Test.fail_report "try budget unexpectedly exhausted";
      check_one_minimal ~reproduces p;
      let o2 = shrink p in
      if o2.Fault_shrink.plan <> p then
        QCheck.Test.fail_report "shrinking a shrunk plan changed it";
      true)

(* A pinned case where removal and numeric shrinking must interleave:
   the oracle wants either two corrupt atoms or one strong delay spike,
   so the joint fixpoint must discard the spike entirely and zero the
   corrupt ticks — a single removal-then-numeric pass would leave the
   spike's window shrinkable. *)
let test_shrink_joint_fixpoint () =
  let plan =
    [
      Fault_plan.Corrupt_at { tick = 12; party = 1; behavior = Behavior.Silent };
      Fault_plan.Delay_spike { from_tick = 4; until_tick = 20; factor = 8 };
      Fault_plan.Corrupt_at { tick = 30; party = 2; behavior = Behavior.Silent };
    ]
  in
  let corrupt_atoms p =
    List.length
      (List.filter (function Fault_plan.Corrupt_at _ -> true | _ -> false) p)
  in
  let strong_spike p =
    List.exists
      (function
        | Fault_plan.Delay_spike { factor; _ } -> factor >= 4
        | _ -> false)
      p
  in
  let reproduces p = corrupt_atoms p >= 2 || strong_spike p in
  let o = Fault_shrink.shrink ~reproduces:(fun p _ -> reproduces p) plan in
  let shrunk = o.Fault_shrink.plan in
  Alcotest.(check bool) "reproduces" true (reproduces shrunk);
  Alcotest.(check bool) "minimal" true o.Fault_shrink.minimal;
  check_one_minimal ~reproduces shrunk;
  (* Which 1-minimal fixpoint greedy reaches (two zero-tick corrupt atoms,
     or one tight strong spike) is not pinned — but reaching EITHER needs
     removal and numeric moves to interleave: atoms must go AND the
     survivors' numerics must hit the oracle floor. *)
  Alcotest.(check bool) "at least one atom removed" true
    (List.length shrunk < List.length plan);
  Alcotest.(check bool)
    (Printf.sprintf "numerics shrunk to the oracle floor (weight %d)"
       (weight shrunk))
    true
    (weight shrunk <= 5)

(* --- EW equivocation: echo confirmation contains it --- *)

(* n = 4, t = 1. Party 2's links are slow (3 ticks), everyone else's are
   fast (1 tick). The Byzantine party 3 shows value [va] to {0, 1} and
   [vb] to {2}: the fast parties' value sets close over (3, va) while
   party 2's closes over (3, vb), so without a consistency mechanism no
   honest report would ever pass another party's subset test — witness
   counts would stall at 2 < n − t and NOBODY would output. Echo
   confirmation denies party 3 a confirmation quorum for either value and
   the honest pairs confirm everywhere, so the protocol completes on the
   honest inputs alone. *)
let ew_equivocation_run () =
  let n = 4 in
  let policy ~rng:_ ~now:_ ~src ~dst:_ = if src = 2 then 3 else 1 in
  let engine = Engine.create ~n ~policy () in
  let honest = [ 0; 1; 2 ] in
  let parties =
    List.map
      (fun i ->
        ( i,
          Ew_aa.attach_endpoint ~channel:Ew_aa.Direct ~t:1
            ~iters:1 (Engine.endpoint engine ~me:i) ))
      honest
  in
  Engine.set_party engine 3 (fun _ -> ());
  let inputs = [| 0.0; 1.0; 0.5 |] in
  List.iter
    (fun (i, p) -> Ew_aa.start p (Vec.of_list [ inputs.(i) ]))
    parties;
  let va = Vec.of_list [ 10. ] and vb = Vec.of_list [ -10. ] in
  List.iter
    (fun dst ->
      Engine.send engine ~src:3 ~dst
        (Message.Ew_value
           { iter = 1; value = (if dst = 2 then vb else va) }))
    honest;
  Engine.run engine;
  List.map (fun (i, p) -> (i, Ew_aa.output p)) parties

let test_ew_equivocation_defence_completes () =
  let outs = ew_equivocation_run () in
  let values =
    List.map
      (fun (i, out) ->
        match out with
        | None -> Alcotest.failf "party %d failed to output" i
        | Some v -> (Vec.to_array v).(0))
      outs
  in
  List.iter
    (fun x ->
      Alcotest.(check bool) "output within the honest hull [0,1]" true
        (x >= 0. && x <= 1.))
    values;
  match values with
  | x :: rest ->
      List.iter
        (fun y ->
          Alcotest.(check (float 1e-12)) "outputs agree exactly" x y)
        rest
  | [] -> Alcotest.fail "no outputs"

(* An honest EW run on the direct channel is reproducible: two runs give
   the same outputs and engine statistics. *)
let test_ew_defence_off_is_legacy () =
  let run () =
    let n = 4 in
    let engine = Engine.create ~n ~policy:(Network.lockstep ~delta:4) () in
    let parties =
      List.init n (fun i ->
          Ew_aa.attach_endpoint ~channel:Ew_aa.Direct ~t:1 ~iters:2 (Engine.endpoint engine ~me:i))
    in
    List.iteri
      (fun i p -> Ew_aa.start p (Vec.of_list [ float_of_int i ]))
      parties;
    Engine.run engine;
    (List.map (fun p -> Ew_aa.output p) parties, Engine.stats engine)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "honest EW runs are reproducible" true (a = b)

(* --- the explorer itself --- *)

let explore_cfg = Config.make_exn ~n:3 ~ts:0 ~ta:0 ~d:1 ~eps:0.25 ~delta:2

let explore_inputs =
  [ Vec.of_list [ 0. ]; Vec.of_list [ 0.5 ]; Vec.of_list [ 1. ] ]

let test_explorer_honest_clean () =
  let config =
    Explore.default_config ~mode:Explore.Pruned ~max_schedule_depth:2
      ~cfg:explore_cfg ~inputs:explore_inputs ()
  in
  let r = Explore.explore config in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check bool) "clean" true (r.Explore.counterexamples = []);
  Alcotest.(check int) "no truncation" 0 r.Explore.truncated;
  Alcotest.(check bool) "explored more than the default schedule" true
    (r.Explore.executions > 1)

let test_explorer_pruning_reduces () =
  let mk mode =
    Explore.default_config ~mode ~max_schedule_depth:2 ~cfg:explore_cfg
      ~inputs:explore_inputs ()
  in
  let naive = Explore.explore (mk Explore.Naive) in
  let pruned = Explore.explore (mk Explore.Pruned) in
  Alcotest.(check bool) "both exhausted" true
    (naive.Explore.exhausted && pruned.Explore.exhausted);
  Alcotest.(check bool)
    (Printf.sprintf "pruning reduces executions (%d naive vs %d pruned)"
       naive.Explore.executions pruned.Explore.executions)
    true
    (pruned.Explore.executions < naive.Explore.executions)

let test_explorer_rediscovers_mutants () =
  List.iter
    (fun (m, invariant) ->
      let config =
        Explore.default_config
          ~protocol:(Scenario.Maaa { Party.default_opts with mutant = Some m })
          ~max_schedule_depth:1 ~cfg:explore_cfg ~inputs:explore_inputs ()
      in
      let r = Explore.explore config in
      let name = Scenario.Spec.(to_string mutant (Some m)) in
      Alcotest.(check bool) (name ^ " flagged") true
        (r.Explore.counterexamples <> []);
      List.iter
        (fun cx ->
          Alcotest.(check bool)
            (name ^ " violates " ^ invariant)
            true
            (match cx.Case.verdict with
            | Case.Violates invs -> List.mem invariant invs
            | Case.Incomplete -> false);
          Alcotest.(check bool)
            (name ^ " shrunk repro replays")
            true
            (Explore.replay cx = Ok true))
        r.Explore.counterexamples)
    [
      (Party.Non_contracting_update, "validity");
      (Party.Premature_output, "agreement");
    ]

(* [tries] counts every oracle call once. With no schedule to shrink
   (depth 0), the only calls are the plan shrinker's, so the count must
   equal what [Fault_shrink.shrink] reports for the same plan and a
   replay-backed oracle. *)
let test_explorer_cx_tries_counted_once () =
  let cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:1 ~eps:0.25 ~delta:2 in
  let config =
    Explore.default_config
      ~protocol:
        (Scenario.Maaa
           { Party.default_opts with mutant = Some Party.Premature_output })
      ~adversary:(Explore.Crash { party = 3; max_tick = 2 })
      ~max_schedule_depth:0 ~cfg
      ~inputs:(List.init 4 (fun i -> Vec.of_list [ 0.4 *. float_of_int i ]))
      ()
  in
  let r = Explore.explore config in
  Alcotest.(check bool) "counterexamples with a fault plan" true
    (List.exists (fun cx -> cx.Case.plan <> []) r.Explore.counterexamples);
  List.iter
    (fun cx ->
      let scen = Result.get_ok (Explore.scenario_of_spec cx.Case.spec) in
      let reproduces plan schedule =
        Case.reproduces scen cx.Case.verdict ~plan ~schedule
      in
      let expected =
        (Fault_shrink.shrink ~reproduces ~schedule:cx.Case.schedule cx.Case.plan)
          .Fault_shrink.tries
      in
      Alcotest.(check int)
        (Printf.sprintf "tries for plan %s" (Fault_plan.to_repr cx.Case.plan))
        expected cx.Case.tries)
    r.Explore.counterexamples

let test_explorer_quarantine_roundtrip () =
  let config =
    Explore.default_config
      ~protocol:
        (Scenario.Maaa
           { Party.default_opts with mutant = Some Party.Premature_output })
      ~max_schedule_depth:1
      ~cfg:explore_cfg ~inputs:explore_inputs ()
  in
  let r = Explore.explore config in
  Alcotest.(check bool) "found something to quarantine" true
    (r.Explore.counterexamples <> []);
  let path = Filename.temp_file "explore-quarantine" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explore.write_quarantine ~path config r;
      match Explore.replay_file ~path with
      | Error e -> Alcotest.failf "replay_file: %s" e
      | Ok o ->
          Alcotest.(check int) "all cases reproduce" o.Explore.rp_total
            o.Explore.rp_reproduced;
          Alcotest.(check bool) "no failures" true (o.Explore.rp_failures = []))

let test_explorer_quarantine_rejects_garbage () =
  let path = Filename.temp_file "explore-garbage" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not-a-quarantine\tfile\n";
      close_out oc;
      match Explore.replay_file ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage file accepted")

(* A malformed %-escape in the header is a parse error naming the line,
   not an exception out of the decoder. *)
let test_explorer_quarantine_bad_escape () =
  let config =
    Explore.default_config ~max_schedule_depth:0 ~cfg:explore_cfg
      ~inputs:explore_inputs ()
  in
  let path = Filename.temp_file "explore-escape" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explore.write_quarantine ~path config (Explore.explore config);
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let bad = "mode=%zz" in
      let text =
        String.concat "\t"
          (List.map
             (fun f -> if f = "mode=pruned" then bad else f)
             (String.split_on_char '\t' text))
      in
      Alcotest.(check bool) "header carries the bad escape" true
        (List.mem bad (String.split_on_char '\t' text));
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      match Explore.replay_file ~path with
      | Ok _ -> Alcotest.fail "bad escape accepted"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error names line 1 (%s)" e)
            true
            (String.length e > 7 && String.sub e 0 7 = "line 1:"))

(* A quarantine file of the previous schema (maaa-explore-quarantine/3,
   written before soak and explore shared one case file) is refused with
   a one-line error naming the schema, not replayed under a guessed
   layout. *)
let test_explorer_quarantine_old_schema () =
  let path = Filename.temp_file "explore-old" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      List.iter
        (fun l ->
          output_string oc (String.concat "\t" l);
          output_char oc '\n')
        [
          [ "maaa-explore-quarantine/3"; "mode=pruned"; "n=3"; "d=1"; "ts=0";
            "ta=0"; "eps=0x1p-2"; "delta=2"; "protocol=maaa";
            "mutant=premature-output"; "layer=interned"; "adversary=honest";
            "inputs=0x0p+0|0x1p-1|0x1p+0"; "max-events=50000";
            "max-execs=20000"; "depth=1"; "max-cx=3"; "." ];
          [ "stats"; "execs=1"; "points=0"; "truncated=0"; "cuts=0";
            "states=0"; "exhausted=1"; "." ];
          [ "case"; "invariants=agreement"; "plan=~"; "schedule=~";
            "shrunk-plan=~"; "shrunk-schedule=~"; "tries=0"; "minimal=1"; "." ];
        ];
      close_out oc;
      match Explore.replay_file ~path with
      | Ok _ -> Alcotest.fail "old schema accepted"
      | Error e ->
          Alcotest.(check string) "one line naming the schema"
            "line 1: schema maaa-explore-quarantine/3, expected maaa-case/1" e)

let premature_config =
  Explore.default_config
    ~protocol:
      (Scenario.Maaa { Party.default_opts with mutant = Some Party.Premature_output })
    ~max_schedule_depth:1 ~cfg:explore_cfg ~inputs:explore_inputs ()

(* A case whose spec was written while the seed message layer was
   selectable (layer=reference) is refused with Spec's one-line error:
   that layer is no longer spelled. *)
let test_explorer_quarantine_reference_layer () =
  let path = Filename.temp_file "explore-reference" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explore.write_quarantine ~path premature_config
        (Explore.explore premature_config);
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let text =
        String.concat " "
          (List.map
             (fun f -> if f = "layer=interned" then "layer=reference" else f)
             (String.split_on_char ' ' text))
      in
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      match Explore.replay_file ~path with
      | Ok _ -> Alcotest.fail "layer=reference accepted"
      | Error e ->
          Alcotest.(check string) "Spec's one-line error"
            "line 2: unknown message layer \"reference\" (expected \
             interned|batched)"
            e)

(* The violating rows of a soak mutant sweep, and the quarantined row of
   an injected stuck case, replay through the same dispatch as an explore
   quarantine: one case file, one replay. *)
let test_soak_rows_replay () =
  let replay_journal config expect =
    let path = Filename.temp_file "soak" ".journal" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let o = Soak.execute ~journal:path config in
        (match Explore.replay_file ~path with
        | Error e -> Alcotest.failf "replay_file: %s" e
        | Ok r ->
            Alcotest.(check int) "abnormal rows replayed" expect
              r.Explore.rp_total;
            Alcotest.(check (list string)) "all reproduce" []
              r.Explore.rp_failures);
        o)
  in
  let config =
    {
      Soak.default with
      Soak.cases = 3;
      seed = 3L;
      protocol =
        Scenario.Maaa
          { Party.default_opts with mutant = Some Party.Premature_output };
    }
  in
  let o = replay_journal config 3 in
  (* each spec line rebuilds exactly its own case of the grid *)
  let key (s : Scenario.t) =
    ( s.Scenario.name,
      s.Scenario.seed,
      s.Scenario.sync_network,
      s.Scenario.inputs,
      s.Scenario.corruptions,
      s.Scenario.chaos )
  in
  List.iter2
    (fun (_, v) grid ->
      match Explore.scenario_of_spec v.Soak.vd_case.Case.spec with
      | Error e -> Alcotest.failf "spec does not rebuild: %s" e
      | Ok s ->
          Alcotest.(check bool) (s.Scenario.name ^ " rebuilt") true
            (key s = key grid))
    o.Soak.violating (Soak.build_scenarios config);
  ignore
    (replay_journal
       {
         Soak.default with
         Soak.cases = 2;
         seed = 11L;
         case_events = 50_000;
         stuck = Some 1;
       }
       1)

(* A soak journal row a SIGKILL tore before its "." sentinel is skipped
   and counted, as soak's --resume drops it; any other malformed row — a
   bad %-escape — still refuses the whole file. *)
let test_torn_journal_rows () =
  let path = Filename.temp_file "soak" ".journal" in
  let torn = path ^ ".torn" and bad = path ^ ".bad" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; torn; bad ])
    (fun () ->
      ignore
        (Soak.execute ~journal:path
           {
             Soak.default with
             Soak.cases = 2;
             seed = 3L;
             protocol =
               Scenario.Maaa
                 { Party.default_opts with mutant = Some Party.Premature_output };
           });
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let header, rows = (List.hd lines, List.tl lines) in
      let write p ls = Out_channel.with_open_text p (fun oc -> output_string oc (String.concat "\n" ls)) in
      (* the last row cut mid-field, with no newline after it *)
      let cut l = String.sub l 0 (String.length l - 5) in
      write torn (header :: List.mapi (fun i l -> if i = List.length rows - 1 then cut l else l) rows);
      (match Explore.replay_file ~path:torn with
      | Error e -> Alcotest.failf "torn journal refused: %s" e
      | Ok r ->
          Alcotest.(check int) "torn row skipped" 1 r.Explore.rp_skipped;
          Alcotest.(check int) "the whole rows replay" (List.length rows - 1)
            r.Explore.rp_total;
          Alcotest.(check (list string)) "and reproduce" [] r.Explore.rp_failures);
      let escape l = String.sub l 0 (String.length l - 1) ^ "x=%zz\t." in
      write bad (header :: List.mapi (fun i l -> if i = 0 then escape l else l) rows);
      match Explore.replay_file ~path:bad with
      | Ok _ -> Alcotest.fail "a bad %-escape was accepted"
      | Error e ->
          Alcotest.(check string) "one-line error" "line 2: bad %-escape in \"%zz\"" e)

let () =
  Alcotest.run "explore"
    [
      ( "chooser identity",
        [
          Alcotest.test_case "sim grid slices" `Quick test_chooser_identity_sim;
          Alcotest.test_case "net backend" `Quick test_chooser_identity_net;
          Alcotest.test_case "non-default chooser steers" `Quick
            test_chooser_steers;
        ] );
      ( "plan repr",
        [
          Alcotest.test_case "all atom kinds round-trip" `Quick
            test_repr_roundtrip_all_atoms;
          Alcotest.test_case "garbage rejected" `Quick test_repr_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_repr_roundtrip;
        ] );
      ( "shrinker",
        [
          QCheck_alcotest.to_alcotest prop_shrink_minimal_idempotent;
          Alcotest.test_case "joint removal/numeric fixpoint" `Quick
            test_shrink_joint_fixpoint;
        ] );
      ( "ew equivocation",
        [
          Alcotest.test_case "defence completes" `Quick
            test_ew_equivocation_defence_completes;
          Alcotest.test_case "defence off is legacy" `Quick
            test_ew_defence_off_is_legacy;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "honest space clean" `Quick
            test_explorer_honest_clean;
          Alcotest.test_case "pruning reduces executions" `Quick
            test_explorer_pruning_reduces;
          Alcotest.test_case "rediscovers both mutants" `Quick
            test_explorer_rediscovers_mutants;
          Alcotest.test_case "cx_tries counts each oracle call once" `Quick
            test_explorer_cx_tries_counted_once;
          Alcotest.test_case "quarantine round-trip" `Quick
            test_explorer_quarantine_roundtrip;
          Alcotest.test_case "quarantine rejects garbage" `Quick
            test_explorer_quarantine_rejects_garbage;
          Alcotest.test_case "quarantine bad escape is an error" `Quick
            test_explorer_quarantine_bad_escape;
          Alcotest.test_case "quarantine with an old schema is refused" `Quick
            test_explorer_quarantine_old_schema;
          Alcotest.test_case "quarantine with the reference layer is refused"
            `Quick test_explorer_quarantine_reference_layer;
          Alcotest.test_case "soak row replays through explore" `Slow
            test_soak_rows_replay;
          Alcotest.test_case "torn journal row skipped" `Quick
            test_torn_journal_rows;
        ] );
    ]
