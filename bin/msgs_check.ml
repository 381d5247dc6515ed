(* Pinned per-class message-count check (make msgs-check).

   One fixed configuration — n=8, ts=2, ta=1, D=2, eps=0.05, delta=10,
   lockstep, all honest, the E14 input pattern — run through all three
   communication paths:

     unbatched  the per-packet rBC stack, checked against the closed-form
                E14 cost model (exact, not approximate)
     batched    the combined-packet layer; its logical step rows must
                equal the unbatched run's exactly (same votes, different
                packaging) and its physical packet counts are pinned
     ew         the quadratic-communication protocol; only the "EW
                direct" class may be non-zero, at exactly (3 + ta)·n^2
                per iteration (value, claim, delta and report waves)

   Counts here are deterministic (lockstep drains by (time, seq) order,
   no RNG), so any drift is a protocol or accounting change — the point
   of this gate. Prints the three tables; exit 1 on any mismatch. *)

let n = 8
let d = 2
let cfg = Config.make_exn ~n ~ts:2 ~ta:1 ~d ~eps:0.05 ~delta:10

let inputs =
  List.init n (fun i ->
      Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))

let run ?protocol name =
  let r =
    Runner.run
      (Scenario.make ~name ~cfg ~inputs ?protocol
         ~policy:(Network.lockstep ~delta:10) ())
  in
  if not (r.Runner.live && r.Runner.valid && r.Runner.agreement) then (
    Printf.eprintf "msgs-check: %s run did not converge\n" name;
    exit 1);
  r

let failures = ref 0

let check_table ~title rows expected =
  Printf.printf "%s\n" title;
  Printf.printf "  %-16s %10s %10s  %s\n" "class" "measured" "expected" "ok";
  List.iter
    (fun (name, msgs, _bytes) ->
      match List.assoc_opt name expected with
      | None ->
          incr failures;
          Printf.printf "  %-16s %10d %10s  UNEXPECTED CLASS\n" name msgs "-"
      | Some exp ->
          let ok = msgs = exp in
          if not ok then incr failures;
          Printf.printf "  %-16s %10d %10d  %s\n" name msgs exp
            (if ok then "yes" else "MISMATCH"))
    rows;
  print_newline ()

let () =
  let r_unb = run "msgs-unbatched" in
  let r_bat =
    run
      ~protocol:
        (Scenario.Maaa
           { Party.default_opts with layer = Party.Batched })
      "msgs-batched"
  in
  let r_ew = run ~protocol:Scenario.Ew "msgs-ew" in

  (* Unbatched: the E14 closed-form model. *)
  let iterations =
    1 + List.fold_left (fun acc (_, it) -> max acc it) 0 r_unb.Runner.output_iters
  in
  let per_instance = n + (2 * n * n) in
  let instances = (2 * n) + (iterations * n) + n in
  let expected_unb =
    [
      ("Pi_init rBC", 2 * n * per_instance);
      ("iteration rBC", iterations * n * per_instance);
      ("halt rBC", n * per_instance);
      ("oBC reports", (iterations - 1) * n * n);
      ("witness sets", n * n);
      ("baseline", 0);
      ("junk", 0);
      ("batched rBC", 0);
      ("EW direct", 0);
      ("rBC step: init", instances * n);
      ("rBC step: echo", instances * n * n);
      ("rBC step: ready", instances * n * n);
    ]
  in
  check_table
    ~title:
      (Printf.sprintf "unbatched (closed form, %d iterations, %d instances)"
         iterations instances)
    r_unb.Runner.traffic expected_unb;

  (* Batched: identical logical votes (step rows copied from the
     unbatched run's measured table), pinned physical packet counts.
     Plain rBC rows stay non-zero: a tick in which a party has exactly
     one vote for one receiver goes out unbatched. *)
  let unb_row name =
    match
      List.find_opt (fun (name', _, _) -> name' = name) r_unb.Runner.traffic
    with
    | Some (_, m, _) -> m
    | None -> -1
  in
  let expected_bat =
    [
      ("Pi_init rBC", 128);
      ("iteration rBC", 64);
      ("halt rBC", 0);
      ("oBC reports", (iterations - 1) * n * n);
      ("witness sets", n * n);
      ("baseline", 0);
      ("junk", 0);
      ("batched rBC", 576);
      ("EW direct", 0);
      ("rBC step: init", unb_row "rBC step: init");
      ("rBC step: echo", unb_row "rBC step: echo");
      ("rBC step: ready", unb_row "rBC step: ready");
    ]
  in
  check_table
    ~title:"batched (pinned packets; step rows must equal unbatched)"
    r_bat.Runner.traffic expected_bat;

  (* EW: every message is a direct one-to-all send, nothing else on the
     wire. Under lockstep each party's iteration is one wave of each:
     its value; its claim, echoing the first n − ta values that arrive;
     one delta claim per value arriving after that (ta of them); its
     report. Each wave is n sends per party. *)
  let ew_iters =
    match r_ew.Runner.output_iters with
    | (_, it) :: _ -> it
    | [] -> 0
  in
  let ta = cfg.Config.ta in
  let waves =
    1 (* value *) + 1 (* claim *) + ta (* deltas *) + 1 (* report *)
  in
  let expected_ew =
    List.map
      (fun (name, _, _) ->
        (name, if name = "EW direct" then waves * n * n * ew_iters else 0))
      r_ew.Runner.traffic
  in
  check_table
    ~title:
      (Printf.sprintf "ew ((3 + ta)n^2 = %dn^2 per iteration, %d iterations)"
         waves ew_iters)
    r_ew.Runner.traffic expected_ew;

  if !failures > 0 then (
    Printf.printf "msgs-check: %d mismatching classes\n" !failures;
    exit 1)
  else Printf.printf "msgs-check: all per-class counts exact\n"
