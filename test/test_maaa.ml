(* End-to-end tests of the full hybrid protocol ΠAA (Theorem 5.19), run
   through the harness against assorted adversaries and networks. *)

let cfg_2d = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10

let grid_inputs n d =
  List.init n (fun i ->
      Vec.of_list
        (List.init d (fun c -> float_of_int ((i + c) mod 4) +. (0.1 *. float_of_int i))))

let check_all name r =
  if not r.Runner.live then Alcotest.failf "%s: liveness failed" name;
  if not r.Runner.valid then Alcotest.failf "%s: validity failed" name;
  if not r.Runner.agreement then
    Alcotest.failf "%s: agreement failed (diam %.3e > eps %g)" name
      r.Runner.diameter r.Runner.eps

let run ?name ?seed ?policy ?sync_network ?corruptions ~cfg inputs =
  Runner.run
    (Scenario.make ?name ?seed ?policy ?sync_network ?corruptions ~cfg ~inputs ())

(* --- configuration validation --- *)

let test_config_validation () =
  let ok n ts ta d = Result.is_ok (Config.make ~n ~ts ~ta ~d ~eps:0.1 ~delta:1) in
  Alcotest.(check bool) "feasible" true (ok 8 2 1 2);
  Alcotest.(check bool) "boundary rejected" false (ok 7 2 1 2);
  Alcotest.(check bool) "ta > ts rejected" false (ok 20 1 2 2);
  Alcotest.(check bool) "rbc bound for D=1" false (ok 6 2 0 1);
  Alcotest.(check bool) "D=1 with n > 3ts" true (ok 7 2 0 1);
  Alcotest.(check bool) "ta = ts async optimum" true (ok 9 2 2 2);
  Alcotest.(check bool) "feasibility helper" true
    (Config.feasible ~n:8 ~ts:2 ~ta:1 ~d:2);
  Alcotest.(check bool) "feasibility helper boundary" false
    (Config.feasible ~n:7 ~ts:2 ~ta:1 ~d:2)

(* --- synchronous network, ts corruptions --- *)

let test_sync_honest () =
  check_all "sync honest" (run ~cfg:cfg_2d (grid_inputs 8 2))

let test_sync_poisoned () =
  (* ts extreme-value corruptions: the strongest in-protocol attack *)
  let far = Vec.of_list [ 1000.; -1000. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (5, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "sync poisoned" r

let test_sync_silent () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (0, Behavior.Silent); (7, Behavior.Silent) ]
      (grid_inputs 8 2)
  in
  check_all "sync silent" r

let test_sync_crash_mid_protocol () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (2, Behavior.Crash_at 45); (4, Behavior.Crash_at 95) ]
      (grid_inputs 8 2)
  in
  check_all "sync crash" r

let test_sync_equivocator () =
  let va = Vec.of_list [ 50.; 50. ] and vb = Vec.of_list [ -50.; -50. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:[ (3, Behavior.Equivocate (va, vb)) ]
      (grid_inputs 8 2)
  in
  check_all "sync equivocator" r

let test_sync_halt_liar () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [
          (0, Behavior.Halt_liar 1);
          (6, Behavior.Halt_liar 1);
        ]
      (grid_inputs 8 2)
  in
  check_all "sync halt liars" r

let test_sync_spam () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (7, Behavior.Spam { period = 3; payload_bytes = 64; until = 2000 }) ]
      (grid_inputs 8 2)
  in
  check_all "sync spam" r

let test_sync_mixed_adversary () =
  let far = Vec.of_list [ 300.; 300. ] in
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (4, Behavior.Silent) ]
      ~policy:(Network.rushing ~delta:10 ~corrupt:(fun i -> i = 1 || i = 4))
      (grid_inputs 8 2)
  in
  check_all "sync mixed + rushing" r

(* --- asynchronous network, ta corruptions --- *)

let test_async_starved_honest () =
  (* one crash corruption (= ta) plus starvation of an honest party: the
     fallback regime *)
  let r =
    run ~cfg:cfg_2d
      ~policy:(Network.async_starve ~victims:(fun i -> i = 2) ~release:900 ~fast:4)
      ~sync_network:false
      ~corruptions:[ (6, Behavior.Silent) ]
      (grid_inputs 8 2)
  in
  check_all "async starved" r

let test_async_heavy_tail_poison () =
  let far = Vec.of_list [ -500.; 500. ] in
  let r =
    run ~cfg:cfg_2d
      ~policy:(Network.async_heavy_tail ~base:12)
      ~sync_network:false
      ~corruptions:[ (3, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "async heavy tail" r

(* --- dimensions 1 and 3 --- *)

let test_d1 () =
  let cfg = Config.make_exn ~n:7 ~ts:2 ~ta:0 ~d:1 ~eps:0.05 ~delta:10 in
  let inputs = List.init 7 (fun i -> Vec.of_list [ float_of_int i ]) in
  let far = Vec.of_list [ 10000. ] in
  let r =
    run ~cfg
      ~corruptions:
        [ (0, Behavior.Honest_with_input far); (3, Behavior.Honest_with_input far) ]
      inputs
  in
  check_all "1-dimensional" r

let test_d3 () =
  let cfg = Config.make_exn ~n:6 ~ts:1 ~ta:0 ~d:3 ~eps:0.1 ~delta:10 in
  let inputs =
    List.init 6 (fun i ->
        Vec.of_list
          [ float_of_int (i mod 2); float_of_int (i mod 3); float_of_int i /. 2. ])
  in
  let far = Vec.of_list [ 100.; 100.; 100. ] in
  let r = run ~cfg ~corruptions:[ (2, Behavior.Honest_with_input far) ] inputs in
  check_all "3-dimensional" r

(* --- quantitative claims --- *)

let test_contraction_bound () =
  (* Lemma 5.15: every fully-honest-iteration contraction <= sqrt(7/8),
     up to numerical noise. Poisoning forces a spread so there is something
     to contract. *)
  let cfg = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:1e-3 ~delta:10 in
  let far = Vec.of_list [ 40.; -30. ] in
  let r =
    run ~cfg
      ~seed:5L
      ~policy:(Network.sync_uniform ~delta:10)
      ~corruptions:[ (2, Behavior.Honest_with_input far) ]
      (grid_inputs 8 2)
  in
  check_all "contraction run" r;
  List.iter
    (fun (it, ratio) ->
      if ratio > Params.conv_factor +. 1e-6 then
        Alcotest.failf "iteration %d contracted only by %.4f > sqrt(7/8)" it ratio)
    (Runner.contraction_ratios r)

let test_sync_round_count () =
  (* Theorem 5.19 timing: completion within c_init + (T + 1) * c_AA-it + c'_rBC
     rounds of Δ under lockstep (plus the final halt delivery). *)
  let r = run ~cfg:cfg_2d ~policy:(Network.lockstep ~delta:10) (grid_inputs 8 2) in
  check_all "round count run" r;
  let t_max =
    List.fold_left (fun acc (_, t) -> max acc t) 1 r.Runner.t_estimates
  in
  let bound =
    float_of_int
      (Params.c_init + ((t_max + 1) * Params.c_aa_it) + Params.c_rbc')
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f rounds within %.1f" r.Runner.completion_rounds bound)
    true
    (r.Runner.completion_rounds <= bound +. 1e-9)

let test_validity_exact_hull_membership () =
  let r =
    run ~cfg:cfg_2d
      ~corruptions:
        [ (0, Behavior.Honest_with_input (Vec.of_list [ 9999.; 9999. ])) ]
      (grid_inputs 8 2)
  in
  check_all "hull membership run" r;
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "inside honest hull" true
        (Membership.in_hull ~eps:1e-6 r.Runner.honest_inputs v))
    r.Runner.outputs

let test_determinism () =
  let go () =
    let r =
      run ~cfg:cfg_2d ~seed:33L
        ~policy:(Network.sync_uniform ~delta:10)
        ~corruptions:[ (5, Behavior.Silent) ]
        (grid_inputs 8 2)
    in
    List.map (fun (i, v) -> (i, Vec.to_list v)) r.Runner.outputs
  in
  Alcotest.(check bool) "bit-identical reruns" true (go () = go ())

(* --- Fixed_t mode (the known-bounds variant, E16) --- *)

let test_fixed_t_mode () =
  let inputs = grid_inputs 8 2 in
  let t_true = Baseline_runner.rounds_for ~eps:cfg_2d.Config.eps ~inputs in
  let engine =
    Engine.create ~seed:5L ~size_of:Message.size_of ~n:8
      ~policy:(Network.sync_uniform ~delta:10) ()
  in
  let parties =
    List.init 8 (fun i ->
        Party.attach
          ~opts:{ Party.default_opts with mode = Party.Fixed_t t_true }
          ~cfg:cfg_2d ~me:i engine)
  in
  List.iteri (fun i p -> Party.start p (List.nth inputs i)) parties;
  Engine.run engine;
  let outs = List.filter_map Party.output parties in
  Alcotest.(check int) "all output" 8 (List.length outs);
  Alcotest.(check bool) "agreement" true
    (Vec.diameter outs <= cfg_2d.Config.eps);
  List.iter
    (fun v ->
      Alcotest.(check bool) "validity" true
        (Membership.in_hull ~eps:1e-6 inputs v))
    outs;
  (* iteration 0 in this mode is the party's own input *)
  List.iter
    (fun p ->
      match Party.value_history p with
      | (0, v0) :: _ ->
          Alcotest.(check bool) "seeded from input" true
            (List.exists (fun i -> Vec.compare i v0 = 0) inputs)
      | _ -> Alcotest.fail "missing iteration 0")
    parties

let test_fixed_t_validation () =
  let engine = Engine.create ~n:8 ~policy:Network.instant () in
  let p =
    Party.attach
      ~opts:{ Party.default_opts with mode = Party.Fixed_t 0 }
      ~cfg:cfg_2d ~me:0 engine
  in
  Alcotest.check_raises "T >= 1 required"
    (Invalid_argument "Party.start: Fixed_t needs T >= 1") (fun () ->
      Party.start p (Vec.zero 2))

let test_party_start_validation () =
  let engine = Engine.create ~n:8 ~policy:Network.instant () in
  let p = Party.attach ~cfg:cfg_2d ~me:0 engine in
  Alcotest.check_raises "dimension check"
    (Invalid_argument "Party.start: wrong dimension") (fun () ->
      Party.start p (Vec.zero 3));
  Party.start p (Vec.zero 2);
  Alcotest.check_raises "double start"
    (Invalid_argument "Party.start: already started") (fun () ->
      Party.start p (Vec.zero 2))

(* --- the halt rule, message by message --- *)

(* One honest party 0 (n = 4, ts = 1, Δ = 1, started in [Fixed_t] mode so
   iteration 1 begins at once) on a hand-driven endpoint. The test plays
   parties 1–3: it delivers their rBC readies, three per instance (n − ts,
   enough to deliver), and their oBC reports, and it moves the clock. *)
let halt_cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:1 ~eps:0.01 ~delta:1

type driven = { party : Party.t; clock : int ref }

let driven_party ?callbacks () =
  let clock = ref 0 in
  let party =
    Party.attach_endpoint ?callbacks
      ~opts:{ Party.default_opts with mode = Party.Fixed_t 100 }
      ~cfg:halt_cfg
      {
        Transport.me = 0;
        n = 4;
        now = (fun () -> !clock);
        send_all = ignore;
        set_timer = (fun ~at:_ ~tag:_ -> ());
        register_flush = ignore;
        set_handler = ignore;
      }
  in
  Party.start party (Vec.of_list [ 0.5 ]);
  { party; clock }

let deliver_rbc d tag ~origin payload =
  List.iter
    (fun src ->
      Party.handle d.party
        (Transport.Deliver
           { src; msg = Message.Rbc ({ Message.tag; origin }, Message.Ready, payload) }))
    [ 1; 2; 3 ]

let halt d ~origin it = deliver_rbc d (Message.Halt it) ~origin (Message.Pint it)

(* Parties 1–3 all hold [x] in iteration [it], so the party adopts [x]. *)
let complete_iteration d it x =
  let v = Vec.of_list [ x ] in
  List.iter
    (fun origin -> deliver_rbc d (Message.Obc_value it) ~origin (Message.Pvec v))
    [ 1; 2; 3 ];
  List.iter
    (fun src ->
      Party.handle d.party
        (Transport.Deliver
           {
             src;
             msg = Message.Obc_report { iter = it; pairs = [ (1, v); (2, v); (3, v) ] };
           }))
    [ 1; 2; 3 ];
  d.clock := !(d.clock) + (Params.c_aa_it * halt_cfg.Config.delta) + 1;
  Party.handle d.party (Transport.Timer 0)

let check_halt_output name d expected =
  Alcotest.(check (option (pair int (float 0.))))
    name expected
    (match (Party.output_iteration d.party, Party.output d.party) with
    | Some it, Some v -> Some (it, Vec.get v 0)
    | _ -> None)

(* Only an origin's first halt counts, however low a later one is; a
   halt for iteration 0 names Πinit's value; equal iterations tie at the
   (ts + 1)-th smallest. *)
let test_halt_one_per_origin () =
  let d = driven_party () in
  halt d ~origin:3 7;
  halt d ~origin:3 0;
  halt d ~origin:3 (-5);
  check_halt_output "origin 3's later halts ignored" d None;
  halt d ~origin:2 0;
  check_halt_output "one halt below iteration 1" d None;
  halt d ~origin:1 0;
  check_halt_output "tie at 0: v0" d (Some (0, 0.5))

(* Halts at or above the current iteration wait until the party has
   passed them; then the (ts + 1)-th smallest below it names the value,
   not the smallest. *)
let test_halt_waits_for_iteration () =
  let d = driven_party () in
  halt d ~origin:1 2;
  halt d ~origin:2 3;
  check_halt_output "halts at 2 and 3 from iteration 1" d None;
  complete_iteration d 1 10.;
  check_halt_output "none below iteration 2" d None;
  complete_iteration d 2 20.;
  check_halt_output "one below iteration 3" d None;
  halt d ~origin:3 0;
  check_halt_output "halts 0 and 2 below 3: v2" d (Some (2, 20.));
  Alcotest.(check (list int))
    "iterations 0–2 adopted" [ 0; 1; 2 ]
    (List.map fst (Party.value_history d.party))

let test_halt_tie_at_current () =
  let d = driven_party () in
  List.iter (fun origin -> halt d ~origin 1) [ 1; 2; 3 ];
  check_halt_output "three halts at iteration 1, in iteration 1" d None;
  complete_iteration d 1 10.;
  check_halt_output "tie at 1: v1" d (Some (1, 10.))

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Recording a halt and re-running the halt rule allocate nothing: the
   vote that delivers each halt below is measured whole (the rBC layer's
   counting is allocation-free too), with none of the halts yet below the
   current iteration. *)
let test_halt_alloc_free () =
  let d = driven_party () in
  List.iter
    (fun origin ->
      let it = origin + 4 in
      let id = { Message.tag = Message.Halt it; origin } and p = Message.Pint it in
      let ready src = Transport.Deliver { src; msg = Message.Rbc (id, Message.Ready, p) } in
      Party.handle d.party (ready 1);
      Party.handle d.party (ready 2);
      let last = ready 3 in
      Alcotest.(check (float 0.))
        (Printf.sprintf "halt %d from %d words" it origin)
        0.
        (words (fun () -> Party.handle d.party last)))
    [ 1; 2; 3 ];
  check_halt_output "no halt below iteration 1" d None

(* Moving to the next iteration restarts the party's one oBC in place: it
   allocates only the new iteration's own broadcast — the [Pvec] box (2
   words), the [Obc_value] tag (2), the rBC id (3) and the [Rbc] message
   (4) — and its timers, which this endpoint ignores. Measured from the
   [on_iteration] callback, i.e. after the oBC output and the update rule,
   to the end of the event. *)
let test_transition_alloc () =
  let mark = ref nan in
  let on_iteration ~iter:_ _ = mark := Gc.minor_words () in
  let d = driven_party ~callbacks:{ Party.no_callbacks with on_iteration } () in
  (* the mark itself: a boxed float stored in [mark] *)
  let overhead =
    mark := Gc.minor_words ();
    Gc.minor_words () -. !mark
  in
  for it = 1 to 4 do
    mark := nan;
    complete_iteration d it (float_of_int (10 * it));
    let w = Gc.minor_words () -. !mark -. overhead in
    Alcotest.(check bool)
      (Printf.sprintf "transition %d -> %d: %.0f words <= 11" it (it + 1) w)
      true (w <= 11.)
  done

(* --- golden pins: ΠAA runs and Πinit alone --- *)

(* Every bit a run produces, for a seeded grid of ΠAA runs under each
   corruption that reaches ΠAA's internals: outputs and histories as hex
   floats, the T estimates, the message count and the run's safe-area
   memo hits and misses (which pin the sequence of update-rule calls).
   Inputs carry -0. components, so a change that swaps a signed zero for
   its twin shows. *)
let hex v = String.concat "," (List.map (Printf.sprintf "%h") (Vec.to_list v))

let golden_digest r =
  let outputs =
    List.map (fun (i, v) -> Printf.sprintf "%d:%s" i (hex v)) r.Runner.outputs
  and histories =
    List.map
      (fun (i, h) ->
        Printf.sprintf "%d:%s" i
          (String.concat "|"
             (List.map (fun (it, v) -> Printf.sprintf "%d=%s" it (hex v)) h)))
      r.Runner.histories
  and estimates =
    List.map (fun (i, t) -> Printf.sprintf "%d:%d" i t) r.Runner.t_estimates
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            String.concat ";" outputs;
            String.concat ";" histories;
            String.concat ";" estimates;
            Printf.sprintf "msgs=%d safe=%d/%d" r.Runner.stats.Engine.messages_sent
              r.Runner.caches.Runner.safe_hits r.Runner.caches.Runner.safe_misses;
          ]))

let golden_inputs n d =
  List.init n (fun i ->
      Vec.of_list
        (List.init d (fun c ->
             if (i + c) mod 3 = 0 then -0. else float_of_int ((i * (c + 2)) mod 5) /. 4.)))

let golden_runs () =
  List.concat_map
    (fun sync ->
      List.concat_map
        (fun d ->
          let n = d + 4 in
          let cfg = Config.make_exn ~n ~ts:1 ~ta:1 ~d ~eps:0.05 ~delta:10 in
          let far = Vec.of_list (List.init d (fun c -> if c = 0 then 40. else -0.)) in
          let other = Vec.of_list (List.init d (fun c -> float_of_int (-30 - c))) in
          List.map
            (fun (bname, b) ->
              let name =
                Printf.sprintf "%s d%d %s" (if sync then "sync" else "async") d bname
              in
              let r =
                if sync then
                  run ~cfg ~seed:(Int64.of_int (d + 40))
                    ~policy:(Network.sync_uniform ~delta:10)
                    ~corruptions:[ (1, b) ] (golden_inputs n d)
                else
                  run ~cfg ~seed:(Int64.of_int (d + 50))
                    ~policy:(Network.async_heavy_tail ~base:10)
                    ~sync_network:false ~corruptions:[ (1, b) ]
                    (golden_inputs n d)
              in
              (name, golden_digest r))
            [
              ("silent", Behavior.Silent);
              ("poison", Behavior.Honest_with_input far);
              ("equivocate", Behavior.Equivocate (far, other));
              ( "split",
                Behavior.Equivocate_split
                  { values = (other, far); assign = Array.init n (fun i -> i mod 2) } );
              ("halt liar", Behavior.Halt_liar 1);
              ("garbage", Behavior.Garbage 15);
            ])
        [ 1; 2; 3 ])
    [ true; false ]

(* Πinit in isolation (the E8 fixture), with and without double
   witnessing: every output and every estimation set, bit for bit. *)
let golden_init_runs () =
  List.concat_map
    (fun double_witnessing ->
      List.map
        (fun (pname, policy, seed) ->
          let n = 7 in
          let inputs = List.tl (List.combine (List.init n Fun.id) (golden_inputs n 2)) in
          let o =
            Fixtures.run_init ~seed ~double_witnessing ~n ~ts:2 ~ta:1 ~delta:10
              ~eps:0.01 ~policy ~inputs ()
          in
          let results =
            List.map
              (fun (i, tt, v, time) -> Printf.sprintf "%d:%d:%s@%d" i tt (hex v) time)
              (List.sort compare o.Fixtures.init_results)
          and estimations =
            List.map
              (fun (i, ie) ->
                Printf.sprintf "%d:{%s}" i
                  (String.concat ","
                     (List.map
                        (fun (p, v) -> Printf.sprintf "%d=%s" p (hex v))
                        (Pairset.bindings ie))))
              (List.sort compare o.Fixtures.init_estimations)
          in
          ( Printf.sprintf "init %s dw=%b" pname double_witnessing,
            Digest.to_hex
              (Digest.string
                 (String.concat ";" results ^ "\n" ^ String.concat ";" estimations)) ))
        [
          ("sync", Network.sync_uniform ~delta:10, 3L);
          ("async", Network.async_heavy_tail ~base:10, 4L);
        ])
    [ true; false ]

let golden_expected =
  [
    ("sync d1 silent", "4fc980d5ff46fefb2b62a04d567e0fe1");
    ("sync d1 poison", "344df8c98b909dbd1f974e41db53df34");
    ("sync d1 equivocate", "6abb1c04fe380e98050e69a4a80cc500");
    ("sync d1 split", "9c34e4142ee849f6eedce3732cb530e2");
    ("sync d1 halt liar", "068f811553c9176920edf39ccad7a5fc");
    ("sync d1 garbage", "0b2aefb37f93c399bdc593eb355e2679");
    ("sync d2 silent", "02e6f73fa8dd7d92a3388648f0efc125");
    ("sync d2 poison", "08fc660e2fc84068c677fe2c13157ce0");
    ("sync d2 equivocate", "23f8939adde04bd3769649d45d6f1f5f");
    ("sync d2 split", "bbd5fea52bba0a32e5fd08c602c32112");
    ("sync d2 halt liar", "d055fb864271a8d74f940b975a4ac067");
    ("sync d2 garbage", "31fdd35eab9f0d1e4af531f29885e4b9");
    ("sync d3 silent", "a0baa013af8abafd1ca885b7a67c0ea4");
    ("sync d3 poison", "6fd4d5a20448f7ad59a83a97874971d7");
    ("sync d3 equivocate", "32ff4b5e5fdcc89f8749f0b6b1c5b6c9");
    ("sync d3 split", "29e9a995774861154294755e3d1242b5");
    ("sync d3 halt liar", "d3ef8e07b571fe2b68476e3c1eed0a73");
    ("sync d3 garbage", "fbb210871c6af04b61ead9b42e7da968");
    ("async d1 silent", "fcb1ccd1ed2ed2af82aaa4a7caf97347");
    ("async d1 poison", "72da02061b4e6bb7f3455f541bccbd6a");
    ("async d1 equivocate", "e92e0df8b01c565a955da2ac44af102f");
    ("async d1 split", "73e25d7348f6e80fb10fdea393477a06");
    ("async d1 halt liar", "eab9ca486588c131a129039d2e559292");
    ("async d1 garbage", "0acebab243b3329aff35b43a3407d4fe");
    ("async d2 silent", "02e6f73fa8dd7d92a3388648f0efc125");
    ("async d2 poison", "b5418738cfeb91fcbd19e6ca5fcebba0");
    ("async d2 equivocate", "149ba0e2bd434e0b63b64f136b1a85f6");
    ("async d2 split", "aa3031e7d07eecd03d4a2d3ececae824");
    ("async d2 halt liar", "2bc687ccae27fd9dd6774c9d1019f2c7");
    ("async d2 garbage", "ddc86a43b8af9100993c4d6e484cd597");
    ("async d3 silent", "b0ae205d60dce0ed2217ae493adf1e2d");
    ("async d3 poison", "03e7c270ef229df9c6c41f27359cd443");
    ("async d3 equivocate", "2eb84e4132952579d287ac0b9ab5b457");
    ("async d3 split", "710b5c1768dff2ed67670cf2abeac3be");
    ("async d3 halt liar", "09fdd28a99d597de8802fe0a518074d4");
    ("async d3 garbage", "ec0de937528b3325dc9ef256b943e49c");
    ("init sync dw=true", "fb4dad57ad5c3e5bfd52f516d5d0b670");
    ("init async dw=true", "f17386fe529b0f11f0fb026f6ef52228");
    ("init sync dw=false", "fb4dad57ad5c3e5bfd52f516d5d0b670");
    ("init async dw=false", "13358fb77412556a17955289ba12d349");
  ]

let test_golden () =
  Alcotest.(check (list (pair string string)))
    "golden digests" golden_expected
    (golden_runs () @ golden_init_runs ())

(* --- property: random scenarios stay correct --- *)

let prop_random_scenarios =
  QCheck.Test.make ~name:"random sync scenarios satisfy D-AA" ~count:15
    QCheck.(pair (int_range 0 10000) (int_range 0 2))
    (fun (seed, n_corrupt) ->
      let rng = Rng.create (Int64.of_int (seed + 77)) in
      let inputs = Inputs.uniform_cube rng ~d:2 ~n:8 ~side:10. in
      let corruptions =
        List.init n_corrupt (fun i ->
            ( i * 3,
              if i mod 2 = 0 then Behavior.Silent
              else Behavior.Honest_with_input (Vec.of_list [ 1e4; -1e4 ]) ))
      in
      let r =
        run ~cfg:cfg_2d
          ~seed:(Int64.of_int seed)
          ~policy:(Network.sync_uniform ~delta:10)
          ~corruptions inputs
      in
      Runner.passed r)

let prop_random_async_scenarios =
  QCheck.Test.make ~name:"random async scenarios satisfy D-AA" ~count:10
    (QCheck.int_range 0 10000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 13)) in
      let inputs = Inputs.two_clusters rng ~d:2 ~n:8 ~separation:8. in
      let victim = seed mod 8 in
      let corrupt = (victim + 4) mod 8 in
      let r =
        run ~cfg:cfg_2d
          ~seed:(Int64.of_int seed)
          ~policy:
            (Network.async_starve ~victims:(fun i -> i = victim)
               ~release:(500 + (seed mod 400))
               ~fast:5)
          ~sync_network:false
          ~corruptions:[ (corrupt, Behavior.Silent) ]
          inputs
      in
      Runner.passed r)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "maaa"
    [
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "synchronous",
        [
          Alcotest.test_case "honest" `Quick test_sync_honest;
          Alcotest.test_case "ts poisoned" `Quick test_sync_poisoned;
          Alcotest.test_case "ts silent" `Quick test_sync_silent;
          Alcotest.test_case "crash mid-protocol" `Quick
            test_sync_crash_mid_protocol;
          Alcotest.test_case "equivocator" `Quick test_sync_equivocator;
          Alcotest.test_case "halt liars" `Quick test_sync_halt_liar;
          Alcotest.test_case "spam" `Quick test_sync_spam;
          Alcotest.test_case "mixed + rushing" `Quick test_sync_mixed_adversary;
        ] );
      ( "asynchronous",
        [
          Alcotest.test_case "starved honest party" `Quick
            test_async_starved_honest;
          Alcotest.test_case "heavy tail + poison" `Quick
            test_async_heavy_tail_poison;
        ] );
      ( "dimensions",
        [
          Alcotest.test_case "D = 1" `Quick test_d1;
          Alcotest.test_case "D = 3" `Quick test_d3;
        ] );
      ( "modes",
        [
          Alcotest.test_case "fixed T" `Quick test_fixed_t_mode;
          Alcotest.test_case "fixed T validation" `Quick test_fixed_t_validation;
          Alcotest.test_case "start validation" `Quick test_party_start_validation;
        ] );
      ( "halt rule",
        [
          Alcotest.test_case "one halt per origin" `Quick test_halt_one_per_origin;
          Alcotest.test_case "waits for the iteration" `Quick
            test_halt_waits_for_iteration;
          Alcotest.test_case "tie at the current iteration" `Quick
            test_halt_tie_at_current;
          Alcotest.test_case "recording a halt allocates nothing" `Quick
            test_halt_alloc_free;
          Alcotest.test_case "a transition allocates its broadcast" `Quick
            test_transition_alloc;
        ] );
      ( "quantitative",
        [
          Alcotest.test_case "contraction bound" `Quick test_contraction_bound;
          Alcotest.test_case "sync round count" `Quick test_sync_round_count;
          Alcotest.test_case "hull membership" `Quick
            test_validity_exact_hull_membership;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "golden: ΠAA grid and Πinit" `Quick test_golden;
        ] );
      ( "properties",
        q [ prop_random_scenarios; prop_random_async_scenarios ] );
    ]
