(* Tests for Bracha reliable broadcast against the properties of
   Definition 4.1 / Theorem 4.2. *)

let tag = Message.Init_value
let id origin = { Message.tag; origin }
let pvec x = Message.Pvec (Vec.of_list [ x ])

type fixture = {
  engine : Message.t Engine.t;
  rbcs : Rbc.t option array;
  deliveries : (int * Message.rbc_id * Message.payload * int) list ref;
      (* (party, instance, payload, time) *)
}

(* Wire an honest rBC stack for every party in [honest]. *)
let make_fixture ?(seed = 1L) ~n ~t ~policy ~honest () =
  let engine = Engine.create ~seed ~n ~policy () in
  let deliveries = ref [] in
  let rbcs = Array.make n None in
  List.iter
    (fun i ->
      let rbc =
        Rbc.create ~n ~t
          {
            Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
            deliver =
              (fun id payload ->
                deliveries := (i, id, payload, Engine.now engine) :: !deliveries);
          }
      in
      rbcs.(i) <- Some rbc;
      Engine.set_party engine i (fun ev ->
          match ev with
          | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
              Rbc.on_message rbc ~from:src id step payload
          | _ -> ()))
    honest;
  { engine; rbcs; deliveries }

let delivered_to f party =
  List.filter_map
    (fun (p, _, payload, time) -> if p = party then Some (payload, time) else None)
    !(f.deliveries)

let test_honest_liveness_3delta () =
  let delta = 10 in
  let honest = [ 0; 1; 2; 3 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:(Network.lockstep ~delta) ~honest () in
  Rbc.broadcast (Option.get f.rbcs.(0)) (id 0) (pvec 7.);
  Engine.run f.engine;
  List.iter
    (fun p ->
      match delivered_to f p with
      | [ (payload, time) ] ->
          Alcotest.(check bool) "value" true (payload = pvec 7.);
          Alcotest.(check bool)
            (Printf.sprintf "party %d within c_rBC * delta" p)
            true
            (time <= Params.c_rbc * delta)
      | l -> Alcotest.failf "party %d: %d deliveries" p (List.length l))
    honest

let test_validity_no_other_value () =
  let honest = [ 0; 1; 2; 3 ] in
  let f =
    make_fixture ~n:4 ~t:1 ~policy:(Network.sync_uniform ~delta:5) ~honest ()
  in
  Rbc.broadcast (Option.get f.rbcs.(1)) (id 1) (pvec 3.);
  Engine.run f.engine;
  List.iter
    (fun (_, _, payload, _) ->
      Alcotest.(check bool) "only the sender's value" true (payload = pvec 3.))
    !(f.deliveries)

(* An equivocating sender: conflicting Init messages to the two halves plus
   echoes for both values. Consistency must still hold. *)
let equivocate f ~me ~va ~vb =
  let n = Engine.n f.engine in
  for dst = 0 to n - 1 do
    let v = if dst < n / 2 then va else vb in
    Engine.send f.engine ~src:me ~dst (Message.Rbc (id me, Message.Init, v))
  done;
  (* echo both values to everyone, trying to tip both over the threshold *)
  List.iter
    (fun v ->
      Engine.broadcast f.engine ~src:me (Message.Rbc (id me, Message.Echo, v)))
    [ va; vb ]

let test_consistency_under_equivocation () =
  (* try several schedules: consistency must hold in every one *)
  List.iter
    (fun seed ->
      let honest = [ 0; 1; 2 ] in
      let f =
        make_fixture ~seed ~n:4 ~t:1
          ~policy:(Network.sync_uniform ~delta:8)
          ~honest ()
      in
      equivocate f ~me:3 ~va:(pvec 1.) ~vb:(pvec 2.);
      Engine.run f.engine;
      let values =
        List.sort_uniq compare
          (List.map (fun (_, _, payload, _) -> payload) !(f.deliveries))
      in
      Alcotest.(check bool)
        (Printf.sprintf "at most one value delivered (seed %Ld)" seed)
        true
        (List.length values <= 1))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L ]

let test_no_delivery_without_sender () =
  let honest = [ 0; 1; 2; 3 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:Network.instant ~honest () in
  (* nobody broadcasts; a single echo from a corrupt party is far below
     any threshold *)
  Engine.send f.engine ~src:2 ~dst:0 (Message.Rbc (id 2, Message.Echo, pvec 9.));
  Engine.run f.engine;
  Alcotest.(check int) "no deliveries" 0 (List.length !(f.deliveries))

let test_init_only_from_origin () =
  let honest = [ 0; 1; 2; 3 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:Network.instant ~honest () in
  (* party 2 tries to initiate *party 3's* instance; honest parties must
     ignore the forged Init (channels are authenticated) *)
  Engine.broadcast f.engine ~src:2 (Message.Rbc (id 3, Message.Init, pvec 5.));
  Engine.run f.engine;
  Alcotest.(check int) "no deliveries" 0 (List.length !(f.deliveries))

let test_conditional_liveness_gap () =
  (* all honest participate; with an honest sender every delivery gap is at
     most c'_rBC * delta even under adversarial-but-synchronous delays *)
  let delta = 10 in
  let honest = [ 0; 1; 2; 3; 4; 5; 6 ] in
  let f =
    make_fixture ~n:7 ~t:2
      ~policy:(Network.sync_uniform ~delta)
      ~honest ()
  in
  Rbc.broadcast (Option.get f.rbcs.(0)) (id 0) (pvec 1.);
  Engine.run f.engine;
  let times = List.map (fun (_, _, _, time) -> time) !(f.deliveries) in
  Alcotest.(check int) "everyone delivered" 7 (List.length times);
  let lo = List.fold_left min max_int times
  and hi = List.fold_left max 0 times in
  Alcotest.(check bool) "gap within c'_rBC * delta" true
    (hi - lo <= Params.c_rbc' * delta)

let test_liveness_with_crashes () =
  (* t parties crash-silent: the rest still deliver an honest broadcast *)
  let honest = [ 0; 1; 2; 3; 4 ] in
  (* parties 5, 6 absent *)
  let f =
    make_fixture ~n:7 ~t:2 ~policy:(Network.sync_uniform ~delta:5) ~honest ()
  in
  Rbc.broadcast (Option.get f.rbcs.(0)) (id 0) (pvec 4.);
  Engine.run f.engine;
  Alcotest.(check int) "5 deliveries" 5 (List.length !(f.deliveries))

let test_multiple_instances () =
  let honest = [ 0; 1; 2; 3 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:Network.instant ~honest () in
  Rbc.broadcast (Option.get f.rbcs.(0)) (id 0) (pvec 1.);
  Rbc.broadcast (Option.get f.rbcs.(1)) (id 1) (pvec 2.);
  Rbc.broadcast
    (Option.get f.rbcs.(0))
    { Message.tag = Message.Halt 3; origin = 0 }
    (Message.Pint 3);
  Engine.run f.engine;
  (* 4 parties x 3 instances *)
  Alcotest.(check int) "12 deliveries" 12 (List.length !(f.deliveries));
  let p0 = delivered_to f 0 in
  Alcotest.(check int) "3 at party 0" 3 (List.length p0)

let test_ready_amplification () =
  (* t + 1 ready votes alone (no Init, no Echo) must trigger a party's own
     ready, cascading to delivery — the amplification path of Bracha. *)
  let honest = [ 0; 1 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:Network.instant ~honest () in
  (* two corrupt parties send ready(v) to everyone *)
  List.iter
    (fun c ->
      Engine.broadcast f.engine ~src:c (Message.Rbc (id 3, Message.Ready, pvec 8.)))
    [ 2; 3 ];
  Engine.run f.engine;
  (* each honest party: 2 corrupt readys -> amplifies -> 2 corrupt + 2
     honest readys >= n - t -> delivers *)
  Alcotest.(check int) "both honest delivered" 2 (List.length !(f.deliveries));
  List.iter
    (fun (_, _, payload, _) ->
      Alcotest.(check bool) "amplified value" true (payload = pvec 8.))
    !(f.deliveries)

let test_duplicate_votes_ignored () =
  (* a corrupt party repeating its echo many times must not reach the
     n - t echo threshold alone *)
  let honest = [ 0; 1; 2 ] in
  let f = make_fixture ~n:4 ~t:1 ~policy:Network.instant ~honest () in
  for _ = 1 to 10 do
    Engine.broadcast f.engine ~src:3 (Message.Rbc (id 3, Message.Echo, pvec 1.))
  done;
  Engine.run f.engine;
  Alcotest.(check int) "no delivery from repeated votes" 0
    (List.length !(f.deliveries))

let test_threshold_validation () =
  Alcotest.check_raises "n > 3t required"
    (Invalid_argument "Rbc.create: requires n > 3t") (fun () ->
      ignore
        (Rbc.create ~n:6 ~t:2
           { Rbc.send_all = ignore; deliver = (fun _ _ -> ()) }))

let () =
  Alcotest.run "rbc"
    [
      ( "bracha",
        [
          Alcotest.test_case "honest liveness within 3 delta" `Quick
            test_honest_liveness_3delta;
          Alcotest.test_case "validity" `Quick test_validity_no_other_value;
          Alcotest.test_case "consistency under equivocation" `Quick
            test_consistency_under_equivocation;
          Alcotest.test_case "no delivery without sender" `Quick
            test_no_delivery_without_sender;
          Alcotest.test_case "init only from origin" `Quick
            test_init_only_from_origin;
          Alcotest.test_case "conditional liveness gap" `Quick
            test_conditional_liveness_gap;
          Alcotest.test_case "liveness with crashes" `Quick
            test_liveness_with_crashes;
          Alcotest.test_case "multiple instances" `Quick test_multiple_instances;
          Alcotest.test_case "ready amplification" `Quick
            test_ready_amplification;
          Alcotest.test_case "duplicate votes ignored" `Quick
            test_duplicate_votes_ignored;
          Alcotest.test_case "threshold validation" `Quick
            test_threshold_validation;
        ] );
    ]
