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

(* An echo or ready vote for a value an instance already has a slot for,
   that crosses no threshold, only flips a bit and bumps a counter: it
   must allocate nothing. Votes alternate between two instances so the
   lookup goes through the instance table rather than the last-id memo,
   and carry an equal but distinct payload so interning walks its
   bucket. *)
let test_vote_alloc_free () =
  let n = 7 and t = 2 in
  let sends = ref 0 in
  let rbc =
    Rbc.create ~n ~t
      { Rbc.send_all = (fun _ -> incr sends); deliver = (fun _ _ -> ()) }
  in
  let a = id 0 and b = id 1 in
  List.iter
    (fun i ->
      Rbc.on_message rbc ~from:1 i Message.Echo (pvec 1.);
      Rbc.on_message rbc ~from:1 i Message.Ready (pvec 1.))
    [ a; b ];
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, step) ->
      let v = pvec 1. in
      let w =
        words (fun () ->
            Rbc.on_message rbc ~from:2 a step v;
            Rbc.on_message rbc ~from:2 b step v)
      in
      Alcotest.(check (float 0.)) (name ^ " words") 0. w)
    [ ("echo", Message.Echo); ("ready", Message.Ready) ];
  Alcotest.(check int) "no threshold crossed" 0 !sends

(* A vote that creates an instance allocates only the id table's cell (4
   words) and its share of the table's doublings (two arrays per
   doubling: about 2 words per instance here); the instance's row is one
   that a finished instance gave back. Each of 4096 instances is created
   by an echo, measured, then run to delivery (init, echoes, readies),
   which retires it. The table's larger bucket arrays go straight to the
   major heap, so those words are counted over the whole loop: nothing
   else in it is that large. *)
let test_create_alloc () =
  let n = 4 and t = 1 and count = 4096 in
  let rbc =
    Rbc.create ~n ~t { Rbc.send_all = ignore; deliver = (fun _ _ -> ()) }
  in
  let ids =
    Array.init count (fun i -> { Message.tag = Message.Obc_value i; origin = 0 })
  and v = pvec 1. in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor = ref 0. and major = direct_major () in
  Array.iter
    (fun id ->
      let before = Gc.minor_words () in
      Rbc.on_message rbc ~from:1 id Message.Echo v;
      minor := !minor +. (Gc.minor_words () -. before);
      Rbc.on_message rbc ~from:0 id Message.Init v;
      List.iter
        (fun (from, step) -> Rbc.on_message rbc ~from id step v)
        [ (2, Message.Echo); (3, Message.Echo); (1, Message.Ready);
          (2, Message.Ready); (3, Message.Ready) ])
    ids;
  let per = (!minor +. direct_major () -. major) /. float_of_int count in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per created instance <= 7" per)
    true (per <= 7.)

(* --- stream differential against the seed Rbc_reference --- *)

(* An rBC value reacts only to its inputs ([broadcast], [on_message]) and
   speaks only through its callbacks ([send_all], [deliver]). So if, on
   every input stream, the interned path and Rbc_reference make callback
   calls that [compare] equal, a party built on either one runs
   identically, by induction over the engine's event order. The streams
   below are Byzantine: any sender votes for any payload on any of a few
   instances, equivocates and repeats itself. *)

(* Payloads [compare] partitions subtly: ±0 are one class, and so are
   all NaNs whatever their bits. [0. /. 0.] is a NaN with other bits than
   [Float.nan] on most platforms. *)
let stream_pool =
  let v l = Vec.of_list l in
  [|
    Message.Pvec (v [ 0. ]);
    Message.Pvec (v [ -0. ]);
    Message.Pvec (v [ Float.nan ]);
    Message.Pvec (v [ 0. /. 0. ]);
    Message.Pvec (v [ 1.; -0. ]);
    Message.Pvec (v [ 1.; 0. ]);
    Message.Pint 1;
    Message.Pparties [ 0; 1 ];
    Message.Ppairs [ (0, v [ -0. ]); (1, v [ Float.nan ]) ];
    Message.Ppairs [ (0, v [ 0. ]); (1, v [ 0. /. 0. ]) ];
  |]

(* A structurally equal payload in fresh memory, so the interner's
   physical-equality memo misses. *)
let copy_payload = function
  | Message.Pvec v -> Message.Pvec (Vec.of_array (Vec.to_array v))
  | Message.Ppairs ps ->
      Message.Ppairs
        (List.map (fun (p, v) -> (p, Vec.of_array (Vec.to_array v))) ps)
  | Message.Pint i -> Message.Pint i
  | Message.Pparties ps -> Message.Pparties (List.map Fun.id ps)

(* Πinit's two tags and 41 iterations of oBC values and halts, so a
   stream can touch many instances at once. *)
let stream_tags =
  Array.concat
    [
      [| Message.Init_value; Message.Init_report |];
      Array.init 41 (fun it -> Message.Obc_value it);
      Array.init 41 (fun it -> Message.Halt it);
    ]

type rbc_op =
  | Broadcast of { origin : int; tag : int; payload : int }
  | Msg of {
      from : int;
      origin : int;
      tag : int;
      step : Message.step;
      payload : int;
      fresh : bool;  (* a copy of the pool payload, not the pool object *)
    }
  | Again  (* the previous [Msg], delivered once more *)

type rbc_case = { n : int; ops : rbc_op list }

let step_name = function
  | Message.Init -> "init"
  | Message.Echo -> "echo"
  | Message.Ready -> "ready"

let print_rbc_op = function
  | Broadcast { origin; tag; payload } ->
      Printf.sprintf "broadcast %d/%d p%d" tag origin payload
  | Msg { from; origin; tag; step; payload; fresh } ->
      Printf.sprintf "%d: %s %d/%d p%d%s" from (step_name step) tag origin
        payload (if fresh then "'" else "")
  | Again -> "again"

let print_rbc_case c =
  Printf.sprintf "n=%d [%s]" c.n
    (String.concat "; " (List.map print_rbc_op c.ops))

(* Per case: one or two live instances, and a favourite payload that
   most votes carry, drawn from the ±0 / NaN classes, so votes pile up on
   one class and the t + 1 and n − t thresholds are crossed. A third of
   the cases are wide instead: every origin, 12–24 tags and a long stream,
   so dozens of instances are live at once and the vote rows must grow. *)
let gen_rbc_case =
  let open QCheck.Gen in
  let* n = int_range 4 8 in
  let* wide = frequencyl [ (2, false); (1, true) ] in
  let* origins =
    if wide then return (List.init n Fun.id)
    else list_size (int_range 1 2) (int_bound (n - 1))
  in
  let* tags =
    list_size
      (if wide then int_range 12 24 else int_range 1 2)
      (int_bound (Array.length stream_tags - 1))
  in
  let* favourite = int_bound 3 in
  let payload =
    frequency
      [
        (3, return favourite);
        (* the favourite's ±0 / NaN twin *)
        (2, return (favourite lxor 1));
        (1, int_bound (Array.length stream_pool - 1));
      ]
  in
  let origin = oneofl origins and tag = oneofl tags in
  let msg step =
    let* from = int_bound (n - 1) in
    let* origin = origin and* tag = tag and* payload = payload in
    let* fresh = bool in
    return (Msg { from; origin; tag; step; payload; fresh })
  in
  let op =
    frequency
      [
        ( 1,
          let* origin = origin and* tag = tag and* payload = payload in
          return (Broadcast { origin; tag; payload }) );
        (1, msg Message.Init);
        (4, msg Message.Echo);
        (5, msg Message.Ready);
        (1, return Again);
      ]
  in
  let* ops =
    list_size
      (if wide then int_range (24 * n) (40 * n) else int_range n (8 * n))
      op
  in
  return { n; ops }

let arb_rbc_case =
  QCheck.make ~print:print_rbc_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    gen_rbc_case

type rbc_event =
  | Sent of Message.t
  | Delivered of Message.rbc_id * Message.payload

(* Feeds one stream to one implementation, given as its [broadcast] and
   [on_message] over the logging callbacks; returns the callback log. *)
let rbc_log c make =
  let log = ref [] in
  let broadcast, on_message =
    make ~n:c.n ~t:((c.n - 1) / 3)
      {
        Rbc.send_all = (fun m -> log := Sent m :: !log);
        deliver = (fun id p -> log := Delivered (id, p) :: !log);
      }
  in
  let id origin tag = { Message.tag = stream_tags.(tag); origin } in
  let last = ref None in
  let deliver = function
    | Msg { from; origin; tag; step; payload; fresh } ->
        let p = stream_pool.(payload) in
        on_message ~from (id origin tag) step
          (if fresh then copy_payload p else p)
    | Broadcast _ | Again -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Broadcast { origin; tag; payload } ->
          broadcast (id origin tag) stream_pool.(payload)
      | Msg _ ->
          last := Some op;
          deliver op
      | Again -> Option.iter deliver !last)
    c.ops;
  List.rev !log

let interned_rbc ~n ~t cb =
  let r = Rbc.create ~n ~t cb in
  (Rbc.broadcast r, Rbc.on_message r)

let reference_rbc ~n ~t cb =
  let r = Rbc_reference.create ~n ~t cb in
  (Rbc_reference.broadcast r, Rbc_reference.on_message r)

let rbc_cases = ref 0
let rbc_delivering = ref 0
let rbc_wide = ref 0  (* cases with >= 64 instances that never deliver *)
let rbc_multi = ref 0  (* cases with >= 3 payloads voted on one instance *)

(* An instance that never delivers is never retired, so it holds its row
   to the end: 64 of them force the rows to double from 16 at least
   twice. Payloads are told apart as the interner does. *)
let coverage c log =
  let touched = Hashtbl.create 64 and payloads = Hashtbl.create 64 in
  let classes = Intern.create () in
  List.iter
    (function
      | Msg { origin; tag; step; payload; _ } ->
          Hashtbl.replace touched (origin, tag) ();
          if step <> Message.Init then
            Hashtbl.replace payloads
              (origin, tag, Intern.intern classes stream_pool.(payload))
              ()
      | Broadcast _ | Again -> ())
    c.ops;
  let delivered =
    List.length
      (List.filter (function Delivered _ -> true | Sent _ -> false) log)
  in
  let per_instance = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (o, t, _) () ->
      Hashtbl.replace per_instance (o, t)
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_instance (o, t))))
    payloads;
  ( Hashtbl.length touched - delivered >= 64,
    Hashtbl.fold (fun _ k acc -> acc || k >= 3) per_instance false )

let prop_rbc_stream =
  QCheck.Test.make ~name:"interned = Rbc_reference" ~count:500
    arb_rbc_case (fun c ->
      let a = rbc_log c interned_rbc in
      let b = rbc_log c reference_rbc in
      incr rbc_cases;
      if List.exists (function Delivered _ -> true | Sent _ -> false) b then
        incr rbc_delivering;
      let wide, multi = coverage c b in
      if wide then incr rbc_wide;
      if multi then incr rbc_multi;
      compare a b = 0)

(* The property, plus floors on what its streams cover: a generator that
   never crossed the n − t ready threshold would leave delivery untested,
   one that kept few instances live would never grow the vote rows, and
   one that never split an instance's votes three ways would test only
   the honest and the plain equivocating chain. *)
let test_rbc_stream =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_rbc_stream in
  Alcotest.test_case name speed (fun () ->
      rbc_cases := 0;
      rbc_delivering := 0;
      rbc_wide := 0;
      rbc_multi := 0;
      run ();
      List.iter
        (fun (what, k, pct) ->
          Alcotest.(check bool)
            (Printf.sprintf "%d of %d cases %s (>= %d%%)" k !rbc_cases what pct)
            true
            (100 * k >= pct * !rbc_cases))
        [
          ("deliver", !rbc_delivering, 25);
          ("keep >= 64 instances live", !rbc_wide, 10);
          ("vote >= 3 payloads on one instance", !rbc_multi, 10);
        ])


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
          Alcotest.test_case "vote without send allocates nothing" `Quick
            test_vote_alloc_free;
          Alcotest.test_case "creating an instance allocates its cell" `Quick
            test_create_alloc;
        ] );
      ("differential", [ test_rbc_stream ]);
    ]
