(* Πinit in isolation: the flat-array implementation against the seed
   Pairset/Map one (Init_reference) on Byzantine input streams, and the
   allocation-free paths of its event handlers. *)

(* --- stream differential against the seed Πinit --- *)

(* A Πinit instance reacts only to its inputs ([start], [on_value],
   [on_report], [on_witness_set], [poke]) and the clock, and speaks only
   through its callbacks and its safe-area cache. So if, on every input
   stream under one fake clock, both implementations make the same
   callback calls, bit for bit, and the same cache lookups, a party built
   on either one runs identically. The streams are Byzantine: values race
   the deadlines, reports come before the values they name, lie, repeat
   parties and name parties out of range, witness sets do the same, and
   senders repeat themselves. *)

(* Per dimension, a pool of values: 2k and 2k + 1 compare equal, as ±0
   twins (same id, other bits) or as equal-but-distinct vectors; 6 and 7
   are lies. *)
let pool d =
  Array.map Vec.of_list
    (if d = 1 then
       [| [ 0. ]; [ -0. ]; [ 1.5 ]; [ 1.5 ]; [ -2. ]; [ -2. ]; [ 4. ]; [ 0.25 ] |]
     else
       [| [ 0.; 0. ]; [ -0.; 0. ]; [ 1.; -0. ]; [ 1.; 0. ]; [ -2.; 3. ]; [ -2.; 3. ];
          [ 4.; -1. ]; [ 0.5; 0.5 ] |])

type op =
  | Start of int
  | Value of { origin : int; value : int; fresh : bool }
  | Report of { origin : int; pairs : (int * int) list }
      (* party (maybe out of range or repeated), value index *)
  | Wset of { from : int; parties : int list }
  | Tick of int
  | Poke

type case = {
  n : int;
  d : int;
  ts : int;
  ta : int;
  delta : int;
  double_witnessing : bool;
  ops : op list;
}

let print_op = function
  | Start v -> Printf.sprintf "start v%d" v
  | Value { origin; value; fresh } ->
      Printf.sprintf "value %d v%d%s" origin value (if fresh then "'" else "")
  | Report { origin; pairs } ->
      Printf.sprintf "%d: report {%s}" origin
        (String.concat ","
           (List.map (fun (p, v) -> Printf.sprintf "%d:v%d" p v) pairs))
  | Wset { from; parties } ->
      Printf.sprintf "%d: witnesses {%s}" from
        (String.concat "," (List.map string_of_int parties))
  | Tick k -> Printf.sprintf "tick %d" k
  | Poke -> "poke"

let print_case c =
  Printf.sprintf "n=%d d=%d ts=%d ta=%d delta=%d dw=%b [%s]" c.n c.d c.ts c.ta
    c.delta c.double_witnessing
    (String.concat "; " (List.map print_op c.ops))

(* Each party has a true value, delivered and reported as itself or its
   twin, so most reports and witness sets verify; the rest lie, drop
   parties, repeat a party or name one out of range. *)
let gen_case =
  let open QCheck.Gen in
  let* n = int_range 4 8 and* d = int_range 1 2 in
  let feasible =
    List.concat_map
      (fun ts ->
        List.filter_map
          (fun ta -> if ((d + 1) * ts) + ta < n then Some (ts, ta) else None)
          (List.init (ts + 1) Fun.id))
      (List.init ((n - 1) / 3) (fun i -> i + 1))
  in
  let* ts, ta = oneofl feasible in
  let* delta = int_range 1 3 and* double_witnessing = bool in
  let* truth = array_repeat n (int_bound 2) in
  let true_value p = 2 * truth.(p) in
  let any_value = int_bound 7 in
  let twin p = frequency [ (2, return (true_value p)); (1, return (true_value p lxor 1)) ] in
  let value_of p = frequency [ (18, twin p); (1, any_value) ] in
  let party = int_bound (n - 1) in
  let junk_party = frequency [ (1, party); (3, oneofl [ -1; n; n + 3 ]) ] in
  let with_junk listed junk =
    let* junk_first = bool in
    return (if junk_first then junk @ listed else listed @ junk)
  in
  let report ~liar origin =
    let entry p =
      let* keep = frequencyl [ (19, true); (1, false) ] in
      if not keep then return []
      else map (fun v -> [ (p, v) ]) (if liar then value_of p else twin p)
    in
    let* listed = flatten_l (List.init n entry) in
    let* junk = list_size (int_bound 2) (pair junk_party any_value) in
    let* pairs = with_junk (List.concat listed) junk in
    return (Report { origin; pairs })
  in
  let wset from =
    let* listed =
      flatten_l
        (List.init n (fun p -> map (fun keep -> if keep then [ p ] else [])
                                 (frequencyl [ (12, true); (1, false) ])))
    in
    let* junk = list_size (int_bound 2) junk_party in
    let* parties = with_junk (List.concat listed) junk in
    return (Wset { from; parties })
  in
  let value origin =
    let* value = value_of origin and* fresh = bool in
    return (Value { origin; value; fresh })
  in
  let op =
    frequency
      [
        (2, map (fun v -> Start v) any_value);
        (4, party >>= value);
        ( 4,
          let* origin = party and* liar = frequencyl [ (7, false); (1, true) ] in
          report ~liar origin );
        (3, party >>= wset);
        (3, map (fun k -> Tick k) (int_bound (3 * delta)));
        (1, return Poke);
      ]
  in
  (* Three streams in four carry a backbone: a start, then one value,
     one truthful report and one witness set per party and enough ticks
     to pass every deadline, shuffled into the noise, so the output
     threshold is reached often. The rest start, if at all, in the
     noise. *)
  let* backbone =
    let* on = frequencyl [ (3, true); (1, false) ] in
    if not on then return []
    else
      flatten_l
        (List.init n value
        @ List.init n (report ~liar:false)
        @ List.init n wset
        @ List.init 16 (fun _ -> return (Tick delta)))
  in
  let* start = if backbone = [] then return [] else map (fun v -> [ Start v ]) any_value in
  let* noise = list_size (int_range n (6 * n)) op in
  let* ops = shuffle_l (backbone @ noise) in
  return { n; d; ts; ta; delta; double_witnessing; ops = start @ ops }

let arb_case =
  QCheck.make ~print:print_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    gen_case

type impl = {
  start : Vec.t -> unit;
  on_value : origin:int -> Vec.t -> unit;
  on_report : origin:int -> (int * Vec.t) list -> unit;
  on_witness_set : from:int -> int list -> unit;
  poke : unit -> unit;
  estimations : unit -> Pairset.t;
}

let hex v = String.concat "," (List.map (Printf.sprintf "%h") (Vec.to_list v))

let show_pairs pairs =
  String.concat ";" (List.map (fun (p, v) -> Printf.sprintf "%d=%s" p (hex v)) pairs)

let show_payload = function
  | Message.Pvec v -> "vec " ^ hex v
  | Message.Ppairs pairs -> "pairs " ^ show_pairs pairs
  | _ -> "other payload"

(* Feeds one stream to one implementation under a fake clock; returns
   the callback log in hex floats, with any exception an input raised,
   then I_e and the safe-area lookups. *)
let run_log c make =
  let log = ref [] and clock = ref 0 in
  let add e = log := e :: !log in
  let cache = Safe_cache.create () in
  let impl =
    make ~double_witnessing:c.double_witnessing ~safe_cache:cache ~n:c.n ~ts:c.ts
      ~ta:c.ta ~delta:c.delta ~eps:0.01
      {
        Init_round.now = (fun () -> !clock);
        set_timer = (fun ~at -> add (Printf.sprintf "timer %d" at));
        rbc_broadcast =
          (fun tag p ->
            add
              (Printf.sprintf "rbc %s %s"
                 (if tag = Message.Init_value then "value" else "report")
                 (show_payload p)));
        send_all =
          (function
          | Message.Witness_set { parties } ->
              add ("witnesses " ^ String.concat "," (List.map string_of_int parties))
          | _ -> add "other message");
        output = (fun tt v0 -> add (Printf.sprintf "output T=%d %s" tt (hex v0)));
      }
  in
  let values = pool c.d in
  let vec i fresh =
    if fresh then Vec.of_array (Vec.to_array values.(i)) else values.(i)
  in
  List.iter
    (fun op ->
      try
        match op with
        | Start v -> impl.start values.(v)
        | Value { origin; value; fresh } -> impl.on_value ~origin (vec value fresh)
        | Report { origin; pairs } ->
            impl.on_report ~origin (List.map (fun (p, v) -> (p, vec v true)) pairs)
        | Wset { from; parties } -> impl.on_witness_set ~from parties
        | Tick k -> clock := !clock + k
        | Poke -> impl.poke ()
      with e -> add ("raised " ^ Printexc.to_string e))
    c.ops;
  add ("I_e " ^ show_pairs (Pairset.bindings (impl.estimations ())));
  add (Printf.sprintf "cache %d/%d" (Safe_cache.hits cache) (Safe_cache.misses cache));
  List.rev !log

let interned ~double_witnessing ~safe_cache ~n ~ts ~ta ~delta ~eps cb =
  let i = Init_round.create ~double_witnessing ~safe_cache ~n ~ts ~ta ~delta ~eps cb in
  {
    start = Init_round.start i;
    on_value = Init_round.on_value i;
    on_report = Init_round.on_report i;
    on_witness_set = Init_round.on_witness_set i;
    poke = (fun () -> Init_round.poke i);
    estimations = (fun () -> Init_round.estimations i);
  }

let reference ~double_witnessing ~safe_cache ~n ~ts ~ta ~delta ~eps cb =
  let i =
    Init_reference.create ~double_witnessing ~safe_cache ~n ~ts ~ta ~delta ~eps cb
  in
  {
    start = Init_reference.start i;
    on_value = Init_reference.on_value i;
    on_report = Init_reference.on_report i;
    on_witness_set = Init_reference.on_witness_set i;
    poke = (fun () -> Init_reference.poke i);
    estimations = (fun () -> Init_reference.estimations i);
  }

let cases = ref 0
let outputs = ref 0

let prop_stream =
  QCheck.Test.make ~name:"interned = Init_reference" ~count:400 arb_case
    (fun c ->
      let a = run_log c interned and b = run_log c reference in
      incr cases;
      if List.exists (fun e -> String.starts_with ~prefix:"output" e) b then
        incr outputs;
      a = b)

(* The property, plus a floor on how often its streams output: a
   generator that never reached the output guard would leave the
   estimation and both witness checks half tested. *)
let test_stream =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_stream in
  Alcotest.test_case name speed (fun () ->
      cases := 0;
      outputs := 0;
      run ();
      Alcotest.(check bool)
        (Printf.sprintf "%d of %d cases output (>= 25%%)" !outputs !cases)
        true
        (4 * !outputs >= !cases))

(* --- allocation --- *)

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Nothing verifies, so nothing may allocate: a poke with a report
   pending, a first report and a first witness set that stay pending,
   and repeats from senders already seen. The vectors are interned
   before the measurement (values 0 and 1 are in M); party 2's value
   never arrives, so no report naming it verifies, and no witness set
   does while there are no witnesses. *)
let test_alloc_free () =
  let n = 4 in
  let sends = ref 0 in
  let init =
    Init_round.create ~n ~ts:1 ~ta:0 ~delta:10 ~eps:0.01
      {
        Init_round.now = (fun () -> 0);
        set_timer = (fun ~at:_ -> ());
        rbc_broadcast = (fun _ _ -> incr sends);
        send_all = (fun _ -> incr sends);
        output = (fun _ _ -> incr sends);
      }
  in
  let a = Vec.of_list [ 1.; 2. ] and b = Vec.of_list [ 3.; -0. ] in
  Init_round.start init a;
  Init_round.on_value init ~origin:0 a;
  Init_round.on_value init ~origin:1 b;
  let pending = [ (0, a); (1, b); (2, a) ] in
  Init_round.on_report init ~origin:2 pending;
  let unseen = [ (0, a); (2, b); (1, b); (9, a) ] and ws = [ 0; 1; 2; 2; -1 ] in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) (name ^ " words") 0. (words f))
    [
      ("poke", fun () -> Init_round.poke init);
      ("first report", fun () -> Init_round.on_report init ~origin:3 unseen);
      ("repeated report", fun () -> Init_round.on_report init ~origin:2 pending);
      ("first witness set", fun () -> Init_round.on_witness_set init ~from:1 ws);
      ("repeated witness set", fun () -> Init_round.on_witness_set init ~from:1 ws);
    ];
  Alcotest.(check int) "one send: our own value" 1 !sends;
  Alcotest.(check int) "no witness" 0 (Pairset.cardinal (Init_round.estimations init))

let () =
  Alcotest.run "init"
    [
      ( "allocation",
        [ Alcotest.test_case "nothing verified allocates nothing" `Quick test_alloc_free ] );
      ("differential", [ test_stream ]);
    ]
