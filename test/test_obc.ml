(* Tests for Overlap All-to-All Broadcast against Definition 4.3 /
   Theorem 4.4. *)

let vec1 x = Vec.of_list [ x ]

type fixture = {
  engine : Message.t Engine.t;
  obcs : (int * Obc.t) list ref;
  outputs : (int * Pairset.t * int) list ref;  (* (party, set, time) *)
}

(* An honest ΠoBC party: an rBC mux plus one oBC instance for iteration 1. *)
let wire_party f ~n ~ts ~delta i =
  let engine = f.engine in
  let obc_ref = ref None in
  let rbc_ref = ref None in
  let rbc =
    Rbc.create ~n ~t:ts
      {
        Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
        deliver =
          (fun id payload ->
            match (id.Message.tag, payload) with
            | Message.Obc_value 1, Message.Pvec v ->
                Obc.on_value (Option.get !obc_ref) ~origin:id.Message.origin v
            | _ -> ());
      }
  in
  rbc_ref := Some rbc;
  let obc =
    Obc.create ~n ~ts ~delta ~iter:1
      {
        Obc.now = (fun () -> Engine.now engine);
        set_timer =
          (fun ~at -> Engine.set_timer engine ~party:i ~at ~tag:0);
        rbc_broadcast =
          (fun payload ->
            Rbc.broadcast rbc
              { Message.tag = Message.Obc_value 1; origin = i }
              payload);
        send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
        output =
          (fun parties values ->
            let pairs = Array.(to_list (combine parties values)) in
            f.outputs :=
              (i, Pairset.of_bindings pairs, Engine.now engine) :: !(f.outputs));
      }
  in
  obc_ref := Some obc;
  Engine.set_party engine i (fun ev ->
      match ev with
      | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
          Rbc.on_message rbc ~from:src id step payload
      | Engine.Deliver { src; msg = Message.Obc_report { iter = 1; pairs; _ } } ->
          Obc.on_report obc ~from:src pairs
      | Engine.Timer _ -> Obc.poke obc
      | Engine.Deliver _ -> ());
  f.obcs := (i, obc) :: !(f.obcs);
  obc

let make ?(seed = 1L) ~n ~ts ~delta ~policy ~honest () =
  let engine = Engine.create ~seed ~n ~policy () in
  let f = { engine; obcs = ref []; outputs = ref [] } in
  let handles = List.map (fun i -> (i, wire_party f ~n ~ts ~delta i)) honest in
  (f, handles)

let output_of f p =
  List.find_map
    (fun (i, m, time) -> if i = p then Some (m, time) else None)
    !(f.outputs)

let test_sync_all_honest () =
  let n = 5 and ts = 1 and delta = 10 in
  let f, handles =
    make ~n ~ts ~delta ~policy:(Network.lockstep ~delta) ~honest:[ 0; 1; 2; 3; 4 ] ()
  in
  List.iter (fun (i, obc) -> Obc.start obc (vec1 (float_of_int i))) handles;
  Engine.run f.engine;
  List.iter
    (fun (i, _) ->
      match output_of f i with
      | None -> Alcotest.failf "party %d: no output" i
      | Some (m, time) ->
          (* Synchronized Liveness: by c_oBC * delta *)
          Alcotest.(check bool) "by 5 delta" true (time <= (Params.c_obc * delta) + 2);
          (* Synchronized Overlap: all honest values present and correct *)
          List.iter
            (fun j ->
              match Pairset.find_party j m with
              | Some v ->
                  Alcotest.(check bool) "correct value" true
                    (Vec.compare v (vec1 (float_of_int j)) = 0)
              | None -> Alcotest.failf "party %d missing value of %d" i j)
            [ 0; 1; 2; 3; 4 ])
    handles

let test_sync_with_silent_corrupt () =
  let n = 5 and ts = 1 and delta = 10 in
  let honest = [ 0; 1; 2; 3 ] in
  let f, handles =
    make ~n ~ts ~delta ~policy:(Network.lockstep ~delta) ~honest ()
  in
  List.iter (fun (i, obc) -> Obc.start obc (vec1 (float_of_int i))) handles;
  Engine.run f.engine;
  List.iter
    (fun (i, _) ->
      match output_of f i with
      | None -> Alcotest.failf "party %d: no output" i
      | Some (m, _) ->
          Alcotest.(check bool) "at least n - ts values" true
            (Pairset.cardinal m >= n - ts))
    handles

let test_async_overlap () =
  (* Asynchronous scheduling that starves one honest party: outputs may
     differ but any two must share >= n - ts pairs ((ts, ta)-Overlap). *)
  let n = 5 and ts = 1 and delta = 10 in
  let honest = [ 0; 1; 2; 3; 4 ] in
  List.iter
    (fun seed ->
      let f, handles =
        make ~seed ~n ~ts ~delta
          ~policy:
            (Network.async_starve ~victims:(fun i -> i = 4) ~release:300 ~fast:3)
          ~honest ()
      in
      List.iter (fun (i, obc) -> Obc.start obc (vec1 (float_of_int i))) handles;
      Engine.run f.engine;
      let outs = List.filter_map (fun (i, _) -> Option.map fst (output_of f i)) (List.map (fun (i,o) -> (i,o)) handles) in
      Alcotest.(check int) "all honest output" 5 (List.length outs);
      List.iter
        (fun m ->
          List.iter
            (fun m' ->
              Alcotest.(check bool)
                (Printf.sprintf "overlap >= n - ts (seed %Ld)" seed)
                true
                (Pairset.cardinal (Pairset.inter m m') >= n - ts))
            outs)
        outs)
    [ 1L; 2L; 3L ]

let test_async_validity_consistency () =
  let n = 5 and ts = 1 and delta = 10 in
  let honest = [ 0; 1; 2; 3; 4 ] in
  let f, handles =
    make ~n ~ts ~delta ~policy:(Network.async_heavy_tail ~base:8) ~honest ()
  in
  List.iter (fun (i, obc) -> Obc.start obc (vec1 (float_of_int i))) handles;
  Engine.run f.engine;
  let outs =
    List.filter_map
      (fun (i, _) -> Option.map (fun (m, _) -> (i, m)) (output_of f i))
      handles
  in
  (* Validity: honest pairs carry the true value *)
  List.iter
    (fun (_, m) ->
      List.iter
        (fun j ->
          match Pairset.find_party j m with
          | Some v ->
              Alcotest.(check bool) "true value" true
                (Vec.compare v (vec1 (float_of_int j)) = 0)
          | None -> ())
        [ 0; 1; 2; 3; 4 ])
    outs;
  (* Consistency across parties *)
  List.iter
    (fun (_, m) ->
      List.iter
        (fun (_, m') ->
          List.iter
            (fun j ->
              match (Pairset.find_party j m, Pairset.find_party j m') with
              | Some v, Some v' ->
                  Alcotest.(check bool) "consistent" true (Vec.compare v v' = 0)
              | _ -> ())
            (List.init n Fun.id))
        outs)
    outs

let test_ablation_no_witnessing_loses_overlap_guarantee () =
  (* The non-witnessing variant outputs at the first deadline; under the
     same starvation schedule its output time is strictly earlier, showing
     what the witness phase costs — and E5 shows what it buys. *)
  let n = 5 and ts = 1 and delta = 10 in
  let engine = Engine.create ~seed:1L ~n ~policy:(Network.lockstep ~delta) () in
  let out_time = ref None in
  let obc_ref = ref None in
  let rbc =
    Rbc.create ~n ~t:ts
      {
        Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:0 msg);
        deliver =
          (fun id payload ->
            match (id.Message.tag, payload) with
            | Message.Obc_value 1, Message.Pvec v ->
                Obc.on_value (Option.get !obc_ref) ~origin:id.Message.origin v
            | _ -> ());
      }
  in
  let obc =
    Obc.create ~witnessing:false ~n ~ts ~delta ~iter:1
      {
        Obc.now = (fun () -> Engine.now engine);
        set_timer = (fun ~at -> Engine.set_timer engine ~party:0 ~at ~tag:0);
        rbc_broadcast =
          (fun payload ->
            Rbc.broadcast rbc
              { Message.tag = Message.Obc_value 1; origin = 0 }
              payload);
        send_all = (fun msg -> Engine.broadcast engine ~src:0 msg);
        output = (fun _ _ -> out_time := Some (Engine.now engine));
      }
  in
  obc_ref := Some obc;
  Engine.set_party engine 0 (fun ev ->
      match ev with
      | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
          Rbc.on_message rbc ~from:src id step payload
      | Engine.Timer _ -> Obc.poke obc
      | Engine.Deliver _ -> ());
  (* peers: plain rBC stacks so values flow *)
  List.iter
    (fun i ->
      let rbc_i =
        Rbc.create ~n ~t:ts
          {
            Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
            deliver = (fun _ _ -> ());
          }
      in
      Engine.set_party engine i (fun ev ->
          match ev with
          | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
              Rbc.on_message rbc_i ~from:src id step payload
          | _ -> ());
      Rbc.broadcast rbc_i
        { Message.tag = Message.Obc_value 1; origin = i }
        (Message.Pvec (vec1 (float_of_int i))))
    [ 1; 2; 3; 4 ];
  Obc.start obc (vec1 0.);
  Engine.run engine;
  match !out_time with
  | None -> Alcotest.fail "no output"
  | Some time ->
      Alcotest.(check bool) "outputs at the first deadline" true
        ((time <= (Params.c_rbc * delta) + 2))

(* A report is a row of the instance's preallocated matrix, so taking
   one in allocates nothing, whether it stays pending or verifies: here
   party 2's report names party 3, whose value never arrives, and party
   3's report verifies against the three values in M. *)
let test_report_alloc_free () =
  let n = 4 in
  let sends = ref 0 in
  let obc =
    Obc.create ~n ~ts:1 ~delta:10 ~iter:1
      {
        Obc.now = (fun () -> 0);
        set_timer = (fun ~at:_ -> ());
        rbc_broadcast = (fun _ -> incr sends);
        send_all = (fun _ -> incr sends);
        output = (fun _ _ -> incr sends);
      }
  in
  let a = Vec.of_list [ 1.; 2. ] and b = Vec.of_list [ 3.; -0. ] in
  Obc.start obc a;
  Obc.on_value obc ~origin:0 a;
  Obc.on_value obc ~origin:1 b;
  Obc.on_value obc ~origin:2 a;
  let pending = [ (0, a); (1, b); (3, a); (7, b) ]
  and verifies = [ (0, a); (1, b); (2, a) ] in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) (name ^ " words") 0. (words f))
    [
      ("pending report", fun () -> Obc.on_report obc ~from:2 pending);
      ("verified report", fun () -> Obc.on_report obc ~from:3 verifies);
      ("repeated report", fun () -> Obc.on_report obc ~from:3 verifies);
    ];
  Alcotest.(check int) "one send: our own value" 1 !sends

(* --- stream differential against the seed Obc_reference --- *)

(* An oBC instance reacts only to its inputs ([start], [on_value],
   [on_report], [poke]) and the clock, and speaks only through its
   callbacks. So if, on every input stream under one fake clock, the
   interned path and Obc_reference make callback calls that [compare]
   equal, a party built on either one runs identically, by induction over
   the engine's event order. The streams are Byzantine: values race the
   deadlines, reports lie, repeat parties and name parties out of range,
   and [start] may come late or twice. *)

(* [compare] puts ±0 in one class and all NaNs, whatever their bits, in
   another; the last vector has another dimension. *)
let value_pool =
  Array.map Vec.of_list
    [| [ 0. ]; [ -0. ]; [ Float.nan ]; [ 0. /. 0. ]; [ 1. ]; [ 2.; -0. ] |]

type obc_op =
  | Start of int
  | Value of { origin : int; value : int; fresh : bool }
  | Report of { from : int; pairs : (int * int) list }
      (* party (maybe out of range), value index *)
  | Tick of int
  | Poke

type 'op case = {
  n : int;
  delta : int;
  witnessing : bool;
  ops : 'op list;
}

let print_obc_op = function
  | Start v -> Printf.sprintf "start v%d" v
  | Value { origin; value; fresh } ->
      Printf.sprintf "value %d v%d%s" origin value (if fresh then "'" else "")
  | Report { from; pairs } ->
      Printf.sprintf "%d: report {%s}" from
        (String.concat ","
           (List.map (fun (p, v) -> Printf.sprintf "%d:v%d" p v) pairs))
  | Tick k -> Printf.sprintf "tick %d" k
  | Poke -> "poke"

let print_obc_case c =
  Printf.sprintf "n=%d delta=%d witnessing=%b [%s]" c.n c.delta c.witnessing
    (String.concat "; " (List.map print_obc_op c.ops))

(* Each party has a true value, delivered and reported as itself or as
   its ±0 / NaN twin, so most reports verify against the collected set;
   the rest lie, drop parties, repeat a party or name one out of range. *)
let gen_obc_ops ~n ~delta =
  let open QCheck.Gen in
  let* truth = array_repeat n (int_bound 3) in
  let any_value = int_bound (Array.length value_pool - 1) in
  let true_value p =
    frequency [ (2, return truth.(p)); (1, return (truth.(p) lxor 1)) ]
  in
  let value_of p = frequency [ (18, true_value p); (1, any_value) ] in
  let party = int_bound (n - 1) in
  let report ~liar from =
    let entry p =
      let* keep = frequencyl [ (9, true); (1, false) ] in
      if not keep then return []
      else map (fun v -> [ (p, v) ]) (if liar then value_of p else true_value p)
    in
    let* listed = flatten_l (List.init n entry) in
    let* junk =
      list_size (int_bound 2)
        (pair
           (frequency [ (1, party); (3, oneofl [ -1; n; n + 3 ]) ])
           any_value)
    in
    let* junk_first = bool in
    let listed = List.concat listed in
    let pairs = if junk_first then junk @ listed else listed @ junk in
    return (Report { from; pairs })
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
        ( 5,
          let* from = party and* liar = frequencyl [ (4, false); (1, true) ] in
          report ~liar from );
        (3, map (fun k -> Tick k) (int_bound (3 * delta)));
        (1, return Poke);
      ]
  in
  (* Half the streams carry a backbone, one value and one truthful
     report per party and enough ticks to pass both deadlines, shuffled
     into the noise, so the witness threshold is reached often. *)
  let* backbone =
    let* on = bool in
    if not on then return []
    else
      flatten_l
        (List.init n value
        @ List.init n (report ~liar:false)
        @ List.init 6 (fun _ -> return (Tick delta)))
  in
  let* noise = list_size (int_range n (8 * n)) op in
  shuffle_l (backbone @ noise)

let gen_obc_case =
  let open QCheck.Gen in
  let* n = int_range 4 8 in
  let* delta = int_range 1 3 in
  let* witnessing = bool in
  let* ops = gen_obc_ops ~n ~delta in
  return { n; delta; witnessing; ops }

let arb_obc_case =
  QCheck.make ~print:print_obc_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    gen_obc_case

type obc_event =
  | Rbc_broadcast of Message.payload
  | Sent of Message.t
  | Timer of int
  | Output of int array * Vec.t array
  | Raised of string

type obc_impl = {
  start : Vec.t -> unit;
  on_value : origin:int -> Vec.t -> unit;
  on_report : from:int -> (int * Vec.t) list -> unit;
  poke : unit -> unit;
}

(* The logging callbacks under a fake clock, for one stream. *)
let logging () =
  let log = ref [] and clock = ref 0 in
  let add e = log := e :: !log in
  ( log,
    clock,
    add,
    {
      Obc.now = (fun () -> !clock);
      set_timer = (fun ~at -> add (Timer at));
      rbc_broadcast = (fun p -> add (Rbc_broadcast p));
      send_all = (fun m -> add (Sent m));
      output = (fun parties values -> add (Output (parties, values)));
    } )

let vec i fresh =
  if fresh then Vec.of_array (Vec.to_array value_pool.(i)) else value_pool.(i)

(* One input, logging any exception it raised. *)
let apply ~clock ~add impl op =
  try
    match op with
    | Start v -> impl.start value_pool.(v)
    | Value { origin; value; fresh } -> impl.on_value ~origin (vec value fresh)
    | Report { from; pairs } ->
        impl.on_report ~from (List.map (fun (p, v) -> (p, vec v true)) pairs)
    | Tick k -> clock := !clock + k
    | Poke -> impl.poke ()
  with Invalid_argument s -> add (Raised s)

(* Feeds one stream to one implementation; returns the callback log. *)
let obc_log c make =
  let log, clock, add, cb = logging () in
  let impl =
    make ~iter:1 ~witnessing:c.witnessing ~n:c.n ~ts:((c.n - 1) / 3)
      ~delta:c.delta cb
  in
  List.iter (apply ~clock ~add impl) c.ops;
  List.rev !log

let interned_impl o =
  {
    start = Obc.start o;
    on_value = Obc.on_value o;
    on_report = Obc.on_report o;
    poke = (fun () -> Obc.poke o);
  }

let interned_obc ~iter ~witnessing ~n ~ts ~delta cb =
  interned_impl (Obc.create ~witnessing ~n ~ts ~delta ~iter cb)

let reference_obc ~iter ~witnessing ~n ~ts ~delta cb =
  let o = Obc_reference.create ~witnessing ~n ~ts ~delta ~iter cb in
  {
    start = Obc_reference.start o;
    on_value = Obc_reference.on_value o;
    on_report = Obc_reference.on_report o;
    poke = (fun () -> Obc_reference.poke o);
  }

let obc_cases = ref 0
let obc_outputs = ref 0

let prop_obc_stream =
  QCheck.Test.make ~name:"interned = Obc_reference" ~count:500
    arb_obc_case (fun c ->
      let a = obc_log c interned_obc in
      let b = obc_log c reference_obc in
      incr obc_cases;
      if List.exists (function Output _ -> true | _ -> false) b then
        incr obc_outputs;
      compare a b = 0)

(* The property, plus a floor on how often its streams output: a
   generator that never reached the witness threshold would leave the
   output guard untested. *)
let test_obc_stream =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_obc_stream in
  Alcotest.test_case name speed (fun () ->
      obc_cases := 0;
      obc_outputs := 0;
      run ();
      Alcotest.(check bool)
        (Printf.sprintf "%d of %d cases output (>= 25%%)" !obc_outputs
           !obc_cases)
        true
        (4 * !obc_outputs >= !obc_cases))

(* --- one restarted oBC = a fresh Obc_reference per iteration --- *)

(* A ΠAA party keeps one oBC and restarts it for the next iteration once
   the current one has output; values and reports that arrive later for
   a finished iteration it drops. A fresh seed oBC per iteration takes
   those late inputs and, being done, makes no call. So on every stream
   of 2–4 iterations, late inputs mixed in, the restarted value must make
   the calls a fresh Obc_reference per iteration makes. *)

type multi_op =
  | At of int * obc_op  (* an input for the iteration this many back *)
  | Next  (* move on, if the current iteration has output *)

let print_multi_case c =
  Printf.sprintf "n=%d delta=%d witnessing=%b [%s]" c.n c.delta c.witnessing
    (String.concat "; "
       (List.map
          (function
            | At (0, op) -> print_obc_op op
            | At (b, op) -> Printf.sprintf "[-%d] %s" b (print_obc_op op)
            | Next -> "next")
          c.ops))

(* Each iteration's segment is a one-instance stream, shuffled with up to
   six values and reports for the one to three iterations before it. *)
let gen_multi_case =
  let open QCheck.Gen in
  let* n = int_range 4 8 in
  let* delta = int_range 1 3 in
  let* witnessing = bool in
  let segment =
    let* ops = gen_obc_ops ~n ~delta and* extra = gen_obc_ops ~n ~delta in
    let* m = int_bound 6 in
    let inputs =
      List.filteri (fun i _ -> i < m)
        (List.filter (function Value _ | Report _ -> true | _ -> false) extra)
    in
    let* late =
      flatten_l
        (List.map (fun op -> map (fun b -> At (b, op)) (int_range 1 3)) inputs)
    in
    shuffle_l (List.map (fun op -> At (0, op)) ops @ late)
  in
  let* k = int_range 2 4 in
  let* segments = list_repeat k segment in
  return
    { n; delta; witnessing; ops = List.concat_map (fun s -> s @ [ Next ]) segments }

let arb_multi_case =
  QCheck.make ~print:print_multi_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    gen_multi_case

(* [make] gives the implementation for the iteration [back] iterations
   before the current one, if there is one to feed, and a function that
   moves to the next iteration. Returns the log, the iterations moved on
   and the late inputs that reached a finished iteration. *)
let multi_log c make =
  let log, clock, add, cb = logging () in
  let outputs = ref 0 in
  let cb = { cb with output = (fun p v -> incr outputs; cb.output p v) } in
  let impl_for, next =
    make ~witnessing:c.witnessing ~n:c.n ~ts:((c.n - 1) / 3) ~delta:c.delta cb
  in
  let iter = ref 0 and late = ref 0 in
  List.iter
    (function
      | At (back, op) ->
          if back > 0 && back <= !iter then incr late;
          Option.iter (fun impl -> apply ~clock ~add impl op) (impl_for back)
      | Next ->
          if !outputs > !iter then begin
            incr iter;
            next ()
          end)
    c.ops;
  (List.rev !log, !iter, !late)

let restarted_obc ~witnessing ~n ~ts ~delta cb =
  let o = Obc.create ~witnessing ~n ~ts ~delta ~iter:1 cb in
  let impl = interned_impl o and iter = ref 1 in
  ( (fun back -> if back = 0 then Some impl else None),
    fun () ->
      incr iter;
      Obc.restart o ~iter:!iter )

let fresh_references ~witnessing ~n ~ts ~delta cb =
  let fresh iter = reference_obc ~iter ~witnessing ~n ~ts ~delta cb in
  let made = ref [ fresh 1 ] in
  ( (fun back -> List.nth_opt !made back),
    fun () -> made := fresh (List.length !made + 1) :: !made )

let multi_cases = ref 0
let multi_restarting = ref 0
let multi_late = ref 0

let prop_obc_restart =
  QCheck.Test.make ~name:"restarted = Obc_reference per iteration" ~count:300
    arb_multi_case (fun c ->
      let a, _, _ = multi_log c restarted_obc in
      let b, restarts, late = multi_log c fresh_references in
      incr multi_cases;
      if restarts > 0 then incr multi_restarting;
      if late > 0 then incr multi_late;
      compare a b = 0)

(* The property, plus floors: streams must often move on to a later
   iteration, and often send a finished one late inputs. *)
let test_obc_restart =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_obc_restart in
  Alcotest.test_case name speed (fun () ->
      multi_cases := 0;
      multi_restarting := 0;
      multi_late := 0;
      run ();
      List.iter
        (fun (what, k) ->
          Alcotest.(check bool)
            (Printf.sprintf "%d of %d cases %s (>= 25%%)" k !multi_cases what)
            true
            (4 * k >= !multi_cases))
        [
          ("restart", !multi_restarting);
          ("feed a finished iteration", !multi_late);
        ])


let () =
  Alcotest.run "obc"
    [
      ( "overlap broadcast",
        [
          Alcotest.test_case "sync: all honest, 5 delta" `Quick
            test_sync_all_honest;
          Alcotest.test_case "sync: silent corrupt party" `Quick
            test_sync_with_silent_corrupt;
          Alcotest.test_case "async: pairwise overlap" `Quick test_async_overlap;
          Alcotest.test_case "async: validity and consistency" `Quick
            test_async_validity_consistency;
          Alcotest.test_case "ablation: no witnessing" `Quick
            test_ablation_no_witnessing_loses_overlap_guarantee;
          Alcotest.test_case "report allocates nothing" `Quick
            test_report_alloc_free;
        ] );
      ("differential", [ test_obc_stream; test_obc_restart ]);
    ]
