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
        ] );
    ]
