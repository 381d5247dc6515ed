type rbc_obs = { rbc_deliveries : (int * Message.payload * int) list }

let rbc_id origin = { Message.tag = Message.Init_value; origin }

let run_rbc ?(seed = 1L) ?impl ~n ~t ~policy ~honest ~sender () =
  let engine = Engine.create ~seed ~n ~policy () in
  let deliveries = ref [] in
  let rbcs = Array.make n None in
  List.iter
    (fun i ->
      let rbc =
        Rbc.create ?impl ~n ~t
          {
            Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
            deliver =
              (fun _ payload ->
                deliveries := (i, payload, Engine.now engine) :: !deliveries);
          }
      in
      rbcs.(i) <- Some rbc;
      Engine.set_party engine i (fun ev ->
          match ev with
          | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
              Rbc.on_message rbc ~from:src id step payload
          | _ -> ()))
    honest;
  (match sender with
  | `Honest (s, payload) -> (
      match rbcs.(s) with
      | Some rbc -> Rbc.broadcast rbc (rbc_id s) payload
      | None ->
          (* a crash-corrupt sender that still initiates *)
          Engine.broadcast engine ~src:s
            (Message.Rbc (rbc_id s, Message.Init, payload)))
  | `Equivocator (s, pa, pb) ->
      for dst = 0 to n - 1 do
        let p = if dst < n / 2 then pa else pb in
        Engine.send engine ~src:s ~dst (Message.Rbc (rbc_id s, Message.Init, p))
      done;
      List.iter
        (fun p ->
          Engine.broadcast engine ~src:s
            (Message.Rbc (rbc_id s, Message.Echo, p)))
        [ pa; pb ]);
  Engine.run engine;
  { rbc_deliveries = !deliveries }

type obc_obs = { obc_outputs : (int * Pairset.t * int) list }

let run_obc ?(seed = 1L) ?(witnessing = true) ?(start_delays = []) ~n ~ts
    ~delta ~policy ~inputs () =
  let engine = Engine.create ~seed ~n ~policy () in
  let outputs = ref [] in
  let parties =
    List.map
      (fun (i, v) ->
        let obc_ref = ref None in
        let rbc =
          Rbc.create ~n ~t:ts
            {
              Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
              deliver =
                (fun id payload ->
                  match (id.Message.tag, payload) with
                  | Message.Obc_value 1, Message.Pvec v ->
                      Obc.on_value (Option.get !obc_ref)
                        ~origin:id.Message.origin v
                  | _ -> ());
            }
        in
        let obc =
          Obc.create ~witnessing ~n ~ts ~delta ~iter:1
            {
              Obc.now = (fun () -> Engine.now engine);
              set_timer = (fun ~at -> Engine.set_timer engine ~party:i ~at ~tag:0);
              rbc_broadcast =
                (fun payload ->
                  Rbc.broadcast rbc
                    { Message.tag = Message.Obc_value 1; origin = i }
                    payload);
              send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
              output =
                (fun m -> outputs := (i, m, Engine.now engine) :: !outputs);
            }
        in
        obc_ref := Some obc;
        let started = ref false in
        let start () =
          if not !started then begin
            started := true;
            Obc.start obc v
          end
        in
        let delay =
          match List.assoc_opt i start_delays with Some d -> d | None -> 0
        in
        Engine.set_party engine i (fun ev ->
            match ev with
            | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
                Rbc.on_message rbc ~from:src id step payload
            | Engine.Deliver { src; msg = Message.Obc_report { iter = 1; pairs; _ } }
              ->
                Obc.on_report obc ~from:src pairs
            | Engine.Timer 1 -> start ()
            | Engine.Timer _ -> Obc.poke obc
            | Engine.Deliver _ -> ());
        if delay > 0 then Engine.set_timer engine ~party:i ~at:delay ~tag:1;
        (i, delay, start))
      inputs
  in
  List.iter (fun (_, delay, start) -> if delay = 0 then start ()) parties;
  Engine.run engine;
  { obc_outputs = !outputs }

type init_obs = {
  init_results : (int * int * Vec.t * int) list;
  init_estimations : (int * Pairset.t) list;
}

let run_init ?(seed = 1L) ?(double_witnessing = true) ~n ~ts ~ta ~delta ~eps
    ~policy ~inputs () =
  let engine = Engine.create ~seed ~n ~policy () in
  let results = ref [] in
  let inits = ref [] in
  let parties =
    List.map
      (fun (i, v) ->
        let init_ref = ref None in
        let rbc =
          Rbc.create ~n ~t:ts
            {
              Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
              deliver =
                (fun id payload ->
                  let init = Option.get !init_ref in
                  match (id.Message.tag, payload) with
                  | Message.Init_value, Message.Pvec v ->
                      Init_round.on_value init ~origin:id.Message.origin v
                  | Message.Init_report, Message.Ppairs pairs ->
                      Init_round.on_report init ~origin:id.Message.origin pairs
                  | _ -> ());
            }
        in
        let init =
          Init_round.create ~double_witnessing ~n ~ts ~ta ~delta ~eps
            {
              Init_round.now = (fun () -> Engine.now engine);
              set_timer = (fun ~at -> Engine.set_timer engine ~party:i ~at ~tag:0);
              rbc_broadcast =
                (fun tag payload ->
                  Rbc.broadcast rbc { Message.tag; origin = i } payload);
              send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
              output =
                (fun tt v0 ->
                  results := (i, tt, v0, Engine.now engine) :: !results);
            }
        in
        init_ref := Some init;
        inits := (i, init) :: !inits;
        Engine.set_party engine i (fun ev ->
            match ev with
            | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
                Rbc.on_message rbc ~from:src id step payload
            | Engine.Deliver { src; msg = Message.Witness_set { parties = ws; _ } } ->
                Init_round.on_witness_set init ~from:src ws
            | Engine.Timer _ -> Init_round.poke init
            | Engine.Deliver _ -> ());
        (init, v))
      inputs
  in
  List.iter (fun (init, v) -> Init_round.start init v) parties;
  Engine.run engine;
  {
    init_results = !results;
    init_estimations =
      List.map (fun (i, init) -> (i, Init_round.estimations init)) !inits;
  }
