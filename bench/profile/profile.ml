(* Quick min-of-5 wall-clock probe for the protocol hot paths, outside
   bechamel: message-layer and engine cost in isolation, plus the two
   end-to-end lines the perf targets are stated against (B6 n=12, B7).
   Run with: dune exec bench/profile/profile.exe *)
let measure n f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (f ()) done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int n in
    if dt < !best then best := dt
  done;
  !best

let time label n f =
  Printf.printf "%-40s %12.1f us/run\n%!" label (measure n f *. 1e6)

let protocol layer () =
  let cfg = Config.make_exn ~n:12 ~ts:3 ~ta:1 ~d:2 ~eps:0.05 ~delta:10 in
  let inputs =
    List.init 12 (fun i ->
        Vec.of_list (List.init 2 (fun c -> float_of_int ((i + c) mod 4))))
  in
  let o = Maaa.run ~seed:1L ~opts:{ Party.default_opts with layer } ~policy:(Network.lockstep ~delta:10) ~cfg ~inputs () in
  assert (o.Maaa.outputs <> [])

let rbc impl () =
  let obs =
    Fixtures.run_rbc ~impl ~n:7 ~t:2 ~policy:(Network.lockstep ~delta:10)
      ~honest:[ 0; 1; 2; 3; 4; 5; 6 ]
      ~sender:(`Honest (0, Message.Pvec (Vec.of_list [ 1.; 2. ])))
      ()
  in
  assert (List.length obs.Fixtures.rbc_deliveries = 7)

let () =
  time "B7 rbc reference" 2000 (rbc `Reference);
  time "B7 rbc interned" 2000 (rbc `Interned);
  time "B6 n=12 D=2 reference" 10 (protocol Party.Reference);
  time "B6 n=12 D=2 interned" 10 (protocol Party.Interned)

let storm_payload = Message.Pvec (Vec.of_list [ 1.; 2. ])

let engine_churn () =
  let engine = Engine.create ~seed:1L ~n:7 ~policy:(Network.lockstep ~delta:10) () in
  for i = 0 to 6 do Engine.set_party engine i (fun _ -> ()) done;
  let msg = Message.Rbc ({ Message.tag = Message.Init_value; origin = 0; instance = 0 }, Message.Echo, storm_payload) in
  for _ = 1 to 15 do Engine.broadcast engine ~src:0 msg done;
  Engine.run engine

let rbc_only impl () =
  let n = 7 and t = 2 in
  let rbcs =
    Array.init n (fun _ ->
        Rbc.create ~impl ~n ~t
          { Rbc.send_all = (fun _ -> ()); deliver = (fun _ _ -> ()) })
  in
  let id = { Message.tag = Message.Init_value; origin = 0; instance = 0 } in
  Array.iter
    (fun rbc ->
      Rbc.on_message rbc ~from:0 id Message.Init storm_payload;
      for s = 0 to n - 1 do
        Rbc.on_message rbc ~from:s id Message.Echo storm_payload
      done;
      for s = 0 to n - 1 do
        Rbc.on_message rbc ~from:s id Message.Ready storm_payload
      done)
    rbcs

let setup_engine () =
  ignore (Engine.create ~seed:1L ~n:7 ~policy:(Network.lockstep ~delta:10) ())

let setup_rbc impl () =
  for _ = 1 to 7 do
    ignore
      (Rbc.create ~impl ~n:7 ~t:2
         { Rbc.send_all = (fun _ -> ()); deliver = (fun _ _ -> ()) })
  done

let () =
  time "engine churn 105 msgs, null handlers" 2000 engine_churn;
  time "rbc-only 7 instances, interned" 2000 (rbc_only `Interned);
  time "rbc-only 7 instances, reference" 2000 (rbc_only `Reference);
  time "setup: Engine.create n=7" 2000 setup_engine;
  time "setup: 7x Rbc.create interned" 2000 (setup_rbc `Interned);
  time "setup: 7x Rbc.create reference" 2000 (setup_rbc `Reference)
