type outcome = {
  outputs : (int * Vec.t) list;
  output_iterations : (int * int) list;
  completion_time : int;
  histories : (int * (int * Vec.t) list) list;
  stats : Engine.stats;
}

let run ?(seed = 1L) ?policy ?(silent = []) ?opts ?(transport = `Sim) ~cfg ~inputs () =
  let n = cfg.Config.n in
  if List.length inputs <> n then
    invalid_arg "Maaa.run: need exactly one input per party";
  List.iter
    (fun v ->
      if Vec.dim v <> cfg.Config.d then
        invalid_arg "Maaa.run: input dimension mismatch")
    inputs;
  let policy =
    match policy with
    | Some p -> p
    | None -> Network.lockstep ~delta:cfg.Config.delta
  in
  let engine =
    Engine.create ~seed ~size_of:Message.size_of ~n ~policy ()
  in
  let net =
    match transport with
    | `Sim -> None
    | `Net -> Some (Netrun.attach ~chaos_seed:seed engine)
  in
  Fun.protect ~finally:(fun () -> Option.iter Netrun.close net) @@ fun () ->
  let is_silent i = List.mem i silent in
  (* One memo cache for the whole run: honest parties assembling the same
     report multiset share one safe-area evaluation (bit-identical). *)
  let safe_cache = Safe_cache.create () in
  let parties =
    List.filteri (fun i _ -> not (is_silent i)) (List.init n Fun.id)
    |> List.map (fun i ->
           ( i,
             Party.attach ?opts ~safe_cache ~cfg ~me:i engine ))
  in
  let inputs = Array.of_list inputs in
  List.iter (fun (i, p) -> Party.start p inputs.(i)) parties;
  Engine.run engine;
  let outputs =
    List.map
      (fun (i, p) ->
        match Party.output p with
        | Some v -> (i, v)
        | None ->
            failwith
              (Printf.sprintf "Maaa.run: honest party %d never produced output" i))
      parties
  in
  let output_iterations =
    List.filter_map
      (fun (i, p) -> Option.map (fun it -> (i, it)) (Party.output_iteration p))
      parties
  in
  let completion_time =
    List.fold_left
      (fun acc (_, p) ->
        match Party.output_time p with Some t -> max acc t | None -> acc)
      0 parties
  in
  {
    outputs;
    output_iterations;
    completion_time;
    histories = List.map (fun (i, p) -> (i, Party.value_history p)) parties;
    stats = Engine.stats engine;
  }
