(* Line-oriented agreement front door; protocol in serve.mli. The
   request parser and the batch core are pure so the CLI validation
   loop and the e2e test drive them without sockets. *)

type request = Scenario.Spec.request = {
  d : int;
  eps : float;
  delta : int;
  ts : int;
  ta : int;
  transport : [ `Sim | `Net ];
  seed : int64;
  inputs : Vec.t list;
}

let parse_request = Scenario.Spec.of_line

let scenario_of_request r =
  let n = List.length r.inputs in
  match
    Config.make ~n ~ts:r.ts ~ta:r.ta ~d:r.d ~eps:r.eps ~delta:r.delta
  with
  | Error e -> Error e
  | Ok cfg -> (
      try
        Ok
          (Scenario.make
             ~name:(Printf.sprintf "serve-n%d-d%d" n r.d)
             ~seed:r.seed
             ~policy:(Network.lockstep ~delta:r.delta)
             ~transport:r.transport
             ~budget:{ Scenario.max_events = None; wall_seconds = Some 120. }
             ~cfg ~inputs:r.inputs ())
      with Invalid_argument e -> Error e)

(* -- the batch core ----------------------------------------------------- *)

let render_result (res : Runner.result) =
  if not res.Runner.live then "err liveness failure (no honest output)"
  else
    let outputs =
      res.Runner.outputs
      |> List.map (fun (_, v) ->
             Vec.to_list v
             |> List.map (Printf.sprintf "%.17g")
             |> String.concat ",")
      |> String.concat ";"
    in
    Printf.sprintf "ok diameter=%.17g rounds=%.17g outputs=%s"
      res.Runner.diameter res.Runner.completion_rounds outputs

let handle_batch ?domains lines =
  let parsed =
    List.map
      (fun line ->
        match parse_request line with
        | Error e -> Error e
        | Ok req -> scenario_of_request req)
      lines
  in
  let scens = List.filter_map Result.to_option parsed in
  (* every well-formed request runs on its own engine, spread over
     [domains] workers when there are several *)
  let results = ref (Runner.run_batch ?domains scens) in
  List.map
    (fun p ->
      match p with
      | Error e -> "err " ^ e
      | Ok _ -> (
          match !results with
          | res :: rest ->
              results := rest;
              render_result res
          | [] -> assert false))
    parsed

let throughput_smoke ?(domains = 1) n =
  let lines =
    List.init n (fun i ->
        Printf.sprintf
          "agree v=1 d=1 eps=0.25 delta=1 ts=1 ta=0 seed=%d \
           inputs=0.4;0.45;0.5;0.55"
          (i + 1))
  in
  let t0 = Unix.gettimeofday () in
  let resps = handle_batch ~domains lines in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun r ->
      if String.length r < 2 || String.sub r 0 2 <> "ok" then
        failwith ("throughput_smoke: request failed: " ^ r))
    resps;
  float_of_int n /. dt

(* -- the socket loop ---------------------------------------------------- *)

let serve ?(host = "127.0.0.1") ?(domains = 1) ?max_conns ?announce ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock 16;
  let actual =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (match announce with
  | Some f -> f actual
  | None -> Printf.printf "listening %d\n%!" actual);
  let conns = ref 0 in
  let continue () =
    match max_conns with None -> true | Some m -> !conns < m
  in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  while continue () do
    let fd, _ = Unix.accept sock in
    incr conns;
    (* One bad connection must not take the service down: parse errors
       answer in-band, everything else drops only this connection. *)
    (try
       let ic = Unix.in_channel_of_descr fd in
       let oc = Unix.out_channel_of_descr fd in
       let rec read acc =
         match input_line ic with
         | "" | "\r" -> List.rev acc
         | line -> read (line :: acc)
         | exception End_of_file -> List.rev acc
       in
       let lines = read [] in
       let resps = handle_batch ~domains lines in
       List.iter
         (fun r ->
           output_string oc r;
           output_char oc '\n')
         resps;
       flush oc
     with _ -> ());
    try Unix.close fd with _ -> ()
  done
