(* Line-oriented agreement front door; protocol in serve.mli. The
   request parser and the batch core are pure so the CLI validation
   loop and the e2e test drive them without sockets. *)

type request = {
  d : int;
  eps : float;
  delta : int;
  ts : int;
  ta : int;
  transport : [ `Sim | `Net ];
  seed : int64;
  inputs : Vec.t list;
}

(* -- parsing ------------------------------------------------------------ *)

let split_on_char_nonempty c s =
  List.filter (fun t -> t <> "") (String.split_on_char c s)

let parse_vec ~d s =
  let parts = String.split_on_char ',' s in
  if List.length parts <> d then
    Error (Printf.sprintf "input %S has %d coordinates (d=%d)" s
             (List.length parts) d)
  else
    try Ok (Vec.of_list (List.map float_of_string parts))
    with _ -> Error (Printf.sprintf "input %S: bad float" s)

let parse_inputs ~d s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_vec ~d p with
        | Ok v -> go (v :: acc) rest
        | Error e -> Error e)
  in
  match split_on_char_nonempty ';' s with
  | [] -> Error "inputs= is empty"
  | parts -> go [] parts

let parse_request line =
  let line =
    (* tolerate CRLF clients *)
    if String.length line > 0 && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  match split_on_char_nonempty ' ' line with
  | [] -> Error "empty request"
  | verb :: fields when verb = "agree" -> (
      let kv = Hashtbl.create 8 in
      let bad = ref None in
      List.iter
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
              Hashtbl.replace kv
                (String.sub f 0 i)
                (String.sub f (i + 1) (String.length f - i - 1))
          | None -> if !bad = None then bad := Some f)
        fields;
      match !bad with
      | Some f -> Error (Printf.sprintf "malformed field %S (want key=value)" f)
      | None -> (
          let get k = Hashtbl.find_opt kv k in
          let req k = function
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "missing required field %s=" k)
          in
          let int_field k v =
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "%s expects an integer (got %S)" k v)
          in
          let float_field k v =
            match float_of_string_opt v with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "%s expects a float (got %S)" k v)
          in
          let ( let* ) = Result.bind in
          let* v = req "v" (get "v") in
          let* () =
            if v = "1" then Ok ()
            else Error (Printf.sprintf "unsupported protocol version %S" v)
          in
          let* d = Result.bind (req "d" (get "d")) (int_field "d") in
          let* eps = Result.bind (req "eps" (get "eps")) (float_field "eps") in
          let* delta =
            Result.bind (req "delta" (get "delta")) (int_field "delta")
          in
          let* ts = Result.bind (req "ts" (get "ts")) (int_field "ts") in
          let* ta = Result.bind (req "ta" (get "ta")) (int_field "ta") in
          let* transport =
            match get "transport" with
            | None -> Ok `Sim
            | Some "sim" -> Ok `Sim
            | Some "net" -> Ok `Net
            | Some t ->
                Error (Printf.sprintf "unknown transport %S (expected sim|net)" t)
          in
          let* seed =
            match get "seed" with
            | None -> Ok 1L
            | Some s -> (
                match Int64.of_string_opt s with
                | Some s -> Ok s
                | None ->
                    Error (Printf.sprintf "seed expects a 64-bit integer (got %S)" s))
          in
          let* raw = req "inputs" (get "inputs") in
          let* () =
            if d >= 1 then Ok ()
            else Error (Printf.sprintf "d must be >= 1 (got %d)" d)
          in
          let* inputs = parse_inputs ~d raw in
          Ok { d; eps; delta; ts; ta; transport; seed; inputs }))
  | verb :: _ -> Error (Printf.sprintf "unknown verb %S (expected agree)" verb)

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

let handle_batch ?pool lines =
  let parsed =
    List.map
      (fun line ->
        match parse_request line with
        | Error e -> Error e
        | Ok req -> scenario_of_request req)
      lines
  in
  let scens = List.filter_map Result.to_option parsed in
  (* every well-formed request runs on its own engine, spread over the
     pool's workers when there is one *)
  let results =
    ref
      (match pool with
      | Some pool -> Pool.map_chunked pool Runner.run scens
      | None -> List.map Runner.run scens)
  in
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
  let resps =
    if domains > 1 then
      Pool.with_pool ~domains (fun pool -> handle_batch ~pool lines)
    else handle_batch lines
  in
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
  (* the worker pool is created once and survives across connections —
     per-request engine/pool construction was the serve-throughput wall *)
  let pool = if domains > 1 then Some (Pool.create ~domains ()) else None in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Option.iter Pool.shutdown pool)
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
       let resps = handle_batch ?pool lines in
       List.iter
         (fun r ->
           output_string oc r;
           output_char oc '\n')
         resps;
       flush oc
     with _ -> ());
    try Unix.close fd with _ -> ()
  done
