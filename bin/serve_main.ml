(* Agreement front-door daemon.
   Usage: serve.exe [--port N] [--host ADDR] [--domains N] [--max-conns N]
   Listens for line-oriented agreement requests (protocol in
   lib/harness/serve.mli) and runs each connection's batch over the
   worker-domain pool, one engine per request. --port 0 binds an ephemeral port; the bound
   port is printed as "listening <port>" so scripts can handshake.
   All argument errors are one line on stderr and exit code 2. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("serve: " ^ msg);
      exit 2)
    fmt

let pos_int ~flag v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> n
  | Some n -> die "%s must be >= 1 (got %d)" flag n
  | None -> die "%s expects a positive integer (got %S)" flag v

let () =
  let port = ref 0 in
  let host = ref "127.0.0.1" in
  let domains = ref 1 in
  let max_conns = ref None in
  let smoke = ref None in
  let rec parse = function
    | [] -> ()
    | "--throughput-smoke" :: v :: rest ->
        smoke := Some (pos_int ~flag:"--throughput-smoke" v);
        parse rest
    | "--port" :: v :: rest -> (
        match int_of_string_opt v with
        | Some p when p >= 0 && p <= 65535 ->
            port := p;
            parse rest
        | Some p -> die "--port must be in 0..65535 (got %d)" p
        | None -> die "--port expects an integer (got %S)" v)
    | "--host" :: v :: rest -> (
        match Unix.inet_addr_of_string v with
        | _ ->
            host := v;
            parse rest
        | exception Failure _ -> die "--host expects an IP address (got %S)" v)
    | "--domains" :: v :: rest ->
        domains := pos_int ~flag:"--domains" v;
        parse rest
    | "--max-conns" :: v :: rest ->
        max_conns := Some (pos_int ~flag:"--max-conns" v);
        parse rest
    | [ flag ]
      when List.mem flag
             [
               "--port"; "--host"; "--domains"; "--max-conns";
               "--throughput-smoke";
             ] ->
        die "%s expects a value" flag
    | flag :: _ ->
        die
          "unknown argument %S (usage: serve.exe [--port N] [--host ADDR] \
           [--domains N] [--max-conns N] [--throughput-smoke N])"
          flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !smoke with
  | Some n ->
      (* measured, printed, not gated: serve-throughput visibility *)
      let rps = Serve.throughput_smoke ~domains:!domains n in
      Printf.printf "throughput-smoke: %d requests, %.0f requests/sec\n%!" n rps
  | None -> (
      try
        Serve.serve ~host:!host ~domains:!domains ?max_conns:!max_conns
          ~port:!port ()
      with Unix.Unix_error (e, fn, _) ->
        die "%s failed: %s" fn (Unix.error_message e))
