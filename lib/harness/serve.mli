(** The agreement front door: a line-oriented TCP service that accepts
    batches of client agreement requests and runs each on its own engine,
    spread over the {!Pool} worker domains.

    Protocol (one request per line, LF-terminated ASCII):

    {v agree v=1 d=2 eps=0.05 delta=4 ts=1 ta=0 transport=net seed=7 inputs=0,0;1,0;0,1;1,1 v}

    [v=1] is the protocol version and mandatory; [transport] (sim|net,
    default sim) and [seed] (default 1) are optional; [n] is the number
    of [;]-separated input vectors. A connection sends any number of
    request lines and half-closes (or sends an empty line); the server
    runs the whole batch on the domain pool and answers with exactly one
    line per request, in order:

    {v ok diameter=<float> rounds=<float> outputs=<x,y;...> v}

    or [err <reason>] for a malformed or infeasible request (other
    requests on the same connection are unaffected). *)

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

val parse_request : string -> (request, string) result
(** Parses one request line. [Error] strings are single-line,
    human-readable, and name the offending field. *)

val scenario_of_request : request -> (Scenario.t, string) result
(** Validates feasibility ({!Config.make}) and builds the synchronous
    lockstep scenario the service runs. *)

val render_result : Runner.result -> string
(** The reply line for one finished run: [ok ...] as above, or
    [err liveness failure ...] when no honest party output. *)

val handle_batch : ?pool:Pool.t -> string list -> string list
(** Pure core of the service: one response line per request line, in
    order. Every well-formed request runs on its own engine
    ({!Runner.run}), over [pool]'s workers when given (the socket loop
    hoists one pool across connections), else sequentially; the replies
    are the same either way. Malformed requests answer [err ...] without
    running anything. *)

val throughput_smoke : ?domains:int -> int -> float
(** Runs [n] canonical small agreement requests (n=4, D=1) through
    {!handle_batch} and returns the measured requests/sec — the serve
    validation smoke. Raises [Failure] if any request errors. *)

val serve :
  ?host:string ->
  ?domains:int ->
  ?max_conns:int ->
  ?announce:(int -> unit) ->
  port:int ->
  unit ->
  unit
(** Binds [host] (default 127.0.0.1) on [port] ([0] = ephemeral),
    reports the bound port through [announce] (default: prints
    ["listening <port>"] on stdout, flushed — the handshake scripts wait
    for), then accepts connections sequentially, [handle_batch]-ing each.
    Stops after [max_conns] connections (default: serve forever). *)
