(** The agreement front door: a line-oriented TCP service that accepts
    batches of client agreement requests and runs each on its own engine,
    spread over worker domains ({!Runner.run_batch}).

    Protocol (one request per line, LF-terminated ASCII):

    {v agree v=1 d=2 eps=0.05 delta=4 ts=1 ta=0 transport=net seed=7 inputs=0,0;1,0;0,1;1,1 v}

    The key set is closed: [v] (the protocol version, mandatory, [1]),
    [d], [eps], [delta], [ts], [ta] and [inputs] are required,
    [transport] (sim|net, default sim) and [seed] (default 1) are
    optional, and any other key, or a key given twice, is an [err]
    naming it. [n] is the number of [;]-separated input vectors. A connection sends any number of
    request lines and half-closes (or sends an empty line); the server
    runs the whole batch over its worker domains and answers with exactly one
    line per request, in order:

    {v ok diameter=<float> rounds=<float> outputs=<x,y;...> v}

    or [err <reason>] for a malformed or infeasible request (other
    requests on the same connection are unaffected). *)

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

val parse_request : string -> (request, string) result
(** {!Scenario.Spec.of_line}: parses one request line. [Error] strings
    are single-line, human-readable, and name the offending field. *)

val scenario_of_request : request -> (Scenario.t, string) result
(** Validates feasibility ({!Config.make}) and builds the synchronous
    lockstep scenario the service runs. *)

val render_result : Runner.result -> string
(** The reply line for one finished run: [ok ...] as above, or
    [err liveness failure ...] when no honest party output. *)

val handle_batch : ?domains:int -> string list -> string list
(** Pure core of the service: one response line per request line, in
    order. Every well-formed request runs on its own engine, over
    [domains] worker domains ({!Runner.run_batch}; default [1], in the
    calling domain); the replies are the same for any [domains].
    Malformed requests answer [err ...] without running anything. *)

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
    for), then accepts connections sequentially, [handle_batch]-ing each
    over [domains] worker domains (default [1]; with more, each
    connection spawns and joins its own workers). Stops after
    [max_conns] connections (default: serve forever). *)
