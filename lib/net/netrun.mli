(** The loopback networked runtime: the simulator engine stays the
    scheduler while every logical message physically traverses a real
    TCP socket through the authenticated frame codec ({!Wire}), the
    perfect-link layer ({!Link}) and optional frame chaos
    ({!Wire_chaos}).

    Messages carry their engine-allocated [(seq, deliver_at)] and are
    re-inserted through [Engine.inject] under the exact event-queue key
    a direct send would have used; the pump refuses to let simulated
    time advance while anything is in flight. A run on this backend is
    therefore byte-identical to the same run on the sim backend — the
    sim is an exact oracle, and any frame-level chaos the perfect link
    fails to mask shows up as a differential mismatch. Wall-clock
    nondeterminism (retransmission counts, reconnect timing) perturbs
    {!wire_stats} only, never logical results.

    On a clean wire a message allocates only its encoded record (kept
    until acked), the decoded message and the engine's event. *)

type t

type wire_stats = {
  logical_sent : int;  (** messages handed to the wire (incl. self) *)
  logical_delivered : int;  (** messages re-injected into the engine *)
  frames_sent : int;  (** physical frames enqueued, after chaos *)
  frames_received : int;  (** verified frames decoded *)
  retransmits : int;
  dup_frames : int;  (** replays suppressed by receivers *)
  chaos_dropped : int;
  chaos_duplicated : int;
  chaos_held : int;
  reconnects : int;  (** re-establishments after a connection died *)
  backpressure_stalls : int;  (** sends parked in overflow queues *)
  decode_errors : int;  (** poisoned streams (each drops a connection) *)
}

val attach :
  ?chaos:Wire_chaos.plan ->
  ?rto0:int ->
  ?pump_budget:float ->
  ?chaos_seed:int64 ->
  Message.t Engine.t ->
  t
(** Builds the full loopback mesh — one listener per party on an
    ephemeral port, one connection per pair (lower id dials), HELLO
    handshakes — then installs itself with [Engine.set_wire]. Blocks
    until the mesh is up (bounded; raises [Failure] on timeout).
    [pump_budget] (default 30 s) bounds the wall-clock a single pump may
    spend before a wedged wire raises a structured [Failure]. Call
    {!close} when done — always, also on exceptions. *)

val kill_connection : t -> a:int -> b:int -> unit
(** Test hook: force-close the TCP connection of pair [(a, b)] as a
    crash would. The supervisor re-dials with backoff and both
    directions replay their unacked backlog. *)

val close : t -> unit
(** Detaches from the engine ([Engine.clear_wire]) and closes every
    socket. Idempotent. *)

val stats : t -> wire_stats
