(* The loopback networked runtime: every logical message physically
   traverses a real TCP socket through the authenticated frame codec and
   the perfect-link layer, while the simulator engine remains the
   scheduler.

   The trick that makes the sim an exact oracle: the engine still draws
   the delay policy, allocates the event sequence number and counts
   stats at send time — it only hands the message to us instead of
   pushing the delivery event. The message rides to the destination
   carrying its [(engine_seq, deliver_at)] and is re-inserted through
   [Engine.inject] under the exact heap key a direct send would have
   used. The engine calls [wire_pump] at its two seams (queue drained,
   time about to advance), and the pump does not return until every
   in-flight logical message has been re-injected — so the pop order,
   and therefore the entire run, is byte-identical to the sim backend.
   Frame-level chaos below the perfect link must then be masked
   completely: the differential harness demands identical results even
   under drop/duplicate/reorder/delay/flap plans.

   Topology: every party binds a loopback listener on an ephemeral
   port; for each unordered pair the lower id dials the higher id's
   listener and opens the connection with a HELLO frame naming itself
   and the connection epoch. Both endpoints of every connection live in
   this process (all parties share it), so a connection is a pair of
   [endp] records — one per side — each with its own fd, decoder and
   write queue. A dead connection (EOF, write error, decode error,
   chaos flap, or the kill test hook) takes both sides down; the dialer
   re-dials after a capped exponential backoff and both directions
   replay their unacked backlog ([Link.mark_replay]) — cumulative ACKs
   make the replay idempotent.

   Wire time is a tick counter advanced once per pump iteration, and
   jumped to the next scheduled wire event when an I/O round finds the
   sockets idle; link RTOs, chaos holds and reconnect backoffs are
   denominated in it. Sockets run with TCP_NODELAY: the pump waits on
   every small frame, so Nagle's coalescing would only stall it.
   Wall-clock nondeterminism (how many retransmissions a given kernel
   scheduling produces) perturbs wire statistics only, never logical
   results. A wall-clock budget per pump call turns a wedged wire into
   a structured failure instead of a hang. *)

type wire_stats = {
  logical_sent : int;
  logical_delivered : int;
  frames_sent : int;
  frames_received : int;
  retransmits : int;
  dup_frames : int;
  chaos_dropped : int;
  chaos_duplicated : int;
  chaos_held : int;
  reconnects : int;
  backpressure_stalls : int;
  decode_errors : int;
}

(* one directed link's perfect-link state *)
type dlink = {
  snd : Link.sender;
  rcv : Link.receiver;
  overflow : Bytes.t Queue.t;  (* payloads the sender window rejected *)
  mutable ack_pending : bool;  (* receiver owes a (re-)ACK *)
}

(* one side of a TCP connection *)
type endp = {
  owner : int;  (* party holding this side *)
  mutable fd : Unix.file_descr option;
  mutable dec : Wire.decoder;
  outq : (Bytes.t * int ref) Queue.t;  (* encoded frames, write offset *)
}

type conn = {
  a : int;
  b : int;  (* a < b; a dials *)
  ea : endp;  (* a's side *)
  eb : endp;  (* b's side *)
  mutable down_until : int;  (* no re-dial before this wire tick *)
  mutable backoff : int;  (* ticks, doubles per failure, capped *)
  mutable epoch : int;  (* successful establishments *)
}

type t = {
  engine : Message.t Engine.t;
  n : int;
  keys : Auth.key array array;
  links : dlink array array;
  conns : conn option array array;  (* upper triangle: [a].[b], a < b *)
  listeners : Unix.file_descr array;
  ports : int array;
  mutable pending : (int * Unix.file_descr * Wire.decoder) list;
      (* accepted, awaiting HELLO: (host party, fd, decoder) *)
  chaos : Wire_chaos.t option;
  mutable holds : (int * endp * Bytes.t) list;  (* (release tick, via, frame) *)
  mutable tick : int;
  mutable in_flight : int;  (* logical msgs handed to us, not yet injected *)
  pump_budget : float;  (* seconds of wall per pump call *)
  scratch : Bytes.t;
  mutable logical_sent : int;
  mutable logical_delivered : int;
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable reconnects : int;
  mutable backpressure_stalls : int;
  mutable decode_errors : int;
  mutable closed : bool;
}

let max_backoff = 64

(* -- connection plumbing -- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let conn_of t i j =
  let a = min i j and b = max i j in
  match t.conns.(a).(b) with
  | Some c -> c
  | None -> invalid_arg "Netrun: no connection for pair"

let fresh_decoder t =
  Wire.decoder ~n:t.n ~key_of:(fun ~src ~dst -> t.keys.(src).(dst))

let take_down t c =
  (match c.ea.fd with Some fd -> close_quiet fd | None -> ());
  (match c.eb.fd with Some fd -> close_quiet fd | None -> ());
  c.ea.fd <- None;
  c.eb.fd <- None;
  Queue.clear c.ea.outq;
  Queue.clear c.eb.outq;
  c.ea.dec <- fresh_decoder t;
  c.eb.dec <- fresh_decoder t;
  c.down_until <- t.tick + c.backoff;
  c.backoff <- min (c.backoff * 2) max_backoff

(* Both directions of a re-established connection replay their unacked
   backlog immediately; duplicates are suppressed by the receivers. *)
let mark_established t c =
  c.epoch <- c.epoch + 1;
  c.backoff <- 1;
  if c.epoch > 1 then t.reconnects <- t.reconnects + 1;
  Link.mark_replay t.links.(c.a).(c.b).snd;
  Link.mark_replay t.links.(c.b).(c.a).snd

let enqueue_frame t (e : endp) bytes =
  if e.fd <> None then begin
    t.frames_sent <- t.frames_sent + 1;
    Queue.push (bytes, ref 0) e.outq
  end
(* no fd: the frame is dropped — retransmission covers DATA, receivers
   re-ACK on the duplicate, HELLO is re-sent by the dialer *)

(* route one encoded frame through chaos; [via] is the sending side *)
let route t ~src ~dst ~ftype (via : endp) bytes =
  match t.chaos with
  | None -> enqueue_frame t via bytes
  | Some ch -> (
      match Wire_chaos.on_frame ch ~src ~dst ~ftype ~tick:t.tick with
      | Wire_chaos.Drop_frame -> ()
      | Wire_chaos.Deliver delays ->
          List.iter
            (fun d ->
              if d <= 0 then enqueue_frame t via bytes
              else t.holds <- (t.tick + d, via, bytes) :: t.holds)
            delays)

let endp_for t ~src ~dst =
  let c = conn_of t src dst in
  if src = c.a then c.ea else c.eb

(* send a DATA frame for directed link (src, dst), piggybacking src's
   cumulative ack for the reverse direction, which settles an owed ACK
   (if lost, the peer retransmits and the duplicate is re-ACKed) *)
let send_data t ~src ~dst ~seq payload =
  t.links.(dst).(src).ack_pending <- false;
  let frame =
    {
      Wire.ftype = Wire.Data;
      src;
      dst;
      seq = Int64.of_int seq;
      ack = Int64.of_int (Link.cumulative_ack t.links.(dst).(src).rcv);
      payload;
    }
  in
  route t ~src ~dst ~ftype:Wire.Data (endp_for t ~src ~dst)
    (Wire.encode ~key:t.keys.(src).(dst) frame)

let send_ack t ~src ~dst =
  (* acknowledges data received at [src] over link (dst → src) *)
  let frame =
    {
      Wire.ftype = Wire.Ack;
      src;
      dst;
      seq = 0L;
      ack = Int64.of_int (Link.cumulative_ack t.links.(dst).(src).rcv);
      payload = Bytes.empty;
    }
  in
  route t ~src ~dst ~ftype:Wire.Ack (endp_for t ~src ~dst)
    (Wire.encode ~key:t.keys.(src).(dst) frame)

let send_hello t c =
  let frame =
    {
      Wire.ftype = Wire.Hello;
      src = c.a;
      dst = c.b;
      seq = Int64.of_int c.epoch;
      ack = 0L;
      payload = Bytes.empty;
    }
  in
  route t ~src:c.a ~dst:c.b ~ftype:Wire.Hello c.ea
    (Wire.encode ~key:t.keys.(c.a).(c.b) frame)

let dial t c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.ports.(c.b)))
  with
  | () ->
      Unix.set_nonblock fd;
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      c.ea.fd <- Some fd;
      c.ea.dec <- fresh_decoder t;
      send_hello t c
  | exception Unix.Unix_error _ ->
      close_quiet fd;
      c.down_until <- t.tick + c.backoff;
      c.backoff <- min (c.backoff * 2) max_backoff

(* -- frame dispatch -- *)

exception Conn_poisoned

let on_frame t (e : endp) (f : Wire.frame) =
  t.frames_received <- t.frames_received + 1;
  (* any frame's ack field credits the sender of the (dst → src) data
     direction — for DATA that is the piggyback, for ACK the point *)
  (match f.ftype with
  | Wire.Data | Wire.Ack ->
      ignore (Link.on_ack t.links.(f.dst).(f.src).snd ~ack:(Int64.to_int f.ack))
  | Wire.Hello -> ());
  match f.ftype with
  | Wire.Hello -> ()  (* re-handshake on a live side: nothing to do *)
  | Wire.Ack -> ()
  | Wire.Data ->
      if f.dst <> e.owner then begin
        (* authenticated frame addressed to the wrong side: a wiring
           bug, not a wire fault — poison the connection *)
        t.decode_errors <- t.decode_errors + 1;
        raise Conn_poisoned
      end;
      let dl = t.links.(f.src).(f.dst) in
      let deliveries = Link.on_data dl.rcv ~seq:(Int64.to_int f.seq) f.payload in
      dl.ack_pending <- true;
      List.iter
        (fun payload ->
          match Codec.decode_record payload with
          | exception Codec.Malformed _ ->
              t.decode_errors <- t.decode_errors + 1;
              raise Conn_poisoned
          | engine_seq, deliver_at, msg ->
              Engine.inject t.engine ~src:f.src ~dst:f.dst ~seq:engine_seq
                ~deliver_at msg;
              t.logical_delivered <- t.logical_delivered + 1;
              t.in_flight <- t.in_flight - 1)
        deliveries

let drain_decoder t (e : endp) =
  let rec go () =
    match Wire.next e.dec with
    | Ok None -> ()
    | Ok (Some f) ->
        on_frame t e f;
        go ()
    | Error _err ->
        t.decode_errors <- t.decode_errors + 1;
        raise Conn_poisoned
  in
  go ()

let read_endp t c (e : endp) =
  match e.fd with
  | None -> ()
  | Some fd -> (
      match Unix.read fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> take_down t c  (* peer closed *)
      | len -> (
          Wire.feed e.dec t.scratch ~off:0 ~len;
          try drain_decoder t e with Conn_poisoned -> take_down t c)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> take_down t c)

let write_endp t c (e : endp) =
  match e.fd with
  | None -> ()
  | Some fd -> (
      try
        while not (Queue.is_empty e.outq) do
          let bytes, off = Queue.peek e.outq in
          let len = Bytes.length bytes - !off in
          let n = Unix.write fd bytes !off len in
          off := !off + n;
          if !off = Bytes.length bytes then ignore (Queue.pop e.outq)
          else raise Exit  (* partial write: socket buffer full *)
        done
      with
      | Exit -> ()
      | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | Unix.Unix_error _ -> take_down t c)

(* an accepted fd delivers its HELLO: bind it to its connection *)
let adopt_pending t host fd dec =
  match Wire.next dec with
  | Ok None -> `Wait
  | Ok (Some { Wire.ftype = Wire.Hello; src; dst; _ })
    when dst = host && src < host -> (
      match t.conns.(src).(host) with
      | Some c ->
          (match c.eb.fd with Some old -> close_quiet old | None -> ());
          c.eb.fd <- Some fd;
          c.eb.dec <- dec;
          mark_established t c;
          (* bytes that followed HELLO in the same read *)
          (try drain_decoder t c.eb with Conn_poisoned -> take_down t c);
          `Adopted
      | None -> `Reject)
  | Ok (Some _) | Error _ ->
      t.decode_errors <- t.decode_errors + 1;
      `Reject

(* -- the pump -- *)

let iter_conns t f =
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      match t.conns.(a).(b) with Some c -> f c | None -> ()
    done
  done

let live_pairs t f =
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if src <> dst then f src dst
    done
  done

(* The earliest tick of a scheduled wire event — a (re)transmission, a
   chaos hold release, a re-dial or a flap — or [max_int] if none. *)
let next_event t =
  let next = ref max_int in
  let consider tick = if tick < !next then next := tick in
  live_pairs t (fun src dst ->
      Option.iter consider (Link.next_due t.links.(src).(dst).snd));
  List.iter (fun (release, _, _) -> consider release) t.holds;
  iter_conns t (fun c ->
      if c.ea.fd = None && c.eb.fd = None then consider c.down_until);
  Option.iter
    (fun ch -> Option.iter consider (Wire_chaos.next_flap ch ~after:t.tick))
    t.chaos;
  !next

let pump_once t =
  t.tick <- t.tick + 1;
  (* chaos link flaps *)
  (match t.chaos with
  | None -> ()
  | Some ch ->
      List.iter
        (fun (src, dst, down_for) ->
          let c = conn_of t src dst in
          if c.ea.fd <> None || c.eb.fd <> None then begin
            take_down t c;
            c.down_until <- max c.down_until (t.tick + down_for)
          end)
        (Wire_chaos.flaps_due ch ~tick:t.tick));
  (* release chaos-held frames *)
  (match t.holds with
  | [] -> ()
  | holds ->
      let due, later = List.partition (fun (r, _, _) -> r <= t.tick) holds in
      t.holds <- later;
      List.iter (fun (_, via, bytes) -> enqueue_frame t via bytes) (List.rev due));
  (* re-dial dead connections whose backoff has expired *)
  iter_conns t (fun c ->
      if c.ea.fd = None && c.eb.fd = None && t.tick >= c.down_until then
        dial t c);
  (* move overflow into freed sender windows *)
  live_pairs t (fun src dst ->
      let dl = t.links.(src).(dst) in
      let continue = ref true in
      while !continue && not (Queue.is_empty dl.overflow) do
        match Link.submit dl.snd ~now:t.tick (Queue.peek dl.overflow) with
        | `Accepted _ -> ignore (Queue.pop dl.overflow)
        | `Backpressure -> continue := false
      done);
  (* harvest due (re)transmissions *)
  live_pairs t (fun src dst ->
      List.iter
        (fun (seq, payload) -> send_data t ~src ~dst ~seq payload)
        (Link.due t.links.(src).(dst).snd ~now:t.tick));
  (* owed ACKs *)
  live_pairs t (fun src dst ->
      let dl = t.links.(src).(dst) in
      if dl.ack_pending then begin
        dl.ack_pending <- false;
        send_ack t ~src:dst ~dst:src
      end);
  (* write-through, so the select below can see the peers' answers *)
  iter_conns t (fun c ->
      write_endp t c c.ea;
      write_endp t c c.eb);
  (* I/O round *)
  let reads = ref [] and writes = ref [] in
  Array.iter (fun fd -> reads := fd :: !reads) t.listeners;
  List.iter (fun (_, fd, _) -> reads := fd :: !reads) t.pending;
  iter_conns t (fun c ->
      List.iter
        (fun e ->
          match e.fd with
          | None -> ()
          | Some fd ->
              reads := fd :: !reads;
              if not (Queue.is_empty e.outq) then writes := fd :: !writes)
        [ c.ea; c.eb ]);
  let readable, writable, _ =
    try Unix.select !reads !writes [] 0.001
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  (* idle wire: land on the next event, not one select timeout per tick *)
  if readable = [] && writable = [] && t.pending = [] then begin
    let next = next_event t in
    if next < max_int then t.tick <- max t.tick (next - 1)
  end;
  (* accepts *)
  Array.iteri
    (fun host lfd ->
      if List.memq lfd readable then
        match Unix.accept lfd with
        | fd, _ ->
            Unix.set_nonblock fd;
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            t.pending <- (host, fd, fresh_decoder t) :: t.pending
        | exception Unix.Unix_error _ -> ())
    t.listeners;
  (* pending HELLOs *)
  t.pending <-
    List.filter
      (fun (host, fd, dec) ->
        if not (List.memq fd readable) then true
        else
          match Unix.read fd t.scratch 0 (Bytes.length t.scratch) with
          | 0 ->
              close_quiet fd;
              false
          | len -> (
              Wire.feed dec t.scratch ~off:0 ~len;
              match adopt_pending t host fd dec with
              | `Wait -> true
              | `Adopted -> false
              | `Reject ->
                  close_quiet fd;
                  false)
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
              true
          | exception Unix.Unix_error _ ->
              close_quiet fd;
              false)
      t.pending;
  (* established reads; frames a full socket buffer held back go out in
     the next iteration's write-through *)
  iter_conns t (fun c ->
      List.iter
        (fun e ->
          match e.fd with
          | Some fd when List.memq fd readable -> read_endp t c e
          | _ -> ())
        [ c.ea; c.eb ])

let wire_pump t () =
  if t.closed then false
  else if t.in_flight = 0 then false
  else begin
    let deadline = Unix.gettimeofday () +. t.pump_budget in
    while t.in_flight > 0 do
      if Unix.gettimeofday () > deadline then
        failwith
          (Format.asprintf
             "Netrun: wire stalled — %d logical message(s) undelivered after \
              %.1fs (tick %d)"
             t.in_flight t.pump_budget t.tick);
      pump_once t
    done;
    true
  end

let wire_send t ~src ~dst ~seq ~deliver_at msg =
  t.logical_sent <- t.logical_sent + 1;
  if src = dst then begin
    (* self-delivery never leaves the process: inject directly, same
       heap key, no socket round-trip *)
    Engine.inject t.engine ~src ~dst ~seq ~deliver_at msg;
    t.logical_delivered <- t.logical_delivered + 1
  end
  else begin
    let payload = Codec.encode_record ~engine_seq:seq ~deliver_at msg in
    t.in_flight <- t.in_flight + 1;
    let dl = t.links.(src).(dst) in
    if not (Queue.is_empty dl.overflow) then begin
      (* keep submission order: behind earlier overflow *)
      t.backpressure_stalls <- t.backpressure_stalls + 1;
      Queue.push payload dl.overflow
    end
    else
      match Link.submit dl.snd ~now:t.tick payload with
      | `Accepted _ -> ()
      | `Backpressure ->
          t.backpressure_stalls <- t.backpressure_stalls + 1;
          Queue.push payload dl.overflow
  end

(* -- lifecycle -- *)

let master_key = 0x6e65742d6d616161L

let attach ?chaos ?(rto0 = 8) ?(pump_budget = 30.) ?(chaos_seed = 0x77697265L)
    engine =
  let n = Engine.n engine in
  if n < 1 || n > 255 then invalid_arg "Netrun.attach: n out of frame range";
  let master = Auth.of_master master_key in
  let keys =
    Array.init n (fun src ->
        Array.init n (fun dst -> Auth.derive master ~src ~dst))
  in
  let link_rng = Rng.create (Int64.lognot master_key) in
  let links =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            {
              snd = Link.sender ~rto0 ~rng:(Rng.split link_rng) ();
              rcv = Link.receiver ();
              overflow = Queue.create ();
              ack_pending = false;
            }))
  in
  let listeners =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen fd 64;
        Unix.set_nonblock fd;
        fd)
  in
  let ports =
    Array.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> port
        | _ -> assert false)
      listeners
  in
  let chaos =
    Option.map (fun plan -> Wire_chaos.create ~seed:chaos_seed ~n plan) chaos
  in
  let t =
    {
      engine;
      n;
      keys;
      links;
      conns = Array.make_matrix n n None;
      listeners;
      ports;
      pending = [];
      chaos;
      holds = [];
      tick = 0;
      in_flight = 0;
      pump_budget;
      scratch = Bytes.create 65536;
      logical_sent = 0;
      logical_delivered = 0;
      frames_sent = 0;
      frames_received = 0;
      reconnects = 0;
      backpressure_stalls = 0;
      decode_errors = 0;
      closed = false;
    }
  in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let mk owner =
        { owner; fd = None; dec = fresh_decoder t; outq = Queue.create () }
      in
      t.conns.(a).(b) <-
        Some
          {
            a;
            b;
            ea = mk a;
            eb = mk b;
            down_until = 0;
            backoff = 1;
            epoch = 0;
          }
    done
  done;
  (* establish the full mesh before the first logical send *)
  let deadline = Unix.gettimeofday () +. 10. in
  let all_up () =
    let up = ref true in
    iter_conns t (fun c -> if c.ea.fd = None || c.eb.fd = None then up := false);
    !up
  in
  while not (all_up ()) do
    if Unix.gettimeofday () > deadline then
      failwith "Netrun.attach: could not establish the loopback mesh";
    pump_once t
  done;
  Engine.set_wire engine
    {
      Engine.wire_send = (fun ~src ~dst ~seq ~deliver_at msg ->
          wire_send t ~src ~dst ~seq ~deliver_at msg);
      wire_pump = (fun () -> wire_pump t ());
    };
  t

let kill_connection t ~a ~b =
  let c = conn_of t a b in
  if c.ea.fd <> None || c.eb.fd <> None then take_down t c

let close t =
  if not t.closed then begin
    t.closed <- true;
    Engine.clear_wire t.engine;
    iter_conns t (fun c ->
        (match c.ea.fd with Some fd -> close_quiet fd | None -> ());
        (match c.eb.fd with Some fd -> close_quiet fd | None -> ());
        c.ea.fd <- None;
        c.eb.fd <- None);
    List.iter (fun (_, fd, _) -> close_quiet fd) t.pending;
    t.pending <- [];
    Array.iter close_quiet t.listeners
  end

let stats t =
  let retransmits = ref 0 and dups = ref 0 in
  live_pairs t (fun src dst ->
      retransmits := !retransmits + Link.retransmits t.links.(src).(dst).snd;
      dups := !dups + Link.duplicates t.links.(src).(dst).rcv);
  {
    logical_sent = t.logical_sent;
    logical_delivered = t.logical_delivered;
    frames_sent = t.frames_sent;
    frames_received = t.frames_received;
    retransmits = !retransmits;
    dup_frames = !dups;
    chaos_dropped = (match t.chaos with Some c -> Wire_chaos.dropped c | None -> 0);
    chaos_duplicated =
      (match t.chaos with Some c -> Wire_chaos.duplicated c | None -> 0);
    chaos_held = (match t.chaos with Some c -> Wire_chaos.held c | None -> 0);
    reconnects = t.reconnects;
    backpressure_stalls = t.backpressure_stalls;
    decode_errors = t.decode_errors;
  }
