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
   this process: a connection is a pair of [endp]s, each with its own
   fd, decoder and output buffer, and frames are coded in place in
   those. A dead connection (EOF, write error,
   decode error, chaos flap, or the kill test hook) takes both sides
   down; the dialer re-dials after a capped exponential backoff and both
   directions replay their unacked backlog ([Link.mark_replay]) —
   cumulative ACKs make the replay idempotent.

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

(* one side of a TCP connection *)
type endp = {
  owner : int;  (* party holding this side *)
  mutable fd : Unix.file_descr option;
  mutable dec : Wire.decoder;
  out : Wire.out;  (* encoded frames awaiting the socket *)
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

(* one directed link; its callbacks are made once, not per frame *)
type dlink = {
  snd : Link.sender;
  rcv : Link.receiver;
  overflow : Bytes.t Queue.t;  (* payloads the sender window rejected *)
  mutable ack_pending : bool;  (* receiver owes a (re-)ACK *)
  transmit : int -> Bytes.t -> unit;  (* [Link.due]'s: one DATA frame out *)
  deliver : Bytes.t -> int -> int -> unit;  (* [Link.on_data]'s: inject *)
}

type t = {
  engine : Message.t Engine.t;
  n : int;
  keys : Auth.key array array;
  mutable links : dlink array array;  (* [src].[dst]; set once by attach *)
  conns : conn array;  (* pair (a, b) at [pair_index] *)
  listeners : Unix.file_descr array;
  ports : int array;
  mutable pending : (int * Unix.file_descr * Wire.decoder) list;
      (* accepted, awaiting HELLO: (host party, fd, decoder) *)
  mutable reads : Unix.file_descr list;  (* the select read set *)
  mutable reads_stale : bool;  (* a descriptor came or went since *)
  chaos : Wire_chaos.t option;
  mutable holds : (int * endp * Auth.key * Wire.frame) list;
      (* chaos-held frames: (release tick, via, key, frame) *)
  mutable tick : int;
  mutable in_flight : int;  (* logical msgs handed to us, not yet injected *)
  pump_budget : float;  (* seconds of wall per pump call *)
  reader : Codec.reader;
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

(* the pairs a < b in row-major order *)
let pair_index n a b = (a * ((2 * n) - a - 1) / 2) + (b - a - 1)
let conn_of t i j = t.conns.(pair_index t.n (min i j) (max i j))
let dead c = c.ea.fd = None && c.eb.fd = None

(* every fd change goes through these, to rebuild the cached read set *)
let set_fd t (e : endp) fd =
  (match e.fd with Some old -> close_quiet old | None -> ());
  e.fd <- fd;
  t.reads_stale <- true

let set_pending t pending =
  t.pending <- pending;
  t.reads_stale <- true

let take_down t c =
  List.iter
    (fun e ->
      set_fd t e None;
      Wire.clear e.out;
      Wire.reset e.dec)
    [ c.ea; c.eb ];
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

(* With no fd the frame is dropped: retransmission covers DATA,
   receivers re-ACK on the duplicate, the dialer re-sends HELLO. *)
let put t (via : endp) ~key ftype ~src ~dst ~seq ~ack payload =
  if via.fd <> None then begin
    t.frames_sent <- t.frames_sent + 1;
    Wire.put via.out ~key ftype ~src ~dst ~seq ~ack payload
  end

(* one frame of the directed link (src, dst) through chaos; [via] is the
   sending side. A held frame keeps its fields, the ack included, and is
   encoded when released. *)
let route t ~src ~dst ftype (via : endp) ~seq ~ack payload =
  let key = t.keys.(src).(dst) in
  match t.chaos with
  | None -> put t via ~key ftype ~src ~dst ~seq ~ack payload
  | Some ch -> (
      match Wire_chaos.on_frame ch ~src ~dst ~ftype ~tick:t.tick with
      | Wire_chaos.Drop_frame -> ()
      | Wire_chaos.Deliver delays ->
          List.iter
            (fun d ->
              if d <= 0 then put t via ~key ftype ~src ~dst ~seq ~ack payload
              else
                let frame = { Wire.ftype; src; dst; seq; ack; payload } in
                t.holds <- (t.tick + d, via, key, frame) :: t.holds)
            delays)

let endp_for t ~src ~dst =
  let c = conn_of t src dst in
  if src = c.a then c.ea else c.eb

(* send a DATA frame for directed link (src, dst), piggybacking src's
   cumulative ack for the reverse direction, which settles an owed ACK
   (if lost, the peer retransmits and the duplicate is re-ACKed) *)
let send_data t ~src ~dst ~seq payload =
  let back = t.links.(dst).(src) in
  back.ack_pending <- false;
  route t ~src ~dst Wire.Data (endp_for t ~src ~dst) ~seq
    ~ack:(Link.cumulative_ack back.rcv) payload

(* acknowledges data received at [src] over link (dst → src) *)
let send_ack t ~src ~dst =
  route t ~src ~dst Wire.Ack (endp_for t ~src ~dst) ~seq:0
    ~ack:(Link.cumulative_ack t.links.(dst).(src).rcv)
    Bytes.empty

let nonblocking fd =
  Unix.set_nonblock fd;
  Unix.setsockopt fd Unix.TCP_NODELAY true

let dial t c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.ports.(c.b))) with
  | () ->
      nonblocking fd;
      set_fd t c.ea (Some fd);
      route t ~src:c.a ~dst:c.b Wire.Hello c.ea ~seq:c.epoch ~ack:0 Bytes.empty
  | exception Unix.Unix_error _ ->
      close_quiet fd;
      c.down_until <- t.tick + c.backoff;
      c.backoff <- min (c.backoff * 2) max_backoff

(* -- frame dispatch -- *)

exception Conn_poisoned

let poisoned t =
  t.decode_errors <- t.decode_errors + 1;
  raise Conn_poisoned

(* [Link.on_data]'s callback for link (src, dst): one in-order record *)
let deliver t ~src ~dst buf off len =
  match Codec.read_record t.reader buf ~off ~len with
  | exception Codec.Malformed _ -> poisoned t
  | msg ->
      Engine.inject t.engine ~src ~dst ~seq:(Codec.engine_seq t.reader)
        ~deliver_at:(Codec.deliver_at t.reader) msg;
      t.logical_delivered <- t.logical_delivered + 1;
      t.in_flight <- t.in_flight - 1

(* the decoder's current frame *)
let on_frame t (e : endp) =
  let d = e.dec in
  t.frames_received <- t.frames_received + 1;
  let src = Wire.src d and dst = Wire.dst d in
  (* an ACK, or a DATA frame's piggybacked ack, credits the sender of
     the (dst → src) data direction *)
  if Wire.ftype d <> Wire.Hello then
    ignore (Link.on_ack t.links.(dst).(src).snd ~ack:(Wire.ack d));
  if Wire.ftype d = Wire.Data then begin
    (* authenticated but addressed to the wrong side: a wiring bug, not
       a wire fault *)
    if dst <> e.owner then poisoned t;
    let dl = t.links.(src).(dst) in
    dl.ack_pending <- true;
    Link.on_data dl.rcv ~seq:(Wire.seq d) (Wire.payload d) ~off:(Wire.payload_off d)
      ~len:(Wire.payload_len d) dl.deliver
  end

let rec drain_decoder t (e : endp) =
  match Wire.next e.dec with
  | Ok false -> ()
  | Ok true ->
      on_frame t e;
      drain_decoder t e
  | Error _ -> poisoned t

let read_endp t c (e : endp) readable =
  match e.fd with
  | Some fd when List.memq fd readable -> (
      match Wire.read_from e.dec fd with
      | 0 -> take_down t c  (* peer closed *)
      | _ -> ( try drain_decoder t e with Conn_poisoned -> take_down t c)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> take_down t c)
  | _ -> ()

(* one write of everything queued; what a full socket buffer held back
   goes out in the next iteration's write-through *)
let write_endp t c (e : endp) =
  match e.fd with
  | Some fd when Wire.pending e.out > 0 -> (
      try Wire.write_to e.out fd with
      | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | Unix.Unix_error _ -> take_down t c)
  | _ -> ()

(* a socket buffer that is full: select waits for it to drain *)
let blocked (e : endp) writes =
  match e.fd with Some fd when Wire.pending e.out > 0 -> fd :: writes | _ -> writes

(* An accepted fd awaiting its HELLO, which binds it to its connection:
   [false] once it is adopted or closed. *)
let keep_pending t readable (host, fd, dec) =
  let drop () =
    close_quiet fd;
    false
  in
  if not (List.memq fd readable) then true
  else
    match Wire.read_from dec fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> drop ()
    | 0 -> drop ()
    | _ -> (
        match Wire.next dec with
        | Ok false -> true
        | Ok true when Wire.(ftype dec = Hello && dst dec = host && src dec < host) ->
            let c = conn_of t (Wire.src dec) host in
            set_fd t c.eb (Some fd);
            c.eb.dec <- dec;
            mark_established t c;
            (* bytes that followed HELLO in the same read *)
            (try drain_decoder t c.eb with Conn_poisoned -> take_down t c);
            false
        | Ok true | Error _ ->
            t.decode_errors <- t.decode_errors + 1;
            drop ())

(* -- the pump -- *)

let read_set t =
  if t.reads_stale then begin
    let fds = List.concat_map (fun c -> [ c.ea.fd; c.eb.fd ]) (Array.to_list t.conns) in
    t.reads <-
      Array.to_list t.listeners
      @ List.map (fun (_, fd, _) -> fd) t.pending
      @ List.filter_map Fun.id fds;
    t.reads_stale <- false
  end;
  t.reads

let rec earliest_release next = function
  | [] -> next
  | (release, _, _, _) :: rest -> earliest_release (min next release) rest

(* The earliest tick of a scheduled wire event — a (re)transmission, a
   chaos hold release, a re-dial or a flap — or [max_int] if none. *)
let next_event t =
  let next = ref (earliest_release max_int t.holds) in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if src <> dst then next := min !next (Link.next_due t.links.(src).(dst).snd)
    done
  done;
  for i = 0 to Array.length t.conns - 1 do
    if dead t.conns.(i) then next := min !next t.conns.(i).down_until
  done;
  match t.chaos with
  | Some ch -> (
      match Wire_chaos.next_flap ch ~after:t.tick with
      | Some flap -> min !next flap
      | None -> !next)
  | None -> !next

(* chaos link flaps, then the release of chaos-held frames *)
let chaos_round t ch =
  List.iter
    (fun (src, dst, down_for) ->
      let c = conn_of t src dst in
      if not (dead c) then begin
        take_down t c;
        c.down_until <- max c.down_until (t.tick + down_for)
      end)
    (Wire_chaos.flaps_due ch ~tick:t.tick);
  let due, later = List.partition (fun (r, _, _, _) -> r <= t.tick) t.holds in
  t.holds <- later;
  List.iter
    (fun (_, via, key, (f : Wire.frame)) ->
      put t via ~key f.ftype ~src:f.src ~dst:f.dst ~seq:f.seq ~ack:f.ack f.payload)
    (List.rev due)

let pump_once t =
  t.tick <- t.tick + 1;
  (match t.chaos with Some ch -> chaos_round t ch | None -> ());
  (* re-dial dead connections whose backoff has expired *)
  for i = 0 to Array.length t.conns - 1 do
    let c = t.conns.(i) in
    if dead c && t.tick >= c.down_until then dial t c
  done;
  (* move overflow into freed sender windows, harvest due
     (re)transmissions, then owed ACKs *)
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if src <> dst then begin
        let dl = t.links.(src).(dst) in
        while (not (Queue.is_empty dl.overflow)) && not (Link.full dl.snd) do
          ignore (Link.submit dl.snd ~now:t.tick (Queue.pop dl.overflow))
        done;
        Link.due dl.snd ~now:t.tick dl.transmit
      end
    done
  done;
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      let dl = t.links.(src).(dst) in
      if src <> dst && dl.ack_pending then begin
        dl.ack_pending <- false;
        send_ack t ~src:dst ~dst:src
      end
    done
  done;
  (* write-through, so the select below can see the peers' answers *)
  let writes = ref [] in
  for i = 0 to Array.length t.conns - 1 do
    let c = t.conns.(i) in
    write_endp t c c.ea;
    write_endp t c c.eb;
    writes := blocked c.eb (blocked c.ea !writes)
  done;
  (* I/O round *)
  let readable, writable, _ =
    try Unix.select (read_set t) !writes [] 0.001
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  (* idle wire: land on the next event, not one select timeout per tick *)
  if readable = [] && writable = [] && t.pending = [] then begin
    let next = next_event t in
    if next < max_int then t.tick <- max t.tick (next - 1)
  end;
  if readable <> [] then begin
    for host = 0 to t.n - 1 do
      if List.memq t.listeners.(host) readable then
        match Unix.accept t.listeners.(host) with
        | fd, _ ->
            nonblocking fd;
            let dec = Wire.decoder ~n:t.n ~key_of:(fun ~src ~dst -> t.keys.(src).(dst)) in
            set_pending t ((host, fd, dec) :: t.pending)
        | exception Unix.Unix_error _ -> ()
    done;
    if t.pending <> [] then set_pending t (List.filter (keep_pending t readable) t.pending);
    for i = 0 to Array.length t.conns - 1 do
      read_endp t t.conns.(i) t.conns.(i).ea readable;
      read_endp t t.conns.(i) t.conns.(i).eb readable
    done
  end

let wire_pump t =
  if t.closed || t.in_flight = 0 then false
  else begin
    let deadline = Unix.gettimeofday () +. t.pump_budget in
    while t.in_flight > 0 do
      if Unix.gettimeofday () > deadline then
        failwith
          (Format.asprintf
             "Netrun: wire stalled — %d logical message(s) undelivered after %.1fs \
              (tick %d)"
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
    (* the one allocation the wire keeps: the payload, until acked *)
    let payload = Codec.encode_record ~engine_seq:seq ~deliver_at msg in
    t.in_flight <- t.in_flight + 1;
    let dl = t.links.(src).(dst) in
    (* behind earlier overflow, to keep submission order *)
    if Queue.is_empty dl.overflow && not (Link.full dl.snd) then
      ignore (Link.submit dl.snd ~now:t.tick payload)
    else begin
      t.backpressure_stalls <- t.backpressure_stalls + 1;
      Queue.push payload dl.overflow
    end
  end

(* -- lifecycle -- *)

let master_key = 0x6e65742d6d616161L

let attach ?chaos ?(rto0 = 8) ?(pump_budget = 30.) ?(chaos_seed = 0x77697265L) engine =
  let n = Engine.n engine in
  if n < 1 || n > 255 then invalid_arg "Netrun.attach: n out of frame range";
  let master = Auth.of_master master_key in
  let keys =
    Array.init n (fun src -> Array.init n (fun dst -> Auth.derive master ~src ~dst))
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
  let port fd =
    match Unix.getsockname fd with Unix.ADDR_INET (_, port) -> port | _ -> assert false
  in
  let key_of ~src ~dst = keys.(src).(dst) in
  let endp owner = { owner; fd = None; dec = Wire.decoder ~n ~key_of; out = Wire.out () } in
  let pairs = List.init n (fun a -> List.init (n - a - 1) (fun k -> (a, a + 1 + k))) in
  let conn (a, b) =
    { a; b; ea = endp a; eb = endp b; down_until = 0; backoff = 1; epoch = 0 }
  in
  let t =
    {
      engine;
      n;
      keys;
      links = [||];
      conns = Array.of_list (List.map conn (List.concat pairs));
      listeners;
      ports = Array.map port listeners;
      pending = [];
      reads = [];
      reads_stale = true;
      chaos = Option.map (fun plan -> Wire_chaos.create ~seed:chaos_seed ~n plan) chaos;
      holds = [];
      tick = 0;
      in_flight = 0;
      pump_budget;
      reader = Codec.reader ();
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
  let link_rng = Rng.create (Int64.lognot master_key) in
  t.links <-
    Array.init n (fun src ->
        Array.init n (fun dst ->
            {
              snd = Link.sender ~rto0 ~rng:(Rng.split link_rng) ();
              rcv = Link.receiver ();
              overflow = Queue.create ();
              ack_pending = false;
              transmit = (fun seq payload -> send_data t ~src ~dst ~seq payload);
              deliver = (fun buf off len -> deliver t ~src ~dst buf off len);
            }));
  (* establish the full mesh before the first logical send *)
  let deadline = Unix.gettimeofday () +. 10. in
  while Array.exists (fun c -> c.ea.fd = None || c.eb.fd = None) t.conns do
    if Unix.gettimeofday () > deadline then
      failwith "Netrun.attach: could not establish the loopback mesh";
    pump_once t
  done;
  Engine.set_wire engine
    {
      Engine.wire_send = (fun ~src ~dst ~seq ~deliver_at msg ->
          wire_send t ~src ~dst ~seq ~deliver_at msg);
      wire_pump = (fun () -> wire_pump t);
    };
  t

let kill_connection t ~a ~b =
  let c = conn_of t a b in
  if not (dead c) then take_down t c

let close t =
  if not t.closed then begin
    t.closed <- true;
    Engine.clear_wire t.engine;
    Array.iter (take_down t) t.conns;
    List.iter (fun (_, fd, _) -> close_quiet fd) t.pending;
    set_pending t [];
    Array.iter close_quiet t.listeners
  end

let stats t =
  let sum f = Array.fold_left (Array.fold_left (fun acc dl -> acc + f dl)) 0 t.links in
  {
    logical_sent = t.logical_sent;
    logical_delivered = t.logical_delivered;
    frames_sent = t.frames_sent;
    frames_received = t.frames_received;
    retransmits = sum (fun dl -> Link.retransmits dl.snd);
    dup_frames = sum (fun dl -> Link.duplicates dl.rcv);
    chaos_dropped = Option.fold ~none:0 ~some:Wire_chaos.dropped t.chaos;
    chaos_duplicated = Option.fold ~none:0 ~some:Wire_chaos.duplicated t.chaos;
    chaos_held = Option.fold ~none:0 ~some:Wire_chaos.held t.chaos;
    reconnects = t.reconnects;
    backpressure_stalls = t.backpressure_stalls;
    decode_errors = t.decode_errors;
  }
