(* The perfect-link layer: retransmit/ACK state machines for one
   directed link.

   The model's channels are perfect — every sent message is eventually
   delivered, exactly once, authenticated. TCP plus the frame MAC gives
   most of that until a connection dies; this layer closes the gap with
   sequence numbers, cumulative ACKs, bounded retransmission state and
   replay-on-reconnect, so the layer above (the simulator engine acting
   as scheduler) can treat the wire as lossless.

   Both state machines are pure with respect to time: every operation
   takes [~now] (a wire tick), nothing reads a real clock, and the
   retransmission schedule is a deterministic function of the submission
   ticks, the ACK ticks and the seeded jitter stream — which is what
   lets the unit tests pin the exact schedule against a fake clock.

   Sender: sequence numbers from 1; a bounded in-flight window ([full]
   says when — the caller queues above, nothing is silently dropped);
   per-entry retransmission timer with exponential backoff, capped, plus
   a small deterministic jitter drawn from the link's RNG stream so
   simultaneous links don't beat in lockstep. First transmission and
   retransmissions alike are harvested by [due] — the caller owns socket
   I/O and its timing. Cumulative ACKs retire a prefix, so the unacked
   entries are the consecutive seqs [next_seq - count, next_seq) in a
   ring, which doubles as needed up to [window] entries and is reused.

   Receiver: delivers strictly in sequence order; an in-order arrival is
   handed straight through, a bounded reorder table holds copies of early
   arrivals; duplicates and stale frames are counted and re-ACKed (a lost
   ACK must not wedge the sender), frames beyond the table's window are
   dropped for the sender to retry later. The cumulative ACK is simply
   the highest in-order sequence delivered. *)

(* -- sender -- *)

type entry = {
  mutable payload : Bytes.t;
  mutable next_due : int;
  mutable rto : int;
  mutable tx : int;  (* transmissions so far *)
}

type sender = {
  mutable ring : entry array;
  window : int;
  mutable head : int;  (* ring index of the oldest unacked entry *)
  mutable count : int;  (* unacked entries *)
  mutable next_seq : int;
  rto0 : int;
  rto_max : int;
  rng : Rng.t;
  mutable retransmits : int;
}

let fresh _ = { payload = Bytes.empty; next_due = 0; rto = 0; tx = 0 }

let sender ?(window = 64) ?(rto0 = 8) ?(rto_max = 256) ~rng () =
  if window < 1 then invalid_arg "Link.sender: window must be >= 1";
  if rto0 < 1 || rto_max < rto0 then invalid_arg "Link.sender: bad rto";
  let ring = Array.init (min window 4) fresh in
  { ring; window; head = 0; count = 0; next_seq = 1; rto0; rto_max; rng; retransmits = 0 }

let in_flight s = s.count
let retransmits s = s.retransmits
let full s = s.count = s.window

(* the [k]-th oldest unacked entry, seq [next_seq - count + k] *)
let entry s k = s.ring.((s.head + k) mod Array.length s.ring)

let submit s ~now payload =
  if full s then invalid_arg "Link.submit: window full";
  if s.count = Array.length s.ring then begin
    let more = min s.window (2 * s.count) - s.count in
    s.ring <- Array.append (Array.init s.count (entry s)) (Array.init more fresh);
    s.head <- 0
  end;
  let e = entry s s.count in
  e.payload <- payload;
  e.next_due <- now;
  e.rto <- s.rto0;
  e.tx <- 0;
  s.count <- s.count + 1;
  s.next_seq <- s.next_seq + 1;
  s.next_seq - 1

(* Jitter in [0, rto/4]: enough to desynchronise links, small enough
   that the backoff cap still bounds the inter-retransmit gap. *)
let jitter s rto = if rto < 4 then 0 else Rng.int s.rng (1 + (rto / 4))

let due s ~now f =
  for k = 0 to s.count - 1 do
    let e = entry s k in
    if e.next_due <= now then begin
      if e.tx > 0 then s.retransmits <- s.retransmits + 1;
      e.tx <- e.tx + 1;
      e.next_due <- now + e.rto + jitter s e.rto;
      e.rto <- min (e.rto * 2) s.rto_max;
      f (s.next_seq - s.count + k) e.payload
    end
  done

let next_due s =
  let d = ref max_int in
  for k = 0 to s.count - 1 do
    d := min !d (entry s k).next_due
  done;
  !d

let on_ack s ~ack =
  let freed = max 0 (min s.count (ack - (s.next_seq - s.count) + 1)) in
  for _ = 1 to freed do
    s.ring.(s.head).payload <- Bytes.empty;
    s.head <- (s.head + 1) mod Array.length s.ring
  done;
  s.count <- s.count - freed;
  freed

let mark_replay s =
  for k = 0 to s.count - 1 do
    (entry s k).next_due <- 0;
    (entry s k).rto <- s.rto0
  done

(* -- receiver -- *)

type receiver = {
  mutable delivered : int;  (* highest in-order seq delivered *)
  pending : (int, Bytes.t) Hashtbl.t;  (* copies of early arrivals *)
  rwindow : int;
  mutable dups : int;
}

let receiver ?(window = 256) () =
  if window < 1 then invalid_arg "Link.receiver: window must be >= 1";
  { delivered = 0; pending = Hashtbl.create 16; rwindow = window; dups = 0 }

let cumulative_ack r = r.delivered
let duplicates r = r.dups

(* the early arrivals that [delivered] has caught up with *)
let rec drain r f =
  if Hashtbl.length r.pending > 0 then
    match Hashtbl.find_opt r.pending (r.delivered + 1) with
    | None -> ()
    | Some p ->
        Hashtbl.remove r.pending (r.delivered + 1);
        r.delivered <- r.delivered + 1;
        f p 0 (Bytes.length p);
        drain r f

let on_data r ~seq buf ~off ~len f =
  if seq <= r.delivered || Hashtbl.mem r.pending seq then
    (* replay (retransmission of something already seen): count and let
       the caller re-ACK so a lost ACK can't wedge the sender *)
    r.dups <- r.dups + 1
  else if seq > r.delivered + r.rwindow then
    (* beyond the reorder buffer: drop, the sender's timer will retry
       once the window has advanced *)
    ()
  else if seq > r.delivered + 1 then
    Hashtbl.replace r.pending seq (Bytes.sub buf off len)
  else begin
    r.delivered <- seq;
    f buf off len;
    drain r f
  end
