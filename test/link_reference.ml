(* The list-based perfect link, kept as a test oracle (test_net.ml runs
   it and the ring-based [Link] on the same generated streams, with the
   same jitter seed, and compares every transmission, delivery and
   counter): unacked entries in an ascending list appended with [@],
   [due] and [on_ack] rebuilding it, and every arrival, in order or not,
   going through the reorder table. *)

(* -- sender -- *)

type entry = {
  seq : int;
  payload : Bytes.t;
  mutable next_due : int;
  mutable rto : int;
  mutable tx : int;  (* transmissions so far *)
}

type sender = {
  mutable next_seq : int;
  mutable unacked : entry list;  (* ascending seq *)
  mutable unacked_len : int;
  window : int;
  rto0 : int;
  rto_max : int;
  rng : Rng.t;
  mutable retransmits : int;
}

let sender ?(window = 64) ?(rto0 = 8) ?(rto_max = 256) ~rng () =
  if window < 1 then invalid_arg "Link.sender: window must be >= 1";
  if rto0 < 1 || rto_max < rto0 then invalid_arg "Link.sender: bad rto";
  {
    next_seq = 1;
    unacked = [];
    unacked_len = 0;
    window;
    rto0;
    rto_max;
    rng;
    retransmits = 0;
  }

let in_flight s = s.unacked_len
let retransmits s = s.retransmits

let submit s ~now payload =
  if s.unacked_len >= s.window then `Backpressure
  else begin
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let e = { seq; payload; next_due = now; rto = s.rto0; tx = 0 } in
    s.unacked <- s.unacked @ [ e ];
    s.unacked_len <- s.unacked_len + 1;
    `Accepted seq
  end

(* Jitter in [0, rto/4]: enough to desynchronise links, small enough
   that the backoff cap still bounds the inter-retransmit gap. *)
let jitter s rto = if rto < 4 then 0 else Rng.int s.rng (1 + (rto / 4))

let due s ~now =
  List.filter_map
    (fun e ->
      if e.next_due > now then None
      else begin
        if e.tx > 0 then s.retransmits <- s.retransmits + 1;
        e.tx <- e.tx + 1;
        e.next_due <- now + e.rto + jitter s e.rto;
        e.rto <- min (e.rto * 2) s.rto_max;
        Some (e.seq, e.payload)
      end)
    s.unacked

let next_due s =
  match s.unacked with
  | [] -> None
  | e :: rest ->
      Some (List.fold_left (fun d e -> min d e.next_due) e.next_due rest)

let on_ack s ~ack =
  let keep = List.filter (fun e -> e.seq > ack) s.unacked in
  let freed = s.unacked_len - List.length keep in
  s.unacked <- keep;
  s.unacked_len <- s.unacked_len - freed;
  freed

let mark_replay s =
  List.iter
    (fun e ->
      e.next_due <- 0;
      e.rto <- s.rto0)
    s.unacked

(* -- receiver -- *)

type receiver = {
  mutable delivered : int;  (* highest in-order seq delivered *)
  pending : (int, Bytes.t) Hashtbl.t;
  rwindow : int;
  mutable dups : int;
}

let receiver ?(window = 256) () =
  if window < 1 then invalid_arg "Link.receiver: window must be >= 1";
  { delivered = 0; pending = Hashtbl.create 16; rwindow = window; dups = 0 }

let cumulative_ack r = r.delivered
let duplicates r = r.dups

let on_data r ~seq payload =
  if seq <= r.delivered || Hashtbl.mem r.pending seq then begin
    (* replay (retransmission of something already seen): count and let
       the caller re-ACK so a lost ACK can't wedge the sender *)
    r.dups <- r.dups + 1;
    []
  end
  else if seq > r.delivered + r.rwindow then
    (* beyond the reorder buffer: drop, the sender's timer will retry
       once the window has advanced *)
    []
  else begin
    Hashtbl.replace r.pending seq payload;
    let rec drain acc =
      match Hashtbl.find_opt r.pending (r.delivered + 1) with
      | None -> List.rev acc
      | Some p ->
          Hashtbl.remove r.pending (r.delivered + 1);
          r.delivered <- r.delivered + 1;
          drain (p :: acc)
    in
    drain []
  end
