type time = int

type 'msg event = 'msg Transport.event =
  | Deliver of { src : int; msg : 'msg }
  | Timer of int

type delay_policy = rng:Rng.t -> now:time -> src:int -> dst:int -> time

type 'msg wire = {
  wire_send : src:int -> dst:int -> seq:int -> deliver_at:time -> 'msg -> unit;
  wire_pump : unit -> bool;
}

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_delivered : int;
  final_time : time;
  events_processed : int;
  party_failures : int;
}

type failure = { party : int; at : time; reason : string }

type isolation = [ `Fail_fast | `Isolate ]

type stop_reason = [ `Quiescent | `Past_until | `Event_budget | `Cancelled ]

type 'msg trace_event =
  | Sent of { src : int; dst : int; at : time; deliver_at : time; msg : 'msg }
  | Delivered of { src : int; dst : int; at : time; msg : 'msg }
  | Timer_fired of { party : int; at : time; tag : int }
  | Party_failed of failure

type 'msg choice = {
  ch_at : time;
  ch_seq : int;
  ch_target : int;
  ch_event : 'msg event;
}

type 'msg t = {
  n : int;
  policy : delay_policy;
  rng : Rng.t;
  size_of : 'msg -> int;
  queue : 'msg event Heap.Keyed.t;  (* aux rider = delivery target *)
  handlers : ('msg event -> unit) option array;
  flushers : (final:bool -> unit) option array;
  mutable wire : 'msg wire option;
  classify : ('msg -> (int -> int -> unit) -> unit) option;
  emit : int -> int -> unit;  (* [classify]'s accumulator, built once *)
  fanout : int ref;  (* copies [emit] counts per entry: n in a broadcast *)
  class_msgs : int array;
  class_bytes : int array;
  mutable has_flushers : bool;
  mutable flushed_upto : time;  (* last tick whose flushers have run *)
  mutable tracer : ('msg trace_event -> unit) option;
  mutable chooser : ('msg choice array -> int) option;
  mutable isolation : isolation;
  mutable stop_reason : stop_reason;
  mutable failures : failure list;  (* reverse chronological *)
  mutable now : time;
  mutable seq : int;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_delivered : int;
  mutable events_processed : int;
}

(* The queue orders events by (delivery time, push sequence), packed into
   one int key so the heap sifts on immediate integer comparisons — this
   runs O(log queue) times per event and used to be a polymorphic-compare
   C call each time. [seq_bits] caps one run at 2^31 pushes and 2^31
   ticks, both far beyond [max_events]; ties are impossible because [seq]
   is distinct per push, so the pop order is exactly the old (at, seq)
   lexicographic order. *)
let seq_bits = 31

let create ?(seed = 0x5eedL) ?(size_of = fun _ -> 0) ?(classes = 0) ?classify
    ~n ~policy () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  if classes < 0 then invalid_arg "Engine.create: classes must be >= 0";
  let class_msgs = Array.make classes 0 and class_bytes = Array.make classes 0 in
  let fanout = ref 1 in
  {
    n;
    policy;
    rng = Rng.create seed;
    size_of;
    queue = Heap.Keyed.create ();
    handlers = Array.make n None;
    flushers = Array.make n None;
    wire = None;
    classify = (if classes = 0 then None else classify);
    emit =
      (fun klass bytes ->
        class_msgs.(klass) <- class_msgs.(klass) + !fanout;
        class_bytes.(klass) <- class_bytes.(klass) + (!fanout * bytes));
    fanout;
    class_msgs;
    class_bytes;
    has_flushers = false;
    flushed_upto = -1;
    tracer = None;
    chooser = None;
    isolation = `Fail_fast;
    stop_reason = `Quiescent;
    failures = [];
    now = 0;
    seq = 0;
    messages_sent = 0;
    bytes_sent = 0;
    messages_delivered = 0;
    events_processed = 0;
  }

let n t = t.n
let now t = t.now
let rng t = t.rng

let set_party t i handler =
  if i < 0 || i >= t.n then invalid_arg "Engine.set_party: bad party";
  t.handlers.(i) <- Some handler

let clear_party t i =
  t.handlers.(i) <- None;
  t.flushers.(i) <- None

let set_flusher t i f =
  if i < 0 || i >= t.n then invalid_arg "Engine.set_flusher: bad party";
  t.flushers.(i) <- Some f;
  t.has_flushers <- true

let wrap_party t i f =
  if i < 0 || i >= t.n then invalid_arg "Engine.wrap_party: bad party";
  match t.handlers.(i) with
  | Some h -> t.handlers.(i) <- Some (f h)
  | None -> ()

let set_isolation t mode = t.isolation <- mode
let stop_reason t = t.stop_reason
let failures t = List.rev t.failures
let set_chooser t f = t.chooser <- Some f
let has_handler t i = i >= 0 && i < t.n && t.handlers.(i) <> None

let pending t =
  let acc = ref [] in
  Heap.Keyed.iter t.queue (fun ~key ~aux ev ->
      acc :=
        {
          ch_at = key lsr seq_bits;
          ch_seq = key land ((1 lsl seq_bits) - 1);
          ch_target = aux;
          ch_event = ev;
        }
        :: !acc);
  List.sort (fun a b -> compare (a.ch_at, a.ch_seq) (b.ch_at, b.ch_seq)) !acc

let push t ~at ~target ev =
  let at = Int.max at t.now in
  t.seq <- t.seq + 1;
  Heap.Keyed.push t.queue ~key:((at lsl seq_bits) lor t.seq) ~aux:target ev

let set_wire t w = t.wire <- Some w
let clear_wire t = t.wire <- None

(* Re-insertion point for a wire backend: the message was sent earlier
   (its sequence number was allocated then, its stats were counted then)
   and has now physically arrived, so it enters the heap under exactly
   the key a direct [push] would have used at send time. The pop order
   of a wire run is therefore identical to the simulator's. *)
let inject t ~src ~dst ~seq ~deliver_at msg =
  if dst < 0 || dst >= t.n then invalid_arg "Engine.inject: bad destination";
  let at = Int.max deliver_at t.now in
  Heap.Keyed.push t.queue ~key:((at lsl seq_bits) lor seq) ~aux:dst
    (Deliver { src; msg })

(* Accounting for [copies] sends of one message: the size and the class
   fold run once, the counts scale. *)
let account t msg copies =
  t.messages_sent <- t.messages_sent + copies;
  t.bytes_sent <- t.bytes_sent + (copies * t.size_of msg);
  match t.classify with
  | Some f ->
      t.fanout := copies;
      f msg t.emit;
      t.fanout := 1
  | None -> ()

(* The per-destination half of a send: the policy draw, the [Sent] trace
   and the hand-off of [ev] (a [Deliver] of [msg] from [src]). *)
let dispatch t ~src ~dst msg ev =
  let delay = Int.max 1 (t.policy ~rng:t.rng ~now:t.now ~src ~dst) in
  let deliver_at = t.now + delay in
  (match t.tracer with
  | Some f -> f (Sent { src; dst; at = t.now; deliver_at; msg })
  | None -> ());
  match t.wire with
  | None -> push t ~at:deliver_at ~target:dst ev
  | Some w ->
      (* the sequence number is allocated here, in global send order, and
         travels with the message so [inject] can reproduce the heap key *)
      t.seq <- t.seq + 1;
      w.wire_send ~src ~dst ~seq:t.seq ~deliver_at msg

let send t ~src ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Engine.send: bad destination";
  account t msg 1;
  dispatch t ~src ~dst msg (Deliver { src; msg })

(* One immutable event record serves every destination: the queue only
   reads it, and the handler learns its own index from the heap rider. *)
let broadcast t ~src msg =
  account t msg t.n;
  let ev = Deliver { src; msg } in
  for dst = 0 to t.n - 1 do
    dispatch t ~src ~dst msg ev
  done

let set_timer t ~party ~at ~tag =
  if party < 0 || party >= t.n then invalid_arg "Engine.set_timer: bad party";
  push t ~at ~target:party (Timer tag)

let endpoint t ~me : 'msg Transport.endpoint =
  if me < 0 || me >= t.n then invalid_arg "Engine.endpoint: bad party";
  {
    Transport.me;
    n = t.n;
    now = (fun () -> t.now);
    send_all = (fun msg -> broadcast t ~src:me msg);
    set_timer = (fun ~at ~tag -> set_timer t ~party:me ~at ~tag);
    register_flush = (fun f -> set_flusher t me f);
    set_handler = (fun h -> set_party t me h);
  }

let quiescent t = Heap.Keyed.is_empty t.queue

(* End-of-tick flush: registered flushers run (in party-index order, for
   determinism) at most once per tick value, exactly when the loop is
   about to advance time past [t.now] — or when the queue drains. Flushed
   sends have delay ≥ 1, so a flush can never re-trigger at the same
   tick; returning [true] makes the caller re-examine the queue, because
   flushing typically enqueues new events below the previously peeked
   minimum. *)
let flush_tick t =
  if t.has_flushers && t.flushed_upto < t.now then begin
    t.flushed_upto <- t.now;
    for i = 0 to t.n - 1 do
      match t.flushers.(i) with Some f -> f ~final:false | None -> ()
    done;
    true
  end
  else false

(* Wire drain: when a wire backend is attached, its pump moves every
   in-flight message through the physical layer and re-injects it (via
   {!inject}); returns [true] iff anything new entered the queue. Runs at
   the same seams as {!flush_tick} — when the queue empties and when the
   loop is about to advance time — so a wire run processes events in
   exactly the simulator's order. *)
let pump t =
  match t.wire with None -> false | Some w -> w.wire_pump ()

(* Last-chance flush before the run goes quiescent: a hook that coalesced
   across ticks could still hold traffic that no further tick would ever
   flush. Runs every flusher with
   [final = true]; progress is detected through the send counter, which
   both the direct and the wire send paths bump. *)
let final_flush t =
  if not t.has_flushers then false
  else begin
    let before = t.messages_sent in
    for i = 0 to t.n - 1 do
      match t.flushers.(i) with Some f -> f ~final:true | None -> ()
    done;
    t.messages_sent > before
  end

(* [should_stop] is polled every [stop_poll_mask + 1] processed events, so
   a wall-clock deadline closure costs one clock read per 64 events, not
   per event. The flag is cooperative: a handler that never returns cannot
   be interrupted — only event-generating livelock (which [max_events]
   bounds) and between-event deadlines are catchable. *)
let stop_poll_mask = 63

let run ?until ?(max_events = 10_000_000) ?(on_budget = `Raise) ?should_stop t
    =
  t.stop_reason <- `Quiescent;
  let continue = ref true in
  while !continue do
    if Heap.Keyed.is_empty t.queue then begin
      if not (flush_tick t || pump t || final_flush t) then begin
        t.stop_reason <- `Quiescent;
        continue := false
      end
    end
    else if
      match should_stop with
      | Some f when t.events_processed land stop_poll_mask = 0 -> f ()
      | _ -> false
    then begin
      t.stop_reason <- `Cancelled;
      continue := false
    end
    else
      let at = Heap.Keyed.min_key_exn t.queue lsr seq_bits in
      if at > t.now && (flush_tick t || pump t) then ()
        (* flushed the current tick / drained the wire: re-peek, the
           minimum may have moved *)
      else if match until with Some u -> at > u | None -> false then begin
        t.stop_reason <- `Past_until;
        continue := false
      end
      else if t.events_processed >= max_events then begin
        match on_budget with
        | `Raise ->
            failwith "Engine.run: max_events exceeded (run-away protocol?)"
        | `Stop ->
            t.stop_reason <- `Event_budget;
            continue := false
      end
      else begin
        let target, ev =
          match t.chooser with
          | None ->
              let target = Heap.Keyed.min_aux_exn t.queue in
              let ev = Heap.Keyed.pop_exn t.queue in
              (target, ev)
          | Some choose ->
              (* Choice point: gather every entry of the minimal tick (they
                 pop in seq order, so the candidate array is sorted), let
                 the strategy pick one, and re-insert the rest under their
                 original keys — keys are unique, so the remainder pops in
                 exactly the order it would have without the detour, and a
                 strategy that always answers [0] reproduces the default
                 pop order byte-for-byte. *)
              let rec gather acc =
                if
                  (not (Heap.Keyed.is_empty t.queue))
                  && Heap.Keyed.min_key_exn t.queue lsr seq_bits = at
                then
                  let key = Heap.Keyed.min_key_exn t.queue in
                  let aux = Heap.Keyed.min_aux_exn t.queue in
                  let ev = Heap.Keyed.pop_exn t.queue in
                  gather
                    ({
                       ch_at = at;
                       ch_seq = key land ((1 lsl seq_bits) - 1);
                       ch_target = aux;
                       ch_event = ev;
                     }
                    :: acc)
                else List.rev acc
              in
              let cands = Array.of_list (gather []) in
              let k = Array.length cands in
              let idx = if k = 1 then 0 else choose cands in
              if idx < 0 || idx >= k then
                invalid_arg "Engine.run: chooser index out of range";
              Array.iteri
                (fun i c ->
                  if i <> idx then
                    Heap.Keyed.push t.queue
                      ~key:((c.ch_at lsl seq_bits) lor c.ch_seq)
                      ~aux:c.ch_target c.ch_event)
                cands;
              (cands.(idx).ch_target, cands.(idx).ch_event)
        in
        t.now <- Int.max t.now at;
        t.events_processed <- t.events_processed + 1;
        (match ev with
        | Deliver { src; msg } ->
            t.messages_delivered <- t.messages_delivered + 1;
            (match t.tracer with
            | Some f -> f (Delivered { src; dst = target; at = t.now; msg })
            | None -> ())
        | Timer tag -> (
            match t.tracer with
            | Some f -> f (Timer_fired { party = target; at = t.now; tag })
            | None -> ()));
        (match t.handlers.(target) with
        | Some h -> (
            match t.isolation with
            | `Fail_fast -> h ev
            | `Isolate -> (
                try h ev
                with exn ->
                  let f =
                    {
                      party = target;
                      at = t.now;
                      reason = Printexc.to_string exn;
                    }
                  in
                  t.handlers.(target) <- None;
                  t.flushers.(target) <- None;
                  t.failures <- f :: t.failures;
                  (match t.tracer with
                  | Some tr -> tr (Party_failed f)
                  | None -> ())))
        | None -> ())
      end
  done

let stats t =
  {
    messages_sent = t.messages_sent;
    bytes_sent = t.bytes_sent;
    messages_delivered = t.messages_delivered;
    final_time = t.now;
    events_processed = t.events_processed;
    party_failures = List.length t.failures;
  }

let class_messages t = Array.copy t.class_msgs
let class_bytes t = Array.copy t.class_bytes

let set_tracer t f = t.tracer <- Some f
let clear_tracer t = t.tracer <- None
