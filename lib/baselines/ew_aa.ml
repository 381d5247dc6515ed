module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
  on_output : iter:int -> Vec.t -> unit;
}

let no_callbacks =
  { on_iteration = (fun ~iter:_ _ -> ()); on_output = (fun ~iter:_ _ -> ()) }

type iter_state = {
  mutable m : Pairset.t;
  mutable witnesses : IntSet.t;
  mutable pending : Pairset.t IntMap.t;
  mutable seen_report : IntSet.t;
  mutable sent_report : bool;
  (* Echo-confirmation state of the direct channel. [raw] holds the first
     value received directly from each sender; [support] maps a claimed
     sender to the echo-supporter set of each value claimed for it. *)
  mutable raw : Pairset.t;
  mutable support : (Vec.t * IntSet.t) list IntMap.t;
  mutable sent_claims : bool;
}

type channel = Direct | Reliable

type t = {
  n : int;
  me : int;
  thr : int;
  iters : int;
  mutable rbc : Rbc.t option;  (* [Some] iff the channel is [Reliable] *)
  now : unit -> int;
  send_all : Message.t -> unit;
  cbs : callbacks;
  states : (int, iter_state) Hashtbl.t;
  history : (int, Vec.t) Hashtbl.t;
  mutable iter : int;
  mutable value : Vec.t option;
  mutable output : Vec.t option;
  mutable output_time : int option;
}

let output t = t.output
let output_time t = t.output_time
let output_iteration t = if t.output = None then None else Some t.iters

let value_history t =
  Hashtbl.fold (fun r v acc -> (r, v) :: acc) t.history []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let state t it =
  match Hashtbl.find_opt t.states it with
  | Some s -> s
  | None ->
      let s =
        {
          m = Pairset.empty;
          witnesses = IntSet.empty;
          pending = IntMap.empty;
          seen_report = IntSet.empty;
          sent_report = false;
          raw = Pairset.empty;
          support = IntMap.empty;
          sent_claims = false;
        }
      in
      Hashtbl.add t.states it s;
      s

let broadcast_value t it v =
  match t.rbc with
  | None -> t.send_all (Message.Ew_value { iter = it; value = v })
  | Some rbc ->
      Rbc.broadcast rbc
        { Message.tag = Message.Async_value it; origin = t.me }
        (Message.Pvec v)

let broadcast_report t it pairs =
  match t.rbc with
  | None -> t.send_all (Message.Ew_report { iter = it; pairs })
  | Some rbc ->
      Rbc.broadcast rbc
        { Message.tag = Message.Async_report it; origin = t.me }
        (Message.Ppairs pairs)

let rec step t =
  if t.output = None then begin
    let it = t.iter in
    let s = state t it in
    if (not s.sent_report) && Pairset.cardinal s.m >= t.n - t.thr then begin
      s.sent_report <- true;
      broadcast_report t it (Pairset.bindings s.m)
    end;
    let validated, rest =
      IntMap.partition
        (fun _ report ->
          Pairset.cardinal report >= t.n - t.thr && Pairset.subset report s.m)
        s.pending
    in
    s.pending <- rest;
    IntMap.iter
      (fun from _ -> s.witnesses <- IntSet.add from s.witnesses)
      validated;
    if s.sent_report && IntSet.cardinal s.witnesses >= t.n - t.thr then begin
      match Safe_area.new_value_arr ~t:t.thr (Pairset.values_arr s.m) with
      | Some v ->
          t.value <- Some v;
          Hashtbl.replace t.history it v;
          t.cbs.on_iteration ~iter:it v;
          if it >= t.iters then begin
            t.output <- Some v;
            t.output_time <- Some (t.now ());
            t.cbs.on_output ~iter:it v
          end
          else begin
            t.iter <- it + 1;
            broadcast_value t t.iter v;
            step t
          end
      | None ->
          (* corruption count beyond the (D+2)·t < n envelope (the E12
             regime): stall rather than crash *)
          ()
    end
  end

let valid_party t p = p >= 0 && p < t.n

(* Echo confirmation: fold one echo vote from [voter] for the claim
   "party [p] sent value [v]". A pair is confirmed into [s.m] once n − t
   distinct parties echo it. Honest parties echo at most one value per
   claimed sender (their [raw] binding is first-wins), so two conflicting
   pairs for the same sender would need 2(n − 2t) ≤ n − t honest echoers
   — impossible for n > 3t — and [s.m] stays consistent across honest
   parties without per-value reliable broadcast. *)
let add_support t s ~voter ~p ~v =
  if valid_party t p && not (Pairset.mem_party p s.m) then begin
    let votes = try IntMap.find p s.support with Not_found -> [] in
    let updated, confirmed =
      let rec go acc = function
        | [] -> (List.rev ((v, IntSet.singleton voter) :: acc), t.n - t.thr <= 1)
        | (v', sup) :: rest when Vec.equal_exact v v' ->
            let sup = IntSet.add voter sup in
            (List.rev_append acc ((v', sup) :: rest),
             IntSet.cardinal sup >= t.n - t.thr)
        | entry :: rest -> go (entry :: acc) rest
      in
      go [] votes
    in
    s.support <- IntMap.add p updated s.support;
    if confirmed then begin
      s.m <- Pairset.add ~party:p v s.m;
      true
    end
    else false
  end
  else false

let on_value t ~from it v =
  if valid_party t from && it >= 1 then begin
    let s = state t it in
    s.m <- Pairset.add ~party:from v s.m;
    if it = t.iter then step t
  end

let on_report t ~from it pairs =
  if valid_party t from && it >= 1 then begin
    let s = state t it in
    if not (IntSet.mem from s.seen_report) then begin
      s.seen_report <- IntSet.add from s.seen_report;
      let report =
        List.fold_left
          (fun acc (p, v) ->
            if valid_party t p then Pairset.add ~party:p v acc else acc)
          Pairset.empty pairs
      in
      s.pending <- IntMap.add from report s.pending;
      if it = t.iter then step t
    end
  end

(* A direct value: record the sender's first value and echo it as a
   claim. *)
let on_direct_value t ~from it v =
  if valid_party t from && it >= 1 then begin
    let s = state t it in
    if not (Pairset.mem_party from s.raw) then begin
      s.raw <- Pairset.add ~party:from v s.raw;
      if s.sent_claims then
        (* Late direct arrival: a delta claim, so slow senders still
           gather their echo quorum. *)
        t.send_all (Message.Ew_echo { iter = it; pairs = [ (from, v) ] })
      else if Pairset.cardinal s.raw >= t.n - t.thr then begin
        s.sent_claims <- true;
        t.send_all
          (Message.Ew_echo { iter = it; pairs = Pairset.bindings s.raw })
      end
    end
  end

(* Direct channels are authenticated, so [src] plays the role the rBC
   origin field plays on the reliable channel: a party's first value per
   iteration wins and duplicates (chaos-layer re-deliveries included) are
   no-ops. Each channel ignores the other's messages. *)
let handle t ev =
  match (t.rbc, ev) with
  | Some rbc, Transport.Deliver { src; msg = Message.Rbc (id, step, payload) }
    ->
      Rbc.on_message rbc ~from:src id step payload
  | None, Transport.Deliver { src; msg = Message.Ew_value { iter; value } } ->
      on_direct_value t ~from:src iter value
  | None, Transport.Deliver { src; msg = Message.Ew_echo { iter = it; pairs } }
    ->
      if valid_party t src && it >= 1 then begin
        let s = state t it in
        let grew =
          List.fold_left
            (fun acc (p, v) -> add_support t s ~voter:src ~p ~v || acc)
            false pairs
        in
        if grew && it = t.iter then step t
      end
  | None, Transport.Deliver { src; msg = Message.Ew_report { iter; pairs } } ->
      on_report t ~from:src iter pairs
  | _, (Transport.Deliver _ | Transport.Timer _) -> ()

(* The reliable channel's deliveries: the rBC origin is the sender. *)
let on_deliver t (id : Message.rbc_id) payload =
  match (id.tag, payload) with
  | Message.Async_value it, Message.Pvec v -> on_value t ~from:id.origin it v
  | Message.Async_report it, Message.Ppairs pairs ->
      on_report t ~from:id.origin it pairs
  | _ -> ()

let attach_endpoint ?(callbacks = no_callbacks) ~channel ~t:thr ~iters
    (ep : Message.t Transport.endpoint) =
  let t =
    {
      n = ep.n;
      me = ep.me;
      thr;
      iters;
      rbc = None;
      now = ep.now;
      send_all = ep.send_all;
      cbs = callbacks;
      states = Hashtbl.create 16;
      history = Hashtbl.create 16;
      iter = 1;
      value = None;
      output = None;
      output_time = None;
    }
  in
  if channel = Reliable then
    t.rbc <-
      Some
        (Rbc.create ~n:ep.n ~t:thr
           { Rbc.send_all = ep.send_all; deliver = on_deliver t });
  ep.set_handler (handle t);
  t

let start t v =
  t.value <- Some v;
  Hashtbl.replace t.history 0 v;
  t.cbs.on_iteration ~iter:0 v;
  if t.iters = 0 then begin
    t.output <- Some v;
    t.output_time <- Some (t.now ());
    t.cbs.on_output ~iter:0 v
  end
  else broadcast_value t 1 v
