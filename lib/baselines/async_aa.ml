module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type iter_state = {
  mutable m : Pairset.t;
  mutable witnesses : IntSet.t;
  mutable pending : Pairset.t IntMap.t;
  mutable seen_report : IntSet.t;
  mutable sent_report : bool;
}

type t = {
  n : int;
  thr : int;
  iters : int;
  me : int;
  engine : Message.t Engine.t;
  mutable rbc : Rbc.t option;
  states : (int, iter_state) Hashtbl.t;
  history : (int, Vec.t) Hashtbl.t;
  mutable iter : int;
  mutable value : Vec.t option;
  mutable output : Vec.t option;
  mutable output_time : int option;
}

let output t = t.output
let output_time t = t.output_time

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
        }
      in
      Hashtbl.add t.states it s;
      s

let rbc t = Option.get t.rbc

let broadcast_value t it v =
  Rbc.broadcast (rbc t)
    { Message.tag = Message.Async_value it; origin = t.me }
    (Message.Pvec v)

let rec step t =
  if t.output = None then begin
    let it = t.iter in
    let s = state t it in
    if (not s.sent_report) && Pairset.cardinal s.m >= t.n - t.thr then begin
      s.sent_report <- true;
      Rbc.broadcast (rbc t)
        { Message.tag = Message.Async_report it; origin = t.me }
        (Message.Ppairs (Pairset.bindings s.m))
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
      (* pure asynchronous trim level: always t (here ts = ta = t, so
         max(k, t) = t since k ≤ t) *)
      match Safe_area.new_value_arr ~t:t.thr (Pairset.values_arr s.m) with
      | Some v ->
          t.value <- Some v;
          Hashtbl.replace t.history it v;
          if it >= t.iters then begin
            t.output <- Some v;
            t.output_time <- Some (Engine.now t.engine)
          end
          else begin
            t.iter <- it + 1;
            broadcast_value t t.iter v;
            step t
          end
      | None ->
          (* possible when the corruption count exceeds the protocol's
             envelope (the E12 regime): stall rather than crash *)
          ()
    end
  end

let valid_party t p = p >= 0 && p < t.n

let on_deliver t (id : Message.rbc_id) payload =
  match (id.tag, payload) with
  | Message.Async_value it, Message.Pvec v ->
      if valid_party t id.origin then begin
        let s = state t it in
        s.m <- Pairset.add ~party:id.origin v s.m;
        if it = t.iter then step t
      end
  | Message.Async_report it, Message.Ppairs pairs ->
      if valid_party t id.origin then begin
        let s = state t it in
        if not (IntSet.mem id.origin s.seen_report) then begin
          s.seen_report <- IntSet.add id.origin s.seen_report;
          let report =
            List.fold_left
              (fun acc (p, v) ->
                if valid_party t p then Pairset.add ~party:p v acc else acc)
              Pairset.empty pairs
          in
          s.pending <- IntMap.add id.origin report s.pending;
          if it = t.iter then step t
        end
      end
  | _ -> ()

let handle t ev =
  match ev with
  | Engine.Deliver { src; msg = Message.Rbc (id, rbc_step, payload) } ->
      Rbc.on_message (rbc t) ~from:src id rbc_step payload
  | Engine.Deliver _ | Engine.Timer _ -> ()

let attach ~n ~t:thr ~iters ~me engine =
  let t =
    {
      n;
      thr;
      iters;
      me;
      engine;
      rbc = None;
      states = Hashtbl.create 16;
      history = Hashtbl.create 16;
      iter = 1;
      value = None;
      output = None;
      output_time = None;
    }
  in
  t.rbc <-
    Some
      (Rbc.create ~n ~t:thr
         {
           Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:me msg);
           deliver = (fun id payload -> on_deliver t id payload);
         });
  Engine.set_party engine me (handle t);
  t

let start t v =
  t.value <- Some v;
  Hashtbl.replace t.history 0 v;
  if t.iters = 0 then begin
    t.output <- Some v;
    t.output_time <- Some (Engine.now t.engine)
  end
  else broadcast_value t 1 v
