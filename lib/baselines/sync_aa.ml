type t = {
  thr : int;
  rounds : int;
  delta : int;
  ep : Message.t Transport.endpoint;
  history : (int, Vec.t) Hashtbl.t;
  received : (int, Pairset.t) Hashtbl.t;  (* round -> values *)
  mutable round : int;
  mutable value : Vec.t option;
  mutable output : Vec.t option;
  mutable output_time : int option;
}

let output t = t.output
let output_time t = t.output_time

let value_history t =
  Hashtbl.fold (fun r v acc -> (r, v) :: acc) t.history []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let round_set t r =
  match Hashtbl.find_opt t.received r with
  | Some s -> s
  | None -> Pairset.empty

let finish t =
  t.output <- t.value;
  t.output_time <- Some (t.ep.now ())

(* Rounds last Δ + 1 ticks so that a message sent at a round boundary and
   delivered after exactly Δ is still counted for its round (the model
   treats "delivered within Δ" as included). *)
let begin_round t =
  let v = Option.get t.value in
  t.ep.send_all (Message.Sync_round { round = t.round; value = v });
  t.ep.set_timer ~at:((t.round + 1) * (t.delta + 1)) ~tag:t.round

(* Round end: trim [k] outliers of what arrived. Under synchrony all honest
   values arrived, so at most [k = |M| - (n - t)] of them are corrupt; under
   a broken network the trim level is silently wrong — by design. A round
   that gets fewer than [n − t] values, or no safe area, keeps the old
   value and leaves no history entry. *)
let end_round t =
  let m = round_set t t.round in
  let got = Pairset.cardinal m in
  (if got >= t.ep.n - t.thr then
     let k = got - (t.ep.n - t.thr) in
     match Safe_area.new_value_arr ~t:k (Pairset.values_arr m) with
     | Some v ->
         t.value <- Some v;
         Hashtbl.replace t.history (t.round + 1) v
     | None -> ());
  t.round <- t.round + 1;
  if t.round >= t.rounds then finish t else begin_round t

let handle t ev =
  match ev with
  | Transport.Deliver { src; msg = Message.Sync_round { round; value } } ->
      (* accept only traffic for the round in progress: late messages are
         lost, which is the protocol's Achilles heel off-synchrony *)
      if round = t.round && t.output = None then
        Hashtbl.replace t.received round
          (Pairset.add ~party:src value (round_set t round))
  | Transport.Deliver _ -> ()
  | Transport.Timer r -> if r = t.round && t.output = None then end_round t

let attach_endpoint ~t:thr ~rounds ~delta ep =
  let t =
    {
      thr;
      rounds;
      delta;
      ep;
      history = Hashtbl.create 16;
      received = Hashtbl.create 16;
      round = 0;
      value = None;
      output = None;
      output_time = None;
    }
  in
  ep.set_handler (handle t);
  t

let start t v =
  t.value <- Some v;
  Hashtbl.replace t.history 0 v;
  if t.rounds = 0 then finish t else begin_round t
