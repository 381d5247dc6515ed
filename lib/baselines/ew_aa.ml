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
  (* Equivocation-defence state, untouched when the defence is off. [raw]
     holds the first value received directly from each sender; [support]
     maps a claimed sender to the echo-supporter set of each value claimed
     for it. *)
  mutable raw : Pairset.t;
  mutable support : (Vec.t * IntSet.t) list IntMap.t;
  mutable sent_claims : bool;
}

type t = {
  n : int;
  thr : int;
  iters : int;
  defence : bool;
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
  t.send_all (Message.Ew_value { iter = it; value = v })

let rec step t =
  if t.output = None then begin
    let it = t.iter in
    let s = state t it in
    if (not s.sent_report) && Pairset.cardinal s.m >= t.n - t.thr then begin
      s.sent_report <- true;
      t.send_all
        (Message.Ew_report
           { iter = it; pairs = Pairset.bindings s.m })
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
          (* corruption count beyond the (D+2)·t < n envelope: stall
             rather than crash, as in the rBC-based baseline *)
          ()
    end
  end

let valid_party t p = p >= 0 && p < t.n

(* Equivocation defence: fold one echo vote from [voter] for the claim
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

(* Channels are authenticated, so [src] plays the role the rBC origin
   field plays in the cubic baseline: a party's first value per iteration
   wins and duplicates (chaos-layer re-deliveries included) are no-ops. *)
let handle t ev =
  match ev with
  | Transport.Deliver
      { src; msg = Message.Ew_value { iter = it; value = v; _ } } ->
      if valid_party t src && it >= 1 then
        if not t.defence then begin
          let s = state t it in
          s.m <- Pairset.add ~party:src v s.m;
          if it = t.iter then step t
        end
        else begin
          let s = state t it in
          if not (Pairset.mem_party src s.raw) then begin
            s.raw <- Pairset.add ~party:src v s.raw;
            if s.sent_claims then
              (* Late direct arrival: a delta claim, so slow senders still
                 gather their echo quorum. *)
              t.send_all
                (Message.Ew_echo { iter = it; pairs = [ (src, v) ] })
            else if Pairset.cardinal s.raw >= t.n - t.thr then begin
              s.sent_claims <- true;
              t.send_all
                (Message.Ew_echo
                   { iter = it; pairs = Pairset.bindings s.raw })
            end
          end
        end
  | Transport.Deliver { src; msg = Message.Ew_echo { iter = it; pairs; _ } } ->
      if t.defence && valid_party t src && it >= 1 then begin
        let s = state t it in
        let grew =
          List.fold_left
            (fun acc (p, v) -> add_support t s ~voter:src ~p ~v || acc)
            false pairs
        in
        if grew && it = t.iter then step t
      end
  | Transport.Deliver { src; msg = Message.Ew_report { iter = it; pairs; _ } }
    ->
      if valid_party t src && it >= 1 then begin
        let s = state t it in
        if not (IntSet.mem src s.seen_report) then begin
          s.seen_report <- IntSet.add src s.seen_report;
          let report =
            List.fold_left
              (fun acc (p, v) ->
                if valid_party t p then Pairset.add ~party:p v acc else acc)
              Pairset.empty pairs
          in
          s.pending <- IntMap.add src report s.pending;
          if it = t.iter then step t
        end
      end
  | Transport.Deliver _ | Transport.Timer _ -> ()

let attach_endpoint ?(callbacks = no_callbacks) ?(equivocation_defence = false)
    ~t:thr ~iters (ep : Message.t Transport.endpoint) =
  let t =
    {
      n = ep.n;
      thr;
      iters;
      defence = equivocation_defence;
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
  ep.set_handler (handle t);
  t

let attach ?callbacks ?equivocation_defence ~n ~t:thr ~iters ~me engine =
  let ep = Engine.endpoint engine ~me in
  if ep.n <> n then invalid_arg "Ew_aa.attach: n mismatch";
  attach_endpoint ?callbacks ?equivocation_defence ~t:thr ~iters ep

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
