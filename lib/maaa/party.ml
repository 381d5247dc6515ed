type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
  on_output : iter:int -> Vec.t -> unit;
}

let no_callbacks = { on_iteration = (fun ~iter:_ _ -> ()); on_output = (fun ~iter:_ _ -> ()) }

type mode = Estimate | Fixed_t of int

type mutant = Non_contracting_update | Premature_output

type layer = Interned | Reference | Batched of { window : int }

type opts = {
  mode : mode;
  mutant : mutant option;
  layer : layer;
}

let default_opts =
  { mode = Estimate; mutant = None; layer = Interned }

(* Far outside every workload's honest-input hull: one adoption with this
   offset breaks both per-iteration containment and validity. *)
let mutant_drift d = Vec.basis ~dim:d 0 100.

type t = {
  cfg : Config.t;
  me : int;
  opts : opts;
  impl : [ `Interned | `Reference ];  (* rBC/oBC vote-table implementation *)
  batch : Batch.t option;  (* egress buffer when the layer is [Batched] *)
  intern : Intern.t;  (* one hash-consing table for all sub-protocols *)
  safe_cache : Safe_cache.t;  (* shared across the run's parties when the
                                 caller provides one (Maaa.run, Runner) *)
  cbs : callbacks;
  now : unit -> int;
  send_all : Message.t -> unit;
  set_timer : at:int -> unit;
  mutable rbc : Rbc.t option;  (* set right after creation; never None in use *)
  mutable init : Init_round.t option;
  obcs : (int, Obc.t) Hashtbl.t;
  history : (int, Vec.t) Hashtbl.t;
  halts : (int, int) Hashtbl.t;  (* origin -> halt iteration (first per origin) *)
  buffered_values : (int, (int * Vec.t) list ref) Hashtbl.t;
  buffered_reports : (int, (int * (int * Vec.t) list) list ref) Hashtbl.t;
  mutable iter : int;  (* 0 while in Πinit *)
  mutable iter_start : int;
  mutable pending_value : Vec.t option;
  mutable t_estimate : int option;
  mutable output : Vec.t option;
  mutable output_iter : int option;
  mutable output_time : int option;
  mutable sent_halt : bool;
  mutable started : bool;
}

let me t = t.me
let output t = t.output
let output_iteration t = t.output_iter
let output_time t = t.output_time
let current_iteration t = t.iter
let iteration_estimate t = t.t_estimate

let value_history t =
  Hashtbl.fold (fun it v acc -> (it, v) :: acc) t.history []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let intern_stats t =
  (Intern.hits t.intern, Intern.misses t.intern, Intern.count t.intern)

let rbc t = Option.get t.rbc

let buffer tbl key item =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := item :: !l
  | None -> Hashtbl.add tbl key (ref [ item ])

let drain tbl key =
  match Hashtbl.find_opt tbl key with
  | Some l ->
      Hashtbl.remove tbl key;
      List.rev !l
  | None -> []

(* One halt per origin: a Byzantine party must not be able to inject
   several low-iteration halts and control the (ts+1)-th smallest. *)
let record_halt t ~origin it =
  if not (Hashtbl.mem t.halts origin) then Hashtbl.add t.halts origin it

(* Outputs once ts+1 recorded halts name an iteration below the current
   one. Depends only on [halts], [iter] and [history], so it runs exactly
   where those change — after [record_halt], at the end of
   [join_iteration], after adopting a value — and is idempotent in
   between; a per-delivery call would fold and sort [halts] for nothing. *)
let try_halt_output t =
  if Option.is_none t.output && t.iter >= 1 then begin
    let earlier =
      Hashtbl.fold (fun _ it acc -> if it < t.iter then it :: acc else acc) t.halts []
      |> List.sort compare
    in
    if List.length earlier >= t.cfg.ts + 1 then begin
      let it_h = List.nth earlier t.cfg.ts in
      match Hashtbl.find_opt t.history it_h with
      | Some v ->
          t.output <- Some v;
          t.output_iter <- Some it_h;
          t.output_time <- Some (t.now ());
          t.cbs.on_output ~iter:it_h v
      | None -> ()
    end
  end

let rec join_iteration t it =
  t.iter <- it;
  t.iter_start <- t.now ();
  t.pending_value <- None;
  let obc =
    Obc.create ~impl:t.impl ~intern:t.intern ~n:t.cfg.n ~ts:t.cfg.ts
      ~delta:t.cfg.delta ~iter:it
      {
        Obc.now = t.now;
        set_timer = t.set_timer;
        rbc_broadcast =
          (fun payload ->
            Rbc.broadcast (rbc t)
              { Message.tag = Message.Obc_value it; origin = t.me }
              payload);
        send_all = t.send_all;
        output = (fun mset -> on_obc_output t it mset);
      }
  in
  Hashtbl.replace t.obcs it obc;
  List.iter (fun (origin, v) -> Obc.on_value obc ~origin v) (drain t.buffered_values it);
  List.iter (fun (from, pairs) -> Obc.on_report obc ~from pairs) (drain t.buffered_reports it);
  (match Hashtbl.find_opt t.history (it - 1) with
  | Some v -> Obc.start obc v
  | None -> assert false (* join_iteration it requires v_{it-1} recorded *));
  t.set_timer ~at:(t.iter_start + (Params.c_aa_it * t.cfg.delta) + 1);
  (* no value can be pending yet: the fresh oBC cannot output before
     local time moves past [iter_start] *)
  try_halt_output t

and on_obc_output t it mset =
  if
    Option.is_none t.output && t.iter = it && Option.is_none t.pending_value
  then begin
    let k = Pairset.cardinal mset - (t.cfg.n - t.cfg.ts) in
    let trim = max k t.cfg.ta in
    match
      Safe_cache.new_value_arr t.safe_cache ~t:trim (Pairset.values_arr mset)
    with
    | Some v ->
        let v =
          match t.opts.mutant with
          | Some Non_contracting_update -> Vec.add v (mutant_drift t.cfg.d)
          | _ -> v
        in
        t.pending_value <- Some v;
        try_advance t
    | None ->
        (* Lemma 5.5 rules this out whenever ΠoBC's overlap guarantees
           hold, i.e. in every honest execution within the thresholds. *)
        assert false
  end

(* Lines 5-11 of ΠAA: once the iteration's new value is known and at least
   c_AA-it·Δ local time has passed, adopt it, halt if this is our estimated
   iteration, output if enough halts are in, else move on. *)
and try_advance t =
  match t.output with
  | Some _ -> ()
  | None -> (
      match t.pending_value with
      | Some v
        when t.iter >= 1
             && t.now () > t.iter_start + (Params.c_aa_it * t.cfg.delta) -> (
          let completed = t.iter in
          Hashtbl.replace t.history completed v;
          t.cbs.on_iteration ~iter:completed v;
          (match t.t_estimate with
          | Some tt when tt = completed && not t.sent_halt ->
              t.sent_halt <- true;
              Rbc.broadcast (rbc t)
                { Message.tag = Message.Halt completed; origin = t.me }
                (Message.Pint completed)
          | _ -> ());
          try_halt_output t;
          match t.output with
          | None -> join_iteration t (completed + 1)
          | Some _ -> ())
      | _ -> ())

let on_init_output t tt v0 =
  Hashtbl.replace t.history 0 v0;
  t.t_estimate <- Some tt;
  t.cbs.on_iteration ~iter:0 v0;
  join_iteration t 1

(* Dispatch of reliable-broadcast deliveries by instance tag. *)
let on_rbc_deliver t (id : Message.rbc_id) payload =
  match (id.tag, payload) with
  | Message.Init_value, Message.Pvec v -> (
      match t.init with
      | Some i when not (Init_round.has_output i) ->
          Init_round.on_value i ~origin:id.origin v
      | _ -> ())
  | Message.Init_report, Message.Ppairs pairs -> (
      match t.init with
      | Some i when not (Init_round.has_output i) ->
          Init_round.on_report i ~origin:id.origin pairs
      | _ -> ())
  | Message.Obc_value it, Message.Pvec v ->
      if Option.is_none t.output then begin
        match Hashtbl.find_opt t.obcs it with
        | Some obc -> Obc.on_value obc ~origin:id.origin v
        | None -> if it > t.iter then buffer t.buffered_values it (id.origin, v)
      end
  | Message.Halt it, _ ->
      record_halt t ~origin:id.origin it;
      try_halt_output t
  | _ -> ()

let create ?(callbacks = no_callbacks) ?(opts = default_opts) ?register_flush
    ?safe_cache ~cfg ~me ~now ~send_all ~set_timer () =
  let impl, batch =
    match opts.layer with
    | Interned -> (`Interned, None)
    | Reference -> (`Reference, None)
    | Batched { window } ->
        (* batching wraps the fast vote tables *)
        (`Interned, Some (Batch.create ~window ~send_all ()))
  in
  (match (batch, register_flush) with
  | Some b, Some reg -> reg (fun ~final -> Batch.flush ~final b)
  | Some _, None ->
      invalid_arg "Party.create: Batched needs an end-of-tick register_flush"
  | None, _ -> ());
  let t =
    {
      cfg;
      me;
      opts;
      impl;
      batch;
      intern = Intern.create ();
      safe_cache =
        (match safe_cache with Some c -> c | None -> Safe_cache.create ());
      cbs = callbacks;
      now;
      send_all;
      set_timer;
      rbc = None;
      init = None;
      obcs = Hashtbl.create 8;
      history = Hashtbl.create 16;
      halts = Hashtbl.create 8;
      buffered_values = Hashtbl.create 8;
      buffered_reports = Hashtbl.create 8;
      iter = 0;
      iter_start = 0;
      pending_value = None;
      t_estimate = None;
      output = None;
      output_iter = None;
      output_time = None;
      sent_halt = false;
      started = false;
    }
  in
  (* With a batch buffer, every rBC vote the sub-protocols emit is
     diverted into it; the buffer's end-of-tick flush re-broadcasts the
     votes as one combined packet. Non-rBC traffic (oBC reports, witness
     sets) keeps its per-packet path. *)
  let rbc_send_all =
    match batch with
    | None -> send_all
    | Some b -> (
        function
        | Message.Rbc (id, step, payload) -> Batch.add b id step payload
        | m -> send_all m)
  in
  t.rbc <-
    Some
      (Rbc.create ~impl ~intern:t.intern ~n:cfg.Config.n ~t:cfg.Config.ts
         {
           Rbc.send_all = rbc_send_all;
           deliver = (fun id payload -> on_rbc_deliver t id payload);
         });
  t.init <-
    Some
      (Init_round.create ~safe_cache:t.safe_cache ~n:cfg.Config.n
         ~ts:cfg.Config.ts ~ta:cfg.Config.ta ~delta:cfg.Config.delta
         ~eps:cfg.Config.eps
         {
           Init_round.now;
           set_timer;
           rbc_broadcast =
             (fun tag payload ->
               Rbc.broadcast (rbc t) { Message.tag; origin = me } payload);
           send_all;
           output = (fun tt v0 -> on_init_output t tt v0);
         });
  t

let start t v =
  if t.started then invalid_arg "Party.start: already started";
  if Vec.dim v <> t.cfg.d then invalid_arg "Party.start: wrong dimension";
  t.started <- true;
  match (t.opts.mutant, t.opts.mode) with
  | Some Premature_output, _ ->
      (* the loosened-ε mutant: "already within ε of everyone" *)
      t.output <- Some v;
      t.output_iter <- Some 0;
      t.output_time <- Some (t.now ());
      t.cbs.on_output ~iter:0 v
  | _, Estimate -> Init_round.start (Option.get t.init) v
  | _, Fixed_t tt ->
      (* known-bounds variant: the input itself seeds iteration 1 *)
      if tt < 1 then invalid_arg "Party.start: Fixed_t needs T >= 1";
      t.init <- None;
      on_init_output t tt v

let poke t =
  (match t.init with
  | Some i when not (Init_round.has_output i) -> Init_round.poke i
  | _ -> ());
  (if Option.is_none t.output && t.iter >= 1 then
     match Hashtbl.find_opt t.obcs t.iter with
     | Some obc -> Obc.poke obc
     | None -> ());
  if t.iter >= 1 then try_advance t

let handle t (ev : Message.t Transport.event) =
  match ev with
  | Transport.Timer _ -> poke t
  | Transport.Deliver { src; msg } -> (
      match msg with
      | Message.Rbc (id, step, payload) ->
          Rbc.on_message (rbc t) ~from:src id step payload;
          (* a delivery may have unblocked a time-gated guard *)
          if t.iter >= 1 then try_advance t
      | Message.Rbc_batch entries ->
          (* unpack in emission order; any layer accepts batched votes,
             so mixed-layer runs interoperate *)
          List.iter
            (fun (id, step, payload) ->
              Rbc.on_message (rbc t) ~from:src id step payload)
            entries;
          if t.iter >= 1 then try_advance t
      | Message.Obc_report { iter; pairs; _ } ->
          if Option.is_none t.output then begin
            match Hashtbl.find_opt t.obcs iter with
            | Some obc -> Obc.on_report obc ~from:src pairs
            | None ->
                if iter > t.iter then buffer t.buffered_reports iter (src, pairs)
          end
      | Message.Witness_set { parties; _ } -> (
          match t.init with
          | Some i when not (Init_round.has_output i) ->
              Init_round.on_witness_set i ~from:src parties
          | _ -> ())
      | Message.Sync_round _ | Message.Ew_value _ | Message.Ew_echo _
      | Message.Ew_report _
      | Message.Junk _ ->
          ())

(* The only facts a party may know about its runtime are the ones the
   endpoint record exposes — this is the whole-protocol seam between
   [lib/maaa] and whichever backend (simulator engine, or the engine
   driving the loopback TCP wire) carries the traffic. *)
let attach_endpoint ?callbacks ?opts ?safe_cache ~cfg
    (ep : Message.t Transport.endpoint) =
  if ep.Transport.n <> cfg.Config.n then
    invalid_arg "Party.attach_endpoint: endpoint/config n mismatch";
  let t =
    create ?callbacks ?opts ?safe_cache ~cfg ~me:ep.Transport.me
      ~register_flush:ep.Transport.register_flush ~now:ep.Transport.now
      ~send_all:ep.Transport.send_all
      ~set_timer:(fun ~at -> ep.Transport.set_timer ~at ~tag:0)
      ()
  in
  ep.Transport.set_handler (handle t);
  t

let attach ?callbacks ?opts ?safe_cache ~cfg ~me engine =
  attach_endpoint ?callbacks ?opts ?safe_cache ~cfg (Engine.endpoint engine ~me)
