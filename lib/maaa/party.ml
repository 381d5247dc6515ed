type callbacks = {
  on_iteration : iter:int -> Vec.t -> unit;
  on_output : iter:int -> Vec.t -> unit;
}

let no_callbacks = { on_iteration = (fun ~iter:_ _ -> ()); on_output = (fun ~iter:_ _ -> ()) }

type mode = Estimate | Fixed_t of int

type mutant = Non_contracting_update | Premature_output

type layer = Interned | Batched

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
  batch : Batch.t option;  (* egress buffer when the layer is [Batched] *)
  intern : Intern.t;  (* one hash-consing table for all sub-protocols *)
  safe_cache : Safe_cache.t;  (* shared across the run's parties when the
                                 caller provides one (Runner) *)
  cbs : callbacks;
  now : unit -> int;
  send_all : Message.t -> unit;
  set_timer : at:int -> unit;
  mutable rbc : Rbc.t option;  (* set right after creation; never None in use *)
  mutable init : Init_round.t option;
  mutable obc : Obc.t option;  (* set right after creation, restarted per iteration *)
  mutable history : Vec.t array;  (* v_0 … v_{adopted-1} *)
  mutable adopted : int;
  halted : Bytes.t;  (* origin -> '\001' once its first halt is in *)
  halt_its : int array;  (* those first halts' iterations, ascending *)
  mutable n_halts : int;
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

let output t = t.output
let output_iteration t = t.output_iter
let output_time t = t.output_time
let iteration_estimate t = t.t_estimate

let value_history t = List.init t.adopted (fun it -> (it, t.history.(it)))

let intern_stats t =
  (Intern.hits t.intern, Intern.misses t.intern, Intern.count t.intern)

let rbc t = Option.get t.rbc
let obc t = Option.get t.obc

(* Iterations complete in order, each once: v_it lands at index it. *)
let adopt t v =
  if t.adopted = Array.length t.history then begin
    let h = Array.make (2 * t.adopted) v in
    Array.blit t.history 0 h 0 t.adopted;
    t.history <- h
  end;
  t.history.(t.adopted) <- v;
  t.adopted <- t.adopted + 1

let buffer tbl key item =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := item :: !l
  | None -> Hashtbl.add tbl key (ref [ item ])

(* Feeds what [tbl] buffered under [key] to [f obc], oldest first. [f]
   takes [obc] as an argument so that the caller's closure is static:
   nothing is allocated when nothing was buffered. *)
let drain tbl key obc f =
  match Hashtbl.find_opt tbl key with
  | Some l ->
      Hashtbl.remove tbl key;
      List.iter (f obc) (List.rev !l)
  | None -> ()

(* One halt per origin: a Byzantine party must not be able to inject
   several low-iteration halts and control the (ts+1)-th smallest. An
   instance whose origin is no party never delivers (no honest party
   echoes or readies it, and ts readies are fewer than n − ts), so
   [origin] is in range in every execution within the thresholds. The
   iteration goes into [halt_its] by one insertion step. *)
let record_halt t ~origin it =
  if origin >= 0 && origin < t.cfg.n && Bytes.get t.halted origin = '\000'
  then begin
    Bytes.set t.halted origin '\001';
    let j = ref t.n_halts in
    while !j > 0 && t.halt_its.(!j - 1) > it do
      t.halt_its.(!j) <- t.halt_its.(!j - 1);
      decr j
    done;
    t.halt_its.(!j) <- it;
    t.n_halts <- t.n_halts + 1
  end

(* Outputs once ts+1 recorded halts name an iteration below the current
   one, i.e. once the (ts+1)-th smallest halt does; it is then also the
   (ts+1)-th smallest of those below. Depends only on the halts,
   [iter] and [history], so it runs exactly where those change — after
   [record_halt], at the end of [join_iteration], after adopting a value
   — and is idempotent in between. A halt below 0 names no value. *)
let try_halt_output t =
  if Option.is_none t.output && t.iter >= 1 && t.n_halts > t.cfg.ts then begin
    let it_h = t.halt_its.(t.cfg.ts) in
    if it_h >= 0 && it_h < t.iter then begin
      let v = t.history.(it_h) in
      t.output <- Some v;
      t.output_iter <- Some it_h;
      t.output_time <- Some (t.now ());
      t.cbs.on_output ~iter:it_h v
    end
  end

let rec join_iteration t it =
  t.iter <- it;
  t.iter_start <- t.now ();
  t.pending_value <- None;
  let obc = obc t in
  Obc.restart obc ~iter:it;
  drain t.buffered_values it obc (fun obc (origin, v) -> Obc.on_value obc ~origin v);
  drain t.buffered_reports it obc (fun obc (from, pairs) ->
      Obc.on_report obc ~from pairs);
  (* join_iteration it requires v_{it-1} adopted *)
  Obc.start obc t.history.(it - 1);
  t.set_timer ~at:(t.iter_start + (Params.c_aa_it * t.cfg.delta) + 1);
  (* no value can be pending yet: the fresh oBC cannot output before
     local time moves past [iter_start] *)
  try_halt_output t

and on_obc_output t values =
  if Option.is_none t.output && Option.is_none t.pending_value then begin
    let k = Array.length values - (t.cfg.n - t.cfg.ts) in
    let trim = max k t.cfg.ta in
    match Safe_cache.new_value_arr t.safe_cache ~t:trim values with
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
          adopt t v;
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
  adopt t v0;
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
        if it > t.iter then buffer t.buffered_values it (id.origin, v)
        else if it = t.iter && it >= 1 then
          Obc.on_value (obc t) ~origin:id.origin v
      end
  | Message.Halt it, _ ->
      record_halt t ~origin:id.origin it;
      try_halt_output t
  | _ -> ()

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
  if Option.is_none t.output && t.iter >= 1 then Obc.poke (obc t);
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
            if iter > t.iter then buffer t.buffered_reports iter (src, pairs)
            else if iter = t.iter && iter >= 1 then
              Obc.on_report (obc t) ~from:src pairs
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
let attach_endpoint ?(callbacks = no_callbacks) ?(opts = default_opts)
    ?safe_cache ~cfg (ep : Message.t Transport.endpoint) =
  if ep.n <> cfg.Config.n then
    invalid_arg "Party.attach_endpoint: endpoint/config n mismatch";
  let me = ep.me and now = ep.now and send_all = ep.send_all in
  let set_timer ~at = ep.set_timer ~at ~tag:0 in
  let batch =
    match opts.layer with
    | Interned -> None
    | Batched ->
        let b = Batch.create ~send_all in
        ep.register_flush (fun ~final:_ -> Batch.flush b);
        Some b
  in
  let t =
    {
      cfg;
      me;
      opts;
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
      obc = None;
      history = Array.make 16 (Vec.zero 0);
      adopted = 0;
      halted = Bytes.make cfg.Config.n '\000';
      halt_its = Array.make cfg.Config.n 0;
      n_halts = 0;
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
      (Rbc.create ~intern:t.intern ~n:cfg.Config.n ~t:cfg.Config.ts
         {
           Rbc.send_all = rbc_send_all;
           deliver = (fun id payload -> on_rbc_deliver t id payload);
         });
  t.obc <-
    Some
      (Obc.create ~intern:t.intern ~n:cfg.Config.n ~ts:cfg.Config.ts
         ~delta:cfg.Config.delta ~iter:1
         {
           Obc.now;
           set_timer;
           rbc_broadcast =
             (fun payload ->
               Rbc.broadcast (rbc t)
                 { Message.tag = Message.Obc_value t.iter; origin = me }
                 payload);
           send_all;
           output = (fun _ values -> on_obc_output t values);
         });
  t.init <-
    Some
      (Init_round.create ~safe_cache:t.safe_cache ~intern:t.intern
         ~n:cfg.Config.n ~ts:cfg.Config.ts ~ta:cfg.Config.ta
         ~delta:cfg.Config.delta ~eps:cfg.Config.eps
         {
           Init_round.now;
           set_timer;
           rbc_broadcast =
             (fun tag payload ->
               Rbc.broadcast (rbc t) { Message.tag; origin = me } payload);
           send_all;
           output = (fun tt v0 -> on_init_output t tt v0);
         });
  ep.set_handler (handle t);
  t

let attach ?callbacks ?opts ?safe_cache ~cfg ~me engine =
  attach_endpoint ?callbacks ?opts ?safe_cache ~cfg (Engine.endpoint engine ~me)
