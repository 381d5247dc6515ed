module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;
  rbc_broadcast : Message.tag -> Message.payload -> unit;
  send_all : Message.t -> unit;
  output : int -> Vec.t -> unit;
}

type t = {
  n : int;
  ts : int;
  ta : int;
  delta : int;
  eps : float;
  double_witnessing : bool;
  cache : Safe_cache.t;
  cb : callbacks;
  mutable started : bool;
  mutable tau_start : int;
  mutable m : Pairset.t;
  mutable i_e : Pairset.t;  (* estimation per witness *)
  mutable witnesses : IntSet.t;
  mutable double_witnesses : IntSet.t;
  mutable pending_reports : Pairset.t IntMap.t;
  mutable pending_wsets : IntSet.t IntMap.t;
  mutable seen_report : IntSet.t;
  mutable seen_wset : IntSet.t;
  mutable sent_report : bool;
  mutable sent_wset : bool;
  mutable done_ : bool;
}

let create ?(double_witnessing = true) ?safe_cache ~n ~ts ~ta ~delta ~eps cb =
  {
    n;
    ts;
    ta;
    delta;
    eps;
    double_witnessing;
    cache =
      (match safe_cache with Some c -> c | None -> Safe_cache.create ());
    cb;
    started = false;
    tau_start = 0;
    m = Pairset.empty;
    i_e = Pairset.empty;
    witnesses = IntSet.empty;
    double_witnesses = IntSet.empty;
    pending_reports = IntMap.empty;
    pending_wsets = IntMap.empty;
    seen_report = IntSet.empty;
    seen_wset = IntSet.empty;
    sent_report = false;
    sent_wset = false;
    done_ = false;
  }

let has_output t = t.done_
let estimations t = t.i_e

(* The estimation rule (lines 7-10 of Πinit): identical to the update rule
   of ΠAA-it, computed deterministically
   from the reported set so that every honest party derives the same
   estimate for the same witness. *)
let estimate t report =
  let k = Pairset.cardinal report - (t.n - t.ts) in
  let trim = max t.ta k in
  Safe_cache.new_value_arr t.cache ~t:trim (Pairset.values_arr report)

let promote_witness t from report =
  match estimate t report with
  | Some v ->
      t.witnesses <- IntSet.add from t.witnesses;
      t.i_e <- Pairset.add ~party:from v t.i_e
  | None ->
      (* Cannot happen for honest reports (Lemma 5.5); a malformed
         adversarial report simply never yields a witness. *)
      ()

let recheck_reports t =
  let validated, rest =
    IntMap.partition
      (fun _ report ->
        Pairset.cardinal report >= t.n - t.ts && Pairset.subset report t.m)
      t.pending_reports
  in
  t.pending_reports <- rest;
  IntMap.iter (fun from report -> promote_witness t from report) validated

let recheck_wsets t =
  let validated, rest =
    IntMap.partition
      (fun _ ws ->
        IntSet.cardinal ws >= t.n - t.ts && IntSet.subset ws t.witnesses)
      t.pending_wsets
  in
  t.pending_wsets <- rest;
  IntMap.iter
    (fun from _ -> t.double_witnesses <- IntSet.add from t.double_witnesses)
    validated

(* T := ⌈log_{√(7/8)}(ε / δmax(I_e))⌉, clamped to at least one iteration. *)
let iteration_estimate t =
  let diam = Pairset.diameter t.i_e in
  if diam <= t.eps then 1
  else
    let raw = log (t.eps /. diam) /. log Params.conv_factor in
    max 1 (int_of_float (Float.ceil raw))

let try_fire t =
  if t.started && not t.done_ then begin
    let now = t.cb.now () in
    if
      (not t.sent_report)
      && now > t.tau_start + (Params.c_rbc * t.delta)
      && Pairset.cardinal t.m >= t.n - t.ts
    then begin
      t.sent_report <- true;
      t.cb.rbc_broadcast Message.Init_report
        (Message.Ppairs (Pairset.bindings t.m))
    end;
    recheck_reports t;
    if
      (not t.sent_wset)
      && now > t.tau_start + (2 * Params.c_rbc * t.delta)
      && IntSet.cardinal t.witnesses >= t.n - t.ts
    then begin
      t.sent_wset <- true;
      t.cb.send_all
        (Message.Witness_set { parties = IntSet.elements t.witnesses })
    end;
    recheck_wsets t;
    let gate =
      if t.double_witnessing then t.double_witnesses else t.witnesses
    in
    if
      now > t.tau_start + (((2 * Params.c_rbc) + Params.c_rbc') * t.delta)
      && IntSet.cardinal gate >= t.n - t.ts
    then begin
      let k = IntSet.cardinal t.witnesses - (t.n - t.ts) in
      let trim = max t.ta k in
      match
        Safe_cache.new_value_arr t.cache ~t:trim (Pairset.values_arr t.i_e)
      with
      | Some v0 ->
          t.done_ <- true;
          t.cb.output (iteration_estimate t) v0
      | None ->
          (* Impossible for honest executions (Lemma 5.5): |I_e| = |W| and
             the trim level matches the lemma's hypothesis. *)
          assert false
    end
  end

let start t v =
  if t.started then invalid_arg "Init_round.start: already started";
  t.started <- true;
  t.tau_start <- t.cb.now ();
  t.cb.rbc_broadcast Message.Init_value (Message.Pvec v);
  List.iter
    (fun c -> t.cb.set_timer ~at:(t.tau_start + (c * t.delta) + 1))
    [ Params.c_rbc; 2 * Params.c_rbc; (2 * Params.c_rbc) + Params.c_rbc' ];
  try_fire t

let valid_party t p = p >= 0 && p < t.n

let on_value t ~origin v =
  if valid_party t origin then begin
    t.m <- Pairset.add ~party:origin v t.m;
    try_fire t
  end

let on_report t ~origin pairs =
  if valid_party t origin && not (IntSet.mem origin t.seen_report) then begin
    t.seen_report <- IntSet.add origin t.seen_report;
    let report =
      List.fold_left
        (fun acc (p, v) ->
          if valid_party t p then Pairset.add ~party:p v acc else acc)
        Pairset.empty pairs
    in
    t.pending_reports <- IntMap.add origin report t.pending_reports;
    try_fire t
  end

let on_witness_set t ~from ws =
  if valid_party t from && not (IntSet.mem from t.seen_wset) then begin
    t.seen_wset <- IntSet.add from t.seen_wset;
    let ws = IntSet.of_list (List.filter (valid_party t) ws) in
    t.pending_wsets <- IntMap.add from ws t.pending_wsets;
    try_fire t
  end

let poke t = try_fire t
