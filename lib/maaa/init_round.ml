type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;
  rbc_broadcast : Message.tag -> Message.payload -> unit;
  send_all : Message.t -> unit;
  output : int -> Vec.t -> unit;
}

(* Party-indexed arrays throughout, as in Obc: M holds interned value ids
   (compared by [Reports]) next to the vectors rBC delivered; a report
   row holds ids for the check and the report's own vectors for the
   estimate, since ids tie ±0 and the estimate must see the report's own
   bits. W is an id array too (0 for a witness, -1 otherwise), so witness
   sets verify against it through the same [Reports] check. *)
type t = {
  n : int;
  ts : int;
  ta : int;
  delta : int;
  eps : float;
  double_witnessing : bool;
  cache : Safe_cache.t;
  intern : Intern.t;
  cb : callbacks;
  mutable started : bool;
  mutable tau_start : int;
  m_pid : int array;  (* party -> interned value id, -1 absent *)
  m_vec : Vec.t array;  (* party -> its rBC'd value, where m_pid >= 0 *)
  mutable m_count : int;
  reports : Reports.t;  (* rBC'd reports against M *)
  rep_vec : Vec.t array;  (* n × n: each report's own vectors *)
  w_id : int array;  (* witness -> 0, others -1 *)
  mutable w_count : int;
  i_e : Vec.t array;  (* witness -> its estimation *)
  wsets : Reports.t;  (* witness sets against W *)
  mutable dw_count : int;  (* double witnesses *)
  mutable sent_report : bool;
  mutable sent_wset : bool;
  mutable done_ : bool;
}

let no_vec = Vec.zero 0

let create ?(double_witnessing = true) ?safe_cache ?intern ~n ~ts ~ta ~delta
    ~eps cb =
  {
    n;
    ts;
    ta;
    delta;
    eps;
    double_witnessing;
    cache =
      (match safe_cache with Some c -> c | None -> Safe_cache.create ());
    intern =
      (match intern with
      | Some i -> i
      | None -> Intern.create ~initial_size:16 ());
    cb;
    started = false;
    tau_start = 0;
    m_pid = Array.make n (-1);
    m_vec = Array.make n no_vec;
    m_count = 0;
    reports = Reports.create ~n ~need:(n - ts);
    rep_vec = Array.make (n * n) no_vec;
    w_id = Array.make n (-1);
    w_count = 0;
    i_e = Array.make n no_vec;
    wsets = Reports.create ~n ~need:(n - ts);
    dw_count = 0;
    sent_report = false;
    sent_wset = false;
    done_ = false;
  }

let has_output t = t.done_

(* ascending party order: Pairset.bindings of the same set *)
let bindings ids vecs =
  let acc = ref [] in
  for p = Array.length ids - 1 downto 0 do
    if ids.(p) >= 0 then acc := (p, vecs.(p)) :: !acc
  done;
  !acc

let estimations t = Pairset.of_bindings (bindings t.w_id t.i_e)

(* The estimation rule (lines 7-10 of Πinit): identical to the update rule
   of ΠAA-it, computed deterministically from the reported set (its
   values in ascending party order) so that every honest party derives
   the same estimate for the same witness. *)
let promote_witness t s =
  let count = Reports.count t.reports s in
  let vs = Array.make count no_vec and k = ref 0 in
  for p = 0 to t.n - 1 do
    if Reports.id t.reports s p >= 0 then begin
      vs.(!k) <- t.rep_vec.((s * t.n) + p);
      incr k
    end
  done;
  match
    Safe_cache.new_value_arr t.cache ~t:(max t.ta (count - (t.n - t.ts))) vs
  with
  | Some v ->
      t.w_id.(s) <- 0;
      t.w_count <- t.w_count + 1;
      t.i_e.(s) <- v
  | None ->
      (* Cannot happen for honest reports (Lemma 5.5); a malformed
         adversarial report simply never yields a witness. *)
      ()

let double_witness t _ = t.dw_count <- t.dw_count + 1

(* T := ⌈log_{√(7/8)}(ε / δmax(I_e))⌉, clamped to at least one iteration. *)
let iteration_estimate t estimates =
  let diam = Vec.diameter estimates in
  if diam <= t.eps then 1
  else
    let raw = log (t.eps /. diam) /. log Params.conv_factor in
    max 1 (int_of_float (Float.ceil raw))

let try_fire t =
  if t.started && not t.done_ then begin
    let now = t.cb.now () and quorum = t.n - t.ts in
    if
      (not t.sent_report)
      && now > t.tau_start + (Params.c_rbc * t.delta)
      && t.m_count >= quorum
    then begin
      t.sent_report <- true;
      t.cb.rbc_broadcast Message.Init_report
        (Message.Ppairs (bindings t.m_pid t.m_vec))
    end;
    Reports.verify t.reports t.m_pid promote_witness t;
    if
      (not t.sent_wset)
      && now > t.tau_start + (2 * Params.c_rbc * t.delta)
      && t.w_count >= quorum
    then begin
      t.sent_wset <- true;
      t.cb.send_all
        (Message.Witness_set
           { parties = List.map fst (bindings t.w_id t.i_e) })
    end;
    Reports.verify t.wsets t.w_id double_witness t;
    let gate = if t.double_witnessing then t.dw_count else t.w_count in
    if
      now > t.tau_start + (((2 * Params.c_rbc) + Params.c_rbc') * t.delta)
      && gate >= quorum
    then begin
      let estimates = List.map snd (bindings t.w_id t.i_e) in
      match
        Safe_cache.new_value_arr t.cache
          ~t:(max t.ta (t.w_count - quorum))
          (Array.of_list estimates)
      with
      | Some v0 ->
          t.done_ <- true;
          t.cb.output (iteration_estimate t estimates) v0
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

let on_value t ~origin v =
  if origin >= 0 && origin < t.n then begin
    (* first value per origin wins, as in Pairset.add *)
    if t.m_pid.(origin) < 0 then begin
      t.m_pid.(origin) <- Intern.intern_vec t.intern v;
      t.m_vec.(origin) <- v;
      t.m_count <- t.m_count + 1
    end;
    try_fire t
  end

let rec fill_report t s = function
  | [] -> ()
  | (p, v) :: rest ->
      if Reports.free t.reports s p then begin
        Reports.set t.reports s p (Intern.intern_vec t.intern v);
        t.rep_vec.((s * t.n) + p) <- v
      end;
      fill_report t s rest

let on_report t ~origin pairs =
  if Reports.accept t.reports origin then begin
    fill_report t origin pairs;
    try_fire t
  end

let rec fill_wset ws s = function
  | [] -> ()
  | p :: rest ->
      if Reports.free ws s p then Reports.set ws s p 0;
      fill_wset ws s rest

let on_witness_set t ~from ws =
  if Reports.accept t.wsets from then begin
    fill_wset t.wsets from ws;
    try_fire t
  end

let poke t = try_fire t
