type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;
  rbc_broadcast : Message.payload -> unit;
  send_all : Message.t -> unit;
  output : int array -> Vec.t array -> unit;
}

(* The collected set M is a flat party-indexed array of interned value
   ids, pending reports are rows of the same shape ({!Reports}), and the
   subset check behind witness promotion — re-run on every single event
   by [try_fire] — degrades from O(n·D) float comparisons to O(n) int
   compares. Vectors are interned as [Pvec] through the same table the
   party's rBC layer uses, so the ids agree with the values rBC
   delivered and the canonical vectors are shared in memory. *)

type t = {
  n : int;
  ts : int;
  delta : int;
  mutable iter : int;
  witnessing : bool;
  cb : callbacks;
  intern : Intern.t;
  m_pid : int array;  (* party -> interned value id, -1 absent *)
  m_vec : Vec.t array;  (* canonical vectors, valid where m_pid >= 0 *)
  mutable m_count : int;
  reports : Reports.t;
  mutable witness_count : int;
  mutable started : bool;
  mutable tau_start : int;
  mutable sent_report : bool;
  mutable done_ : bool;
}

(* ascending party order — exactly Pairset.bindings of the same set *)
let bindings t =
  let acc = ref [] in
  for p = t.n - 1 downto 0 do
    if t.m_pid.(p) >= 0 then acc := (p, t.m_vec.(p)) :: !acc
  done;
  !acc

let promote t _ = t.witness_count <- t.witness_count + 1

let try_fire t =
  if t.started && not t.done_ then begin
    let now = t.cb.now () in
    if
      (not t.sent_report)
      && now > t.tau_start + (Params.c_rbc * t.delta)
      && t.m_count >= t.n - t.ts
    then begin
      t.sent_report <- true;
      t.cb.send_all
        (Message.Obc_report
           { iter = t.iter; pairs = bindings t })
    end;
    Reports.verify t.reports t.m_pid promote t;
    let witness_ok =
      if t.witnessing then t.witness_count >= t.n - t.ts
      else t.m_count >= t.n - t.ts
    in
    let deadline =
      if t.witnessing then (Params.c_rbc + Params.c_rbc') * t.delta
      else Params.c_rbc * t.delta
    in
    if now > t.tau_start + deadline && witness_ok then begin
      t.done_ <- true;
      let parties = Array.make t.m_count 0 and k = ref 0 in
      Array.iteri
        (fun p pid -> if pid >= 0 then (parties.(!k) <- p; incr k))
        t.m_pid;
      t.cb.output parties (Array.map (Array.get t.m_vec) parties)
    end
  end

let start t v =
  if t.started then invalid_arg "Obc.start: already started";
  t.started <- true;
  t.tau_start <- t.cb.now ();
  t.cb.rbc_broadcast (Message.Pvec v);
  t.cb.set_timer ~at:(t.tau_start + (Params.c_rbc * t.delta) + 1);
  t.cb.set_timer
    ~at:(t.tau_start + ((Params.c_rbc + Params.c_rbc') * t.delta) + 1);
  try_fire t

let on_value t ~origin v =
  if origin >= 0 && origin < t.n then begin
    (* first value per origin wins, as in Pairset.add *)
    if t.m_pid.(origin) < 0 then begin
      let pid = Intern.intern_vec t.intern v in
      t.m_pid.(origin) <- pid;
      (match Intern.payload t.intern pid with
      | Message.Pvec cv -> t.m_vec.(origin) <- cv
      | _ -> assert false);
      t.m_count <- t.m_count + 1
    end;
    try_fire t
  end

let rec fill t from = function
  | [] -> ()
  | (p, v) :: rest ->
      if Reports.free t.reports from p then
        Reports.set t.reports from p (Intern.intern_vec t.intern v);
      fill t from rest

let on_report t ~from pairs =
  if Reports.accept t.reports from then begin
    fill t from pairs;
    try_fire t
  end

let restart t ~iter =
  t.iter <- iter;
  Array.fill t.m_pid 0 t.n (-1);
  t.m_count <- 0;
  Reports.reset t.reports;
  t.witness_count <- 0;
  t.started <- false;
  t.tau_start <- 0;
  t.sent_report <- false;
  t.done_ <- false

let create ?intern ?(witnessing = true) ~n ~ts ~delta ~iter cb =
  let intern =
    match intern with Some i -> i | None -> Intern.create ~initial_size:16 ()
  in
  {
    n;
    ts;
    delta;
    iter;
    witnessing;
    cb;
    intern;
    m_pid = Array.make n (-1);
    m_vec = Array.make n (Vec.zero 0);
    m_count = 0;
    reports = Reports.create ~n ~need:(n - ts);
    witness_count = 0;
    started = false;
    tau_start = 0;
    sent_report = false;
    done_ = false;
  }

let poke t = try_fire t
