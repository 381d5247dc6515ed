type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;
  rbc_broadcast : Message.payload -> unit;
  send_all : Message.t -> unit;
  output : int array -> Vec.t array -> unit;
}

(* Seed implementation, kept verbatim as a test oracle (test_obc.ml
   compares the callback calls of both on generated streams): all
   collected-set accounting through Pairset (an Int map of vectors) and
   report verification through Pairset.subset — O(n · D) float compares
   per pending report on every event. *)
module Reference = struct
  module IntSet = Set.Make (Int)
  module IntMap = Map.Make (Int)

  type t = {
    n : int;
    ts : int;
    delta : int;
    iter : int;
    witnessing : bool;
    cb : callbacks;
    mutable started : bool;
    mutable tau_start : int;
    mutable m : Pairset.t;
    mutable witnesses : IntSet.t;
    mutable pending : Pairset.t IntMap.t;  (* reports not yet verified *)
    mutable seen_report : IntSet.t;  (* senders whose report we keep/kept *)
    mutable sent_report : bool;
    mutable done_ : bool;
  }

  let create ?(witnessing = true) ~n ~ts ~delta ~iter cb =
    {
      n;
      ts;
      delta;
      iter;
      witnessing;
      cb;
      started = false;
      tau_start = 0;
      m = Pairset.empty;
      witnesses = IntSet.empty;
      pending = IntMap.empty;
      seen_report = IntSet.empty;
      sent_report = false;
      done_ = false;
    }

  (* A report is validated when it is large enough and every pair in it has
     been rBC-delivered to us too; its sender becomes a witness. *)
  let recheck_pending t =
    let validated, still_pending =
      IntMap.partition
        (fun _ report ->
          Pairset.cardinal report >= t.n - t.ts && Pairset.subset report t.m)
        t.pending
    in
    t.pending <- still_pending;
    IntMap.iter
      (fun from _ -> t.witnesses <- IntSet.add from t.witnesses)
      validated

  let try_fire t =
    if t.started && not t.done_ then begin
      let now = t.cb.now () in
      if
        (not t.sent_report)
        && now > t.tau_start + (Params.c_rbc * t.delta)
        && Pairset.cardinal t.m >= t.n - t.ts
      then begin
        t.sent_report <- true;
        t.cb.send_all
          (Message.Obc_report
             { iter = t.iter; pairs = Pairset.bindings t.m })
      end;
      recheck_pending t;
      let witness_ok =
        if t.witnessing then IntSet.cardinal t.witnesses >= t.n - t.ts
        else Pairset.cardinal t.m >= t.n - t.ts
      in
      let deadline =
        if t.witnessing then (Params.c_rbc + Params.c_rbc') * t.delta
        else Params.c_rbc * t.delta
      in
      if now > t.tau_start + deadline && witness_ok then begin
        t.done_ <- true;
        t.cb.output
          (Array.of_list (Pairset.parties t.m))
          (Pairset.values_arr t.m)
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

  let valid_party t p = p >= 0 && p < t.n

  let on_value t ~origin v =
    if valid_party t origin then begin
      t.m <- Pairset.add ~party:origin v t.m;
      try_fire t
    end

  let on_report t ~from pairs =
    if valid_party t from && not (IntSet.mem from t.seen_report) then begin
      t.seen_report <- IntSet.add from t.seen_report;
      let report =
        List.fold_left
          (fun acc (p, v) ->
            if valid_party t p then Pairset.add ~party:p v acc else acc)
          Pairset.empty pairs
      in
      t.pending <- IntMap.add from report t.pending;
      try_fire t
    end

  let poke t = try_fire t
end

(* ------------------------------------------------------------------ *)
(* The protocol path. The collected set M is a flat party-indexed array
   of interned value ids, a pending report is the same shape, and the
   subset check behind witness promotion — re-run on every single event
   by [try_fire] — degrades from O(n·D) float comparisons to O(n) int
   compares. Vectors are interned as [Pvec] through the same table the
   party's rBC layer uses, so the ids agree with the values rBC
   delivered and the canonical vectors are shared in memory. *)

type pending = {
  sender : int;
  rep_pid : int array;  (* party -> value id, -1 absent *)
  rep_count : int;
}

type t = {
  n : int;
  ts : int;
  delta : int;
  iter : int;
  witnessing : bool;
  cb : callbacks;
  intern : Intern.t;
  m_pid : int array;  (* party -> interned value id, -1 absent *)
  m_vec : Vec.t array;  (* canonical vectors, valid where m_pid >= 0 *)
  mutable m_count : int;
  witness_seen : Bytes.t;
  mutable witness_count : int;
  mutable pending : pending list;  (* unverified reports, newest first *)
  seen_report : Bytes.t;
  mutable started : bool;
  mutable tau_start : int;
  mutable sent_report : bool;
  mutable done_ : bool;
}

let bit_mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

(* ascending party order — exactly Pairset.bindings of the same set *)
let bindings t =
  let acc = ref [] in
  for p = t.n - 1 downto 0 do
    if t.m_pid.(p) >= 0 then acc := (p, t.m_vec.(p)) :: !acc
  done;
  !acc

let rec agrees_from t r p =
  p = t.n
  || ((r.rep_pid.(p) < 0 || r.rep_pid.(p) = t.m_pid.(p))
     && agrees_from t r (p + 1))

let report_verified t r = r.rep_count >= t.n - t.ts && agrees_from t r 0

let rec any_verified t = function
  | [] -> false
  | r :: rest -> report_verified t r || any_verified t rest

(* Promotes the senders of verified reports to witnesses and returns the
   reports still pending; allocates only for those. *)
let rec drop_verified t = function
  | [] -> []
  | r :: rest ->
      if report_verified t r then begin
        if not (bit_mem t.witness_seen r.sender) then begin
          bit_set t.witness_seen r.sender;
          t.witness_count <- t.witness_count + 1
        end;
        drop_verified t rest
      end
      else r :: drop_verified t rest

(* Runs on every event while reports are pending. *)
let recheck_pending t =
  if any_verified t t.pending then t.pending <- drop_verified t t.pending

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
    recheck_pending t;
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

let valid_party t p = p >= 0 && p < t.n

let on_value t ~origin v =
  if valid_party t origin then begin
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

let on_report t ~from pairs =
  if valid_party t from && not (bit_mem t.seen_report from) then begin
    bit_set t.seen_report from;
    let rep_pid = Array.make t.n (-1) in
    let rec fill count = function
      | [] -> count
      | (p, v) :: rest ->
          if valid_party t p && rep_pid.(p) < 0 then begin
            rep_pid.(p) <- Intern.intern_vec t.intern v;
            fill (count + 1) rest
          end
          else fill count rest
    in
    let rep_count = fill 0 pairs in
    t.pending <- { sender = from; rep_pid; rep_count } :: t.pending;
    try_fire t
  end

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
    witness_seen = Bytes.make ((n + 7) / 8) '\000';
    witness_count = 0;
    pending = [];
    seen_report = Bytes.make ((n + 7) / 8) '\000';
    started = false;
    tau_start = 0;
    sent_report = false;
    done_ = false;
  }

let poke t = try_fire t
