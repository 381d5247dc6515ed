type callbacks = {
  send_all : Message.t -> unit;
  deliver : Message.rbc_id -> Message.payload -> unit;
}

(* The seed implementation, kept verbatim (including its
   exception-as-control-flow [votes] lookup) as a test oracle and the
   B11 baseline: on every input stream, the interned path below must
   make [send_all]/[deliver] calls that [compare] equal (test_rbc.ml). *)
module Reference = struct
  module IdMap = Map.Make (struct
    type t = Message.rbc_id

    let compare = Stdlib.compare
  end)

  module PayloadMap = Map.Make (struct
    type t = Message.payload

    let compare = Stdlib.compare
  end)

  module IntSet = Set.Make (Int)

  type instance = {
    mutable echoed : bool;  (* sent our echo (for some value) *)
    mutable readied : bool;  (* sent our ready (for some value) *)
    mutable output : Message.payload option;
    mutable echo_votes : IntSet.t PayloadMap.t;  (* value -> echo senders *)
    mutable ready_votes : IntSet.t PayloadMap.t;  (* value -> ready senders *)
  }

  type t = {
    n : int;
    thr : int;
    cb : callbacks;
    mutable instances : instance IdMap.t;
  }

  let create ~n ~t cb =
    if n <= 3 * t then invalid_arg "Rbc.create: requires n > 3t";
    { n; thr = t; cb; instances = IdMap.empty }

  let instance t id =
    match IdMap.find_opt id t.instances with
    | Some inst -> inst
    | None ->
        let inst =
          {
            echoed = false;
            readied = false;
            output = None;
            echo_votes = PayloadMap.empty;
            ready_votes = PayloadMap.empty;
          }
        in
        t.instances <- IdMap.add id inst t.instances;
        inst

  let votes map v =
    try IntSet.cardinal (PayloadMap.find v map) with Not_found -> 0

  let add_vote map ~from v =
    PayloadMap.update v
      (function
        | None -> Some (IntSet.singleton from)
        | Some s -> Some (IntSet.add from s))
      map

  let send_echo t id v inst =
    if not inst.echoed then begin
      inst.echoed <- true;
      t.cb.send_all (Message.Rbc (id, Message.Echo, v))
    end

  let send_ready t id v inst =
    if not inst.readied then begin
      inst.readied <- true;
      t.cb.send_all (Message.Rbc (id, Message.Ready, v))
    end

  let check_progress t id inst v =
    (* n - t echoes, or t + 1 readies: send our ready for v *)
    if
      (not inst.readied)
      && (votes inst.echo_votes v >= t.n - t.thr
         || votes inst.ready_votes v >= t.thr + 1)
    then send_ready t id v inst;
    (* n - t readies: deliver v *)
    if inst.output = None && votes inst.ready_votes v >= t.n - t.thr then begin
      inst.output <- Some v;
      t.cb.deliver id v
    end

  let broadcast t id v = t.cb.send_all (Message.Rbc (id, Message.Init, v))

  let on_message t ~from id step v =
    let inst = instance t id in
    match step with
    | Message.Init ->
        (* only the designated origin may initiate *)
        if from = id.origin then send_echo t id v inst
    | Message.Echo ->
        inst.echo_votes <- add_vote inst.echo_votes ~from v;
        check_progress t id inst v
    | Message.Ready ->
        inst.ready_votes <- add_vote inst.ready_votes ~from v;
        check_progress t id inst v
end

(* ------------------------------------------------------------------ *)
(* The protocol path: payloads become dense ids at receipt (one
   structural hash each — see Intern), instances live in a hashtable
   keyed by a per-constructor rbc_id code, and echo/ready accounting is
   an int counter plus a per-(payload, sender) bitset. No polymorphic
   compare or hash anywhere below. *)

(* Injective over (tag kind, iteration); used for hashing only, so a
   pathological iteration value can at worst cause a chain, never a
   wrong lookup — [id_equal] checks the full id. *)
let tag_code = function
  | Message.Init_value -> 0
  | Message.Init_report -> 1
  | Message.Obc_value it -> 2 + (4 * it)
  | Message.Halt it -> 3 + (4 * it)
  | Message.Async_value it -> 4 + (4 * it)
  | Message.Async_report it -> 5 + (4 * it)

let id_equal (a : Message.rbc_id) (b : Message.rbc_id) =
  a.origin = b.origin
  &&
  match (a.tag, b.tag) with
  | Message.Init_value, Message.Init_value
  | Message.Init_report, Message.Init_report ->
      true
  | Message.Obc_value i, Message.Obc_value j
  | Message.Halt i, Message.Halt j
  | Message.Async_value i, Message.Async_value j
  | Message.Async_report i, Message.Async_report j ->
      i = j
  | _ -> false

module IdTbl = Hashtbl.Make (struct
  type t = Message.rbc_id

  let equal = id_equal

  let hash (id : Message.rbc_id) =
    (((tag_code id.tag * 0x01000193) lxor id.origin) * 0x01000193)
    land max_int
end)

(* One slot per distinct payload an instance has seen votes for; honest
   executions have exactly one, equivocation a handful, so a linear scan
   over the slot list beats any keyed structure. *)
type slot = {
  pid : int;  (* interned payload id *)
  payload : Message.payload;  (* canonical representative *)
  echo_seen : Bytes.t;  (* sender bitsets, in-range senders *)
  ready_seen : Bytes.t;
  mutable echo_count : int;
  mutable ready_count : int;
  mutable echo_extra : int list;  (* out-of-range senders, deduped *)
  mutable ready_extra : int list;
}

type instance = {
  mutable echoed : bool;
  mutable readied : bool;
  mutable output : Message.payload option;
  mutable slots : slot list;
}

type t = {
  n : int;
  thr : int;
  bpp : int;  (* bytes per sender bitset *)
  cb : callbacks;
  intern : Intern.t;
  instances : instance IdTbl.t;
  (* 1-entry lookup memo: deliveries arrive in per-instance bursts (all
     echoes, then all readies), so remembering the last id skips the
     hashtable on the common path. Empty while [last_id] is [no_id]. *)
  mutable last_id : Message.rbc_id;
  mutable last_inst : instance;
}

(* The empty memo: [no_id] is recognised physically, so no id a peer
   sends can alias it. *)
let no_id = { Message.tag = Message.Init_value; origin = -1 }
let no_instance = { echoed = false; readied = false; output = None; slots = [] }

let bit_mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let instance t id =
  if t.last_id != no_id && id_equal t.last_id id then t.last_inst
  else begin
    (* [find], not [find_opt]: a hit must not box its result *)
    let inst =
      match IdTbl.find t.instances id with
      | inst -> inst
      | exception Not_found ->
          let inst =
            { echoed = false; readied = false; output = None; slots = [] }
          in
          IdTbl.add t.instances id inst;
          inst
    in
    t.last_id <- id;
    t.last_inst <- inst;
    inst
  end

let rec slot_for t inst pid payload = function
  | [] ->
      let s =
        {
          pid;
          payload;
          echo_seen = Bytes.make t.bpp '\000';
          ready_seen = Bytes.make t.bpp '\000';
          echo_count = 0;
          ready_count = 0;
          echo_extra = [];
          ready_extra = [];
        }
      in
      inst.slots <- s :: inst.slots;
      s
  | s :: rest -> if s.pid = pid then s else slot_for t inst pid payload rest

(* Count a vote at most once per (sender, value). Senders outside
   [0, n) cannot index the bitset; they go to a deduped side list so the
   totals still match the reference IntSet semantics exactly. *)
let add_echo t s ~from =
  if from >= 0 && from < t.n then begin
    if not (bit_mem s.echo_seen from) then begin
      bit_set s.echo_seen from;
      s.echo_count <- s.echo_count + 1
    end
  end
  else if not (List.mem from s.echo_extra) then begin
    s.echo_extra <- from :: s.echo_extra;
    s.echo_count <- s.echo_count + 1
  end

let add_ready t s ~from =
  if from >= 0 && from < t.n then begin
    if not (bit_mem s.ready_seen from) then begin
      bit_set s.ready_seen from;
      s.ready_count <- s.ready_count + 1
    end
  end
  else if not (List.mem from s.ready_extra) then begin
    s.ready_extra <- from :: s.ready_extra;
    s.ready_count <- s.ready_count + 1
  end

let check_progress t id inst (s : slot) =
  (* n - t echoes, or t + 1 readies: send our ready for this value *)
  if
    (not inst.readied)
    && (s.echo_count >= t.n - t.thr || s.ready_count >= t.thr + 1)
  then begin
    inst.readied <- true;
    t.cb.send_all (Message.Rbc (id, Message.Ready, s.payload))
  end;
  (* n - t readies: deliver *)
  if Option.is_none inst.output && s.ready_count >= t.n - t.thr then begin
    inst.output <- Some s.payload;
    t.cb.deliver id s.payload
  end

let on_message t ~from id step v =
  let inst = instance t id in
  (* one structural hash per receipt; everything after is int-keyed *)
  let pid = Intern.intern t.intern v in
  match step with
  | Message.Init ->
      if from = id.origin && not inst.echoed then begin
        inst.echoed <- true;
        t.cb.send_all (Message.Rbc (id, Message.Echo, Intern.payload t.intern pid))
      end
  | Message.Echo ->
      let s = slot_for t inst pid (Intern.payload t.intern pid) inst.slots in
      add_echo t s ~from;
      check_progress t id inst s
  | Message.Ready ->
      let s = slot_for t inst pid (Intern.payload t.intern pid) inst.slots in
      add_ready t s ~from;
      check_progress t id inst s

let create ?intern ~n ~t cb =
  if n <= 3 * t then invalid_arg "Rbc.create: requires n > 3t";
  (* standalone (non-Party) use: small tables — one broadcast is a
     single instance with a handful of payloads *)
  let intern =
    match intern with Some i -> i | None -> Intern.create ~initial_size:16 ()
  in
  {
    n;
    thr = t;
    bpp = (n + 7) / 8;
    cb;
    intern;
    instances = IdTbl.create 16;
    last_id = no_id;
    last_inst = no_instance;
  }

let broadcast t id v =
  (* intern our own value so the self-delivered copy is a hash hit *)
  t.cb.send_all
    (Message.Rbc (id, Message.Init, Intern.intern_payload t.intern v))
