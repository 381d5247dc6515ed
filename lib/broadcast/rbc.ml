type callbacks = {
  send_all : Message.t -> unit;
  deliver : Message.rbc_id -> Message.payload -> unit;
}

(* Payloads become dense ids at receipt (one structural hash each — see
   Intern), instances are rows found through a hashtable keyed by a
   per-constructor rbc_id code, and echo/ready accounting is an int
   counter plus a per-(payload, sender) bitset. No polymorphic compare
   or hash on the hot path. *)

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

(* Each distinct payload an instance has seen votes for is one row of
   the flat arrays in [t]. An instance's first row is its head: it takes
   the first payload, holds the instance's flags and chains the
   instance's other payloads through [next]. Honest executions give an
   instance one row, equivocation a handful, so a walk along the chain
   beats any keyed structure, and both share one code path.

   An instance that has echoed, readied and delivered can make no further
   callback, whatever arrives for it: its rows go back on the free list
   (chained through [next] too) and the id table maps it to [retired].
   The rows in use are the instances still in flight, so the arrays stay
   narrow; the id table keeps one cell per instance. *)

let echoed = 1
let readied = 2
let delivered = 4
let retired = -1

type t = {
  n : int;
  thr : int;
  bpp : int;  (* bytes per sender bitset *)
  cb : callbacks;
  intern : Intern.t;
  heads : int IdTbl.t;  (* instance -> head row, or [retired] *)
  mutable pid : int array;  (* row -> interned payload id, -1 for a bare head *)
  mutable next : int array;  (* row -> next row of its chain, -1 at the end *)
  mutable votes : int array;  (* cell 2·row + kind (0 echo, 1 ready) -> count *)
  mutable seen : Bytes.t;  (* cell -> its senders' bitset, [bpp] bytes *)
  mutable flags : Bytes.t;  (* head row -> echoed/readied/delivered bits *)
  mutable free : int;  (* first free row, -1 when none is left *)
  mutable extra : (int * int) list;
      (* (cell, sender) for senders outside [0, n), deduped *)
  (* 1-entry lookup memo: deliveries arrive in per-instance bursts (all
     echoes, then all readies), so remembering the last id skips the
     hashtable on the common path. Empty while [last_id] is [no_id]. *)
  mutable last_id : Message.rbc_id;
  mutable last_head : int;
}

(* The empty memo: [no_id] is recognised physically, so no id a peer
   sends can alias it. *)
let no_id = { Message.tag = Message.Init_value; origin = -1 }

(* Doubles every row array; the new rows become the free list. *)
let grow t =
  let cap = Array.length t.pid in
  let cap' = max 16 (2 * cap) in
  let ints a per =
    let b = Array.make (per * cap') (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.pid <- ints t.pid 1;
  t.next <- ints t.next 1;
  t.votes <- ints t.votes 2;
  t.seen <- Bytes.extend t.seen 0 (2 * t.bpp * (cap' - cap));
  t.flags <- Bytes.extend t.flags 0 (cap' - cap);
  for r = cap to cap' - 2 do
    t.next.(r) <- r + 1
  done;
  t.free <- cap

let alloc_row t =
  if t.free < 0 then grow t;
  let r = t.free in
  t.free <- t.next.(r);
  t.pid.(r) <- -1;
  t.next.(r) <- -1;
  t.votes.(2 * r) <- 0;
  t.votes.((2 * r) + 1) <- 0;
  Bytes.fill t.seen (2 * r * t.bpp) (2 * t.bpp) '\000';
  Bytes.set t.flags r '\000';
  r

let rec free_chain t r =
  (match t.extra with
  | [] -> ()
  | l -> t.extra <- List.filter (fun (c, _) -> c lsr 1 <> r) l);
  let next = t.next.(r) in
  t.next.(r) <- t.free;
  t.free <- r;
  if next >= 0 then free_chain t next

let flag t h f = Char.code (Bytes.get t.flags h) land f <> 0

let set_flag t h f =
  Bytes.set t.flags h (Char.chr (Char.code (Bytes.get t.flags h) lor f))

let head t id =
  if t.last_id != no_id && id_equal t.last_id id then t.last_head
  else begin
    (* [find], not [find_opt]: a hit must not box its result *)
    let h =
      match IdTbl.find t.heads id with
      | h -> h
      | exception Not_found ->
          let h = alloc_row t in
          IdTbl.add t.heads id h;
          h
    in
    t.last_id <- id;
    t.last_head <- h;
    h
  end

(* The row of payload [pid] in the chain through [r]: a bare head takes
   it; a payload the chain lacks gets a new row at its end. *)
let rec row_for t r pid =
  let p = t.pid.(r) in
  if p = pid then r
  else if p < 0 then begin
    t.pid.(r) <- pid;
    r
  end
  else if t.next.(r) >= 0 then row_for t t.next.(r) pid
  else begin
    let s = alloc_row t in
    t.pid.(s) <- pid;
    t.next.(r) <- s;
    s
  end

(* Count a vote at most once per (sender, value). Senders outside
   [0, n) cannot index the bitset; they go to a deduped side list so the
   totals still match the reference IntSet semantics exactly. *)
let add_vote t c ~from =
  if from >= 0 && from < t.n then begin
    let byte = (c * t.bpp) + (from lsr 3) and bit = 1 lsl (from land 7) in
    let b = Char.code (Bytes.get t.seen byte) in
    if b land bit = 0 then begin
      Bytes.set t.seen byte (Char.chr (b lor bit));
      t.votes.(c) <- t.votes.(c) + 1
    end
  end
  else if not (List.mem (c, from) t.extra) then begin
    t.extra <- (c, from) :: t.extra;
    t.votes.(c) <- t.votes.(c) + 1
  end

let vote t id h pid kind ~from =
  let r = row_for t h pid in
  add_vote t ((2 * r) + kind) ~from;
  let echoes = t.votes.(2 * r) and readies = t.votes.((2 * r) + 1) in
  (* n - t echoes, or t + 1 readies: send our ready for this value *)
  if
    (not (flag t h readied))
    && (echoes >= t.n - t.thr || readies >= t.thr + 1)
  then begin
    set_flag t h readied;
    t.cb.send_all (Message.Rbc (id, Message.Ready, Intern.payload t.intern pid))
  end;
  (* n - t readies: deliver *)
  if (not (flag t h delivered)) && readies >= t.n - t.thr then begin
    set_flag t h delivered;
    t.cb.deliver id (Intern.payload t.intern pid)
  end

let on_message t ~from id step v =
  let h = head t id in
  (* one structural hash per receipt; everything after is int-keyed *)
  let pid = Intern.intern t.intern v in
  if h <> retired then begin
    (match step with
    | Message.Init ->
        if from = id.origin && not (flag t h echoed) then begin
          set_flag t h echoed;
          t.cb.send_all
            (Message.Rbc (id, Message.Echo, Intern.payload t.intern pid))
        end
    | Message.Echo -> vote t id h pid 0 ~from
    | Message.Ready -> vote t id h pid 1 ~from);
    if flag t h echoed && flag t h readied && flag t h delivered then begin
      IdTbl.replace t.heads id retired;
      t.last_head <- retired;
      free_chain t h
    end
  end

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
    heads = IdTbl.create 16;
    pid = [||];
    next = [||];
    votes = [||];
    seen = Bytes.empty;
    flags = Bytes.empty;
    free = -1;
    extra = [];
    last_id = no_id;
    last_head = retired;
  }

let broadcast t id v =
  (* intern our own value so the self-delivered copy is a hash hit *)
  t.cb.send_all
    (Message.Rbc (id, Message.Init, Intern.intern_payload t.intern v))
