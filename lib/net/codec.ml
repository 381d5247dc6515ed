(* Binary serialisation of the protocol's logical messages.

   The sim backend passes [Message.t] values by reference; the net
   backend must push them through sockets, so every constructor gets a
   byte-exact round-trip here. Integrity is the frame layer's job (CRC +
   MAC), so a malformed buffer reaching [decode] means a local bug —
   decode raises the structured [Malformed] rather than trying to limp
   on, and the caller treats it as fatal for the connection.

   Vectors travel as raw IEEE-754 bit patterns ([Int64.bits_of_float]),
   so the round-trip is exact — the sim-as-oracle differential compares
   outputs with [Vec.equal_exact] and any decimal formatting would show
   up immediately. *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* -- writer -- *)

(* Each writer stores at [pos] and returns the position after it. Over
   the empty buffer it stores nothing: that pass measures a message, so
   the real one can fill an exact-length buffer. *)

let w8 b pos v =
  if Bytes.length b > 0 then Bytes.set_uint8 b pos v;
  pos + 1

let w32 b pos v =
  if Bytes.length b > 0 then Bytes.set_int32_le b pos (Int32.of_int v);
  pos + 4

let w64 b pos v =
  if Bytes.length b > 0 then Bytes.set_int64_le b pos (Int64.of_int v);
  pos + 8

let wvec b pos (v : Vec.t) =
  let a = (v :> float array) in
  let pos = w32 b pos (Array.length a) in
  if Bytes.length b > 0 then
    for i = 0 to Array.length a - 1 do
      Bytes.set_int64_le b (pos + (8 * i)) (Int64.bits_of_float a.(i))
    done;
  pos + (8 * Array.length a)

let rec witems f b pos = function
  | [] -> pos
  | x :: rest -> witems f b (f b pos x) rest

let wlist f b pos l = witems f b (w32 b pos (List.length l)) l
let wpair b pos (i, v) = wvec b (w32 b pos i) v

let wtag b pos = function
  | Message.Init_value -> w8 b pos 0
  | Message.Init_report -> w8 b pos 1
  | Message.Obc_value it -> w32 b (w8 b pos 2) it
  | Message.Halt it -> w32 b (w8 b pos 3) it
  | Message.Async_value it -> w32 b (w8 b pos 4) it
  | Message.Async_report it -> w32 b (w8 b pos 5) it

let step_code = function Message.Init -> 0 | Message.Echo -> 1 | Message.Ready -> 2

let wpayload b pos = function
  | Message.Pvec v -> wvec b (w8 b pos 0) v
  | Message.Ppairs ps -> wlist wpair b (w8 b pos 1) ps
  | Message.Pint i -> w64 b (w8 b pos 2) i
  | Message.Pparties ps -> wlist w32 b (w8 b pos 3) ps

let wentry b pos { Message.tag; origin } step p =
  let pos = w32 b (wtag b pos tag) origin in
  wpayload b (w8 b pos (step_code step)) p

let wbatched b pos (id, step, p) = wentry b pos id step p

let write b pos = function
  | Message.Rbc (id, step, p) -> wentry b (w8 b pos 0) id step p
  | Message.Rbc_batch entries -> wlist wbatched b (w8 b pos 1) entries
  | Message.Obc_report { iter; pairs } -> wlist wpair b (w32 b (w8 b pos 2) iter) pairs
  | Message.Witness_set { parties } -> wlist w32 b (w8 b pos 3) parties
  | Message.Sync_round { round; value } -> wvec b (w32 b (w8 b pos 4) round) value
  | Message.Ew_value { iter; value } -> wvec b (w32 b (w8 b pos 5) iter) value
  | Message.Ew_report { iter; pairs } -> wlist wpair b (w32 b (w8 b pos 6) iter) pairs
  | Message.Junk n -> w32 b (w8 b pos 7) n
  | Message.Ew_echo { iter; pairs } -> wlist wpair b (w32 b (w8 b pos 8) iter) pairs

let encode msg =
  let b = Bytes.create (write Bytes.empty 0 msg) in
  ignore (write b 0 msg);
  b

(* -- reader: one reusable cursor over a slice -- *)

type reader = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable stop : int;  (* end of the slice being read *)
  mutable engine_seq : int;  (* the last record's metadata *)
  mutable deliver_at : int;
}

let reader () = { buf = Bytes.empty; pos = 0; stop = 0; engine_seq = 0; deliver_at = 0 }
let engine_seq r = r.engine_seq
let deliver_at r = r.deliver_at

(* the offset of the next [n] bytes, which the cursor steps over *)
let take c n =
  if c.pos + n > c.stop then bad "truncated at byte %d (need %d more)" c.pos n;
  c.pos <- c.pos + n;
  c.pos - n

let r8 c = Bytes.get_uint8 c.buf (take c 1)
let r32 c = Int32.to_int (Bytes.get_int32_le c.buf (take c 4))
let r64 c = Int64.to_int (Bytes.get_int64_le c.buf (take c 8))

let rlen c what =
  let n = r32 c in
  if n < 0 || n > 1_000_000 then bad "implausible %s count %d" what n;
  n

(* A fresh vector, filled in place before anyone else sees it. *)
let rvec c =
  let d = rlen c "vector dimension" in
  let off = take c (8 * d) in
  let v = Vec.make d 0. in
  let a = (v :> float array) in
  for i = 0 to d - 1 do
    a.(i) <- Int64.float_of_bits (Bytes.get_int64_le c.buf (off + (8 * i)))
  done;
  v

(* [f] is a top-level reader, so passing it allocates nothing *)
let rec ritems f c n =
  if n = 0 then []
  else
    let x = f c in
    x :: ritems f c (n - 1)

let rlist what f c = ritems f c (rlen c what)

let rpair c =
  let i = r32 c in
  (i, rvec c)

let rtag c =
  match r8 c with
  | 0 -> Message.Init_value
  | 1 -> Message.Init_report
  | 2 -> Message.Obc_value (r32 c)
  | 3 -> Message.Halt (r32 c)
  | 4 -> Message.Async_value (r32 c)
  | 5 -> Message.Async_report (r32 c)
  | t -> bad "unknown rbc tag %d" t

let rid c =
  let tag = rtag c in
  let origin = r32 c in
  { Message.tag; origin }

let rstep c =
  match r8 c with
  | 0 -> Message.Init
  | 1 -> Message.Echo
  | 2 -> Message.Ready
  | s -> bad "unknown step %d" s

let rpayload c =
  match r8 c with
  | 0 -> Message.Pvec (rvec c)
  | 1 -> Message.Ppairs (rlist "pair" rpair c)
  | 2 -> Message.Pint (r64 c)
  | 3 -> Message.Pparties (rlist "party" r32 c)
  | p -> bad "unknown payload kind %d" p

let rentry c =
  let id = rid c in
  let step = rstep c in
  (id, step, rpayload c)

let read c =
  match r8 c with
  | 0 ->
      let id = rid c in
      let step = rstep c in
      Message.Rbc (id, step, rpayload c)
  | 1 -> Message.Rbc_batch (rlist "batch entry" rentry c)
  | 2 ->
      let iter = r32 c in
      Message.Obc_report { iter; pairs = rlist "pair" rpair c }
  | 3 -> Message.Witness_set { parties = rlist "party" r32 c }
  | 4 ->
      let round = r32 c in
      Message.Sync_round { round; value = rvec c }
  | 5 ->
      let iter = r32 c in
      Message.Ew_value { iter; value = rvec c }
  | 6 ->
      let iter = r32 c in
      Message.Ew_report { iter; pairs = rlist "pair" rpair c }
  | 7 -> Message.Junk (r32 c)
  | 8 ->
      let iter = r32 c in
      Message.Ew_echo { iter; pairs = rlist "pair" rpair c }
  | k -> bad "unknown message kind %d" k

(* Reads exactly the slice [off, off + len) of [buf]. *)
let read_slice c buf ~off ~len what read =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Codec: slice out of bounds";
  c.buf <- buf;
  c.pos <- off;
  c.stop <- off + len;
  let x = read c in
  if c.pos <> c.stop then bad "trailing %d bytes after %s" (c.stop - c.pos) what;
  x

let decode b = read_slice (reader ()) b ~off:0 ~len:(Bytes.length b) "message" read

(* -- the net backend's logical record: engine metadata + message -- *)

let encode_record ~engine_seq ~deliver_at msg =
  let b = Bytes.create (write Bytes.empty 16 msg) in
  ignore (write b (w64 b (w64 b 0 engine_seq) deliver_at) msg);
  b

let read_meta c =
  c.engine_seq <- r64 c;
  c.deliver_at <- r64 c;
  read c

let read_record r buf ~off ~len = read_slice r buf ~off ~len "record" read_meta

let decode_record bytes =
  let r = reader () in
  let msg = read_record r bytes ~off:0 ~len:(Bytes.length bytes) in
  (r.engine_seq, r.deliver_at, msg)
