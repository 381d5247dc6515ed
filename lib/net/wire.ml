(* The wire frame format and its incremental decoder.

   Layout (all integers little-endian):

     offset  size  field
     ------  ----  -----------------------------------------
          0     1  magic        0xAA
          1     1  version      2
          2     1  frame type   1 = HELLO, 2 = DATA, 3 = ACK
          3     1  src          party id
          4     1  dst          party id
          5     4  len          payload length in bytes
          9     8  seq          link sequence number (HELLO: epoch)
         17     8  ack          cumulative acknowledgement
         25   len  payload
     25+len     4  crc32        over bytes [0, 25+len)
     29+len     8  mac          SipHash-2-4 over bytes [0, 25+len),
                                keyed per directed link (src, dst)

   The decoder is incremental (TCP gives a byte stream, frames arrive
   torn) and total: any input either yields a frame, asks for more
   bytes, or returns a structured error — never an exception. On error
   the stream is unrecoverable by design (a length prefix can no longer
   be trusted), so the caller drops the connection and lets the perfect
   link replay; there is no resync heuristic to get subtly wrong. *)

let magic = 0xAA
(* Version 2 dropped the always-zero protocol-instance id from the
   [Codec] message layout; a version-1 peer is refused with
   [Bad_version 1] rather than misparsed. *)
let version = 2
let header_len = 25
let trailer_len = 12
let max_payload = 4 * 1024 * 1024

type ftype = Hello | Data | Ack

type frame = {
  ftype : ftype;
  src : int;
  dst : int;
  seq : int;
  ack : int;
  payload : Bytes.t;
}

type error =
  | Bad_magic of int
  | Bad_version of int
  | Bad_type of int
  | Bad_party of int
  | Oversize of int
  | Bad_crc of { expected : int; got : int }
  | Bad_mac
  | Short_frame
      (* only from [decode_exact]; the streaming decoder waits instead *)

let pp_error ppf = function
  | Bad_magic b -> Format.fprintf ppf "bad magic byte 0x%02x" b
  | Bad_version v -> Format.fprintf ppf "unknown version %d" v
  | Bad_type t -> Format.fprintf ppf "unknown frame type %d" t
  | Bad_party p -> Format.fprintf ppf "party id %d out of range" p
  | Oversize l -> Format.fprintf ppf "payload length %d exceeds limit" l
  | Bad_crc { expected; got } ->
      Format.fprintf ppf "crc mismatch (expected %08x, got %08x)" expected got
  | Bad_mac -> Format.fprintf ppf "mac verification failed"
  | Short_frame -> Format.fprintf ppf "truncated frame"

(* -- byte queues: the live bytes are [start, stop) of [buf] -- *)

type queue = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let queue () = { buf = Bytes.create 4096; start = 0; stop = 0 }
let buffered q = q.stop - q.start

(* Room for [len] more bytes at [stop]: compact to the front, growing
   the buffer first if compaction alone is not enough. *)
let reserve q len =
  if Bytes.length q.buf - q.stop < len then begin
    let live = buffered q in
    let cap = ref (Bytes.length q.buf) in
    while !cap < live + len do
      cap := 2 * !cap
    done;
    let nb = if !cap > Bytes.length q.buf then Bytes.create !cap else q.buf in
    Bytes.blit q.buf q.start nb 0 live;
    q.buf <- nb;
    q.start <- 0;
    q.stop <- live
  end

let consume q n =
  q.start <- q.start + n;
  if q.start = q.stop then begin
    q.start <- 0;
    q.stop <- 0
  end

(* -- the writer -- *)

let frame_len payload =
  if Bytes.length payload > max_payload then invalid_arg "Wire: payload too large";
  header_len + Bytes.length payload + trailer_len

type out = queue

let out = queue
let pending = buffered

(* The one frame writer: appends the frame at [o.stop]. *)
let put o ~key ftype ~src ~dst ~seq ~ack payload =
  let len = frame_len payload in
  reserve o len;
  let buf = o.buf and off = o.stop and body = len - trailer_len in
  Bytes.set_uint8 buf off magic;
  Bytes.set_uint8 buf (off + 1) version;
  Bytes.set_uint8 buf (off + 2) (match ftype with Hello -> 1 | Data -> 2 | Ack -> 3);
  Bytes.set_uint8 buf (off + 3) src;
  Bytes.set_uint8 buf (off + 4) dst;
  Bytes.set_int32_le buf (off + 5) (Int32.of_int (Bytes.length payload));
  Bytes.set_int64_le buf (off + 9) (Int64.of_int seq);
  Bytes.set_int64_le buf (off + 17) (Int64.of_int ack);
  Bytes.blit payload 0 buf (off + header_len) (Bytes.length payload);
  Bytes.set_int32_le buf (off + body)
    (Int32.of_int (Crc32.digest_sub buf ~off ~len:body));
  Auth.mac_into key buf ~off ~len:body buf (off + body + 4);
  o.stop <- off + len

let clear o = consume o (buffered o)
let write_to o fd = consume o (Unix.write fd o.buf o.start (buffered o))

(* -- incremental decoder -- *)

type decoder = {
  q : queue;  (* accumulated unparsed bytes *)
  n : int;  (* party count, for src/dst range checks *)
  key_of : src:int -> dst:int -> Auth.key;
  tag : Bytes.t;  (* the recomputed MAC *)
  mutable cur : int;  (* offset in [q.buf] of the frame [next] looked at *)
}

let decoder ~n ~key_of = { q = queue (); n; key_of; tag = Bytes.create 8; cur = 0 }
let reset d = clear d.q

let feed d bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Wire.feed";
  reserve d.q len;
  Bytes.blit bytes off d.q.buf d.q.stop len;
  d.q.stop <- d.q.stop + len

(* Reads land straight in the decoder's buffer, with 4 KiB of room. *)
let read_from d fd =
  let q = d.q in
  reserve q 4096;
  let len = Unix.read fd q.buf q.stop (Bytes.length q.buf - q.stop) in
  q.stop <- q.stop + len;
  len

(* the current frame's header fields, read in place *)
let u8 d i = Bytes.get_uint8 d.q.buf (d.cur + i)
let i64 d i = Int64.to_int (Bytes.get_int64_le d.q.buf (d.cur + i))
let ftype d = match u8 d 2 with 1 -> Hello | 2 -> Data | _ -> Ack
let src d = u8 d 3
let dst d = u8 d 4
let seq d = i64 d 9
let ack d = i64 d 17
let payload d = d.q.buf
let payload_off d = d.cur + header_len
let payload_len d = Int32.to_int (Bytes.get_int32_le d.q.buf (d.cur + 5))

(* [Ok false] = need more bytes; [Ok true] = one frame verified and
   consumed, now the current frame; [Error e] = stream poisoned, caller
   must drop the connection. *)
let next d =
  let q = d.q in
  d.cur <- q.start;
  if buffered q < header_len then Ok false
  else if u8 d 0 <> magic then Error (Bad_magic (u8 d 0))
  else if u8 d 1 <> version then Error (Bad_version (u8 d 1))
  else if u8 d 2 < 1 || u8 d 2 > 3 then Error (Bad_type (u8 d 2))
  else if src d >= d.n then Error (Bad_party (src d))
  else if dst d >= d.n then Error (Bad_party (dst d))
  else
    let plen = payload_len d in
    if plen < 0 || plen > max_payload then Error (Oversize plen)
    else if buffered q < header_len + plen + trailer_len then Ok false
    else begin
      let body = header_len + plen in
      let got = Int32.to_int (Bytes.get_int32_le q.buf (d.cur + body)) land 0xFFFFFFFF in
      let expected = Crc32.digest_sub q.buf ~off:d.cur ~len:body in
      if got <> expected then Error (Bad_crc { expected; got })
      else begin
        Auth.mac_into (d.key_of ~src:(src d) ~dst:(dst d)) q.buf ~off:d.cur
          ~len:body d.tag 0;
        if Bytes.get_int64_le q.buf (d.cur + body + 4) <> Bytes.get_int64_le d.tag 0
        then Error Bad_mac
        else begin
          consume q (body + trailer_len);
          Ok true
        end
      end
    end

(* -- whole frames: views over the writer and the decoder -- *)

let encode ~key f =
  let o = { buf = Bytes.create (frame_len f.payload); start = 0; stop = 0 } in
  put o ~key f.ftype ~src:f.src ~dst:f.dst ~seq:f.seq ~ack:f.ack f.payload;
  o.buf

let current d =
  let payload = Bytes.sub d.q.buf (payload_off d) (payload_len d) in
  { ftype = ftype d; src = src d; dst = dst d; seq = seq d; ack = ack d; payload }

(* One-shot decode of a complete frame image — the property tests' entry
   point, where a torn tail must be an error rather than a wait. *)
let decode_exact ~n ~key_of bytes =
  let d = decoder ~n ~key_of in
  feed d bytes ~off:0 ~len:(Bytes.length bytes);
  match next d with
  | Ok true when buffered d.q = 0 -> Ok (current d)
  | Ok _ -> Error Short_frame  (* torn, or trailing garbage *)
  | Error e -> Error e
