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
  seq : int64;
  ack : int64;
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

let ftype_code = function Hello -> 1 | Data -> 2 | Ack -> 3

let encode ~key f =
  let plen = Bytes.length f.payload in
  if plen > max_payload then invalid_arg "Wire.encode: payload too large";
  let buf = Bytes.create (header_len + plen + trailer_len) in
  Bytes.set buf 0 (Char.chr magic);
  Bytes.set buf 1 (Char.chr version);
  Bytes.set buf 2 (Char.chr (ftype_code f.ftype));
  Bytes.set buf 3 (Char.chr f.src);
  Bytes.set buf 4 (Char.chr f.dst);
  Bytes.set_int32_le buf 5 (Int32.of_int plen);
  Bytes.set_int64_le buf 9 f.seq;
  Bytes.set_int64_le buf 17 f.ack;
  Bytes.blit f.payload 0 buf header_len plen;
  let body = header_len + plen in
  Bytes.set_int32_le buf body (Int32.of_int (Crc32.digest_sub buf ~off:0 ~len:body));
  Bytes.set_int64_le buf (body + 4) (Auth.mac key buf ~off:0 ~len:body);
  buf

(* -- incremental decoder -- *)

type decoder = {
  mutable buf : Bytes.t;  (* accumulated unparsed bytes *)
  mutable start : int;  (* parse position *)
  mutable stop : int;  (* end of valid data *)
  n : int;  (* party count, for src/dst range checks *)
  key_of : src:int -> dst:int -> Auth.key;
}

let decoder ~n ~key_of =
  { buf = Bytes.create 4096; start = 0; stop = 0; n; key_of }

let buffered d = d.stop - d.start

let feed d bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Wire.feed";
  let avail = Bytes.length d.buf - d.stop in
  if avail < len then begin
    let live = buffered d in
    let need = live + len in
    if Bytes.length d.buf - live >= len && d.start > 0 then begin
      (* compact in place *)
      Bytes.blit d.buf d.start d.buf 0 live;
      d.start <- 0;
      d.stop <- live
    end
    else begin
      let cap = ref (max 4096 (2 * Bytes.length d.buf)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit d.buf d.start nb 0 live;
      d.buf <- nb;
      d.start <- 0;
      d.stop <- live
    end
  end;
  Bytes.blit bytes off d.buf d.stop len;
  d.stop <- d.stop + len

let u8 d i = Char.code (Bytes.get d.buf (d.start + i))

(* [Ok None] = need more bytes; [Ok (Some f)] = one frame consumed;
   [Error e] = stream poisoned, caller must drop the connection. *)
let next d =
  if buffered d < header_len then Ok None
  else begin
    let m = u8 d 0 in
    if m <> magic then Error (Bad_magic m)
    else
      let v = u8 d 1 in
      if v <> version then Error (Bad_version v)
      else
        let tc = u8 d 2 in
        if tc < 1 || tc > 3 then Error (Bad_type tc)
        else
          let src = u8 d 3 and dst = u8 d 4 in
          if src >= d.n then Error (Bad_party src)
          else if dst >= d.n then Error (Bad_party dst)
          else
            let plen = Int32.to_int (Bytes.get_int32_le d.buf (d.start + 5)) in
            if plen < 0 || plen > max_payload then Error (Oversize plen)
            else if buffered d < header_len + plen + trailer_len then Ok None
            else begin
              let body = header_len + plen in
              let crc_got =
                Int32.to_int (Bytes.get_int32_le d.buf (d.start + body))
                land 0xFFFFFFFF
              in
              let crc_want = Crc32.digest_sub d.buf ~off:d.start ~len:body in
              if crc_got <> crc_want then
                Error (Bad_crc { expected = crc_want; got = crc_got })
              else
                let mac_got = Bytes.get_int64_le d.buf (d.start + body + 4) in
                let mac_want =
                  Auth.mac (d.key_of ~src ~dst) d.buf ~off:d.start ~len:body
                in
                if not (Int64.equal mac_got mac_want) then Error Bad_mac
                else begin
                  let ftype =
                    match tc with 1 -> Hello | 2 -> Data | _ -> Ack
                  in
                  let seq = Bytes.get_int64_le d.buf (d.start + 9) in
                  let ack = Bytes.get_int64_le d.buf (d.start + 17) in
                  let payload = Bytes.sub d.buf (d.start + header_len) plen in
                  d.start <- d.start + body + trailer_len;
                  if d.start = d.stop then begin
                    d.start <- 0;
                    d.stop <- 0
                  end;
                  Ok (Some { ftype; src; dst; seq; ack; payload })
                end
            end
  end

(* One-shot decode of a complete frame image — the property tests' entry
   point, where a torn tail must be an error rather than a wait. *)
let decode_exact ~n ~key_of bytes =
  let d = decoder ~n ~key_of in
  feed d bytes ~off:0 ~len:(Bytes.length bytes);
  match next d with
  | Ok (Some f) when buffered d = 0 -> Ok f
  | Ok (Some _) -> Error Short_frame  (* trailing garbage *)
  | Ok None -> Error Short_frame
  | Error e -> Error e
