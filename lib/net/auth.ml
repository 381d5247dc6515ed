(* Per-link message authentication: SipHash-2-4 with link keys derived
   from one master key.

   The paper's model gives every pair of parties an authenticated
   channel; over real sockets that guarantee has to be manufactured.
   SipHash-2-4 is the standard short-input keyed PRF for exactly this
   job (64-bit tag, 128-bit key), and it is small enough to implement
   here directly — the container offers no crypto library, and pulling
   one in is out of bounds. The implementation below is the reference
   algorithm (Aumasson–Bernstein) on OCaml int64s.

   Honest scope note: a 64-bit tag and a shared master key stop frame
   corruption and cross-link replay/confusion — the failure modes the
   chaos harness injects — not a malicious party that legitimately
   holds the master key. Per-pair asymmetric keys are out of scope for
   a loopback runtime. *)

type key = { k0 : int64; k1 : int64 }

let ( +% ) = Int64.add
let ( ^% ) = Int64.logxor

let rotl x b =
  Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* Hot: every frame is MACed twice. Refs no closure captures stay
   unboxed, so a call allocates only its result. Round [r < 2 * words]
   compresses message word [r / 2]; the last four rounds finalise. *)
let siphash24 { k0; k1 } bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Auth.siphash24";
  let v0 = ref (k0 ^% 0x736f6d6570736575L)
  and v1 = ref (k1 ^% 0x646f72616e646f6dL)
  and v2 = ref (k0 ^% 0x6c7967656e657261L)
  and v3 = ref (k1 ^% 0x7465646279746573L) in
  let tail = len land 7 in
  let ends = off + len - tail in
  let words = (len / 8) + 1 in
  (* last word: remaining bytes, little-endian, length in the top byte *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for j = tail - 1 downto 0 do
    last :=
      Int64.logor !last
        (Int64.shift_left
           (Int64.of_int (Char.code (Bytes.get bytes (ends + j))))
           (8 * j))
  done;
  let m = ref 0L in
  for r = 0 to (2 * words) + 3 do
    if r < 2 * words && r land 1 = 0 then begin
      m :=
        if r / 2 < words - 1 then Bytes.get_int64_le bytes (off + (4 * r))
        else !last;
      v3 := !v3 ^% !m
    end
    else if r = 2 * words then v2 := !v2 ^% 0xffL;
    v0 := !v0 +% !v1;
    v1 := rotl !v1 13;
    v1 := !v1 ^% !v0;
    v0 := rotl !v0 32;
    v2 := !v2 +% !v3;
    v3 := rotl !v3 16;
    v3 := !v3 ^% !v2;
    v0 := !v0 +% !v3;
    v3 := rotl !v3 21;
    v3 := !v3 ^% !v0;
    v2 := !v2 +% !v1;
    v1 := rotl !v1 17;
    v1 := !v1 ^% !v2;
    v2 := rotl !v2 32;
    if r < 2 * words && r land 1 = 1 then v0 := !v0 ^% !m
  done;
  !v0 ^% !v1 ^% !v2 ^% !v3

let mac key bytes ~off ~len = siphash24 key bytes ~off ~len

(* Link keys: hash a tiny directed-link descriptor under the master key,
   twice with distinct domain separators, to get the two key halves.
   Directed, so the a→b and b→a streams authenticate under different
   keys and a reflected frame never verifies. *)
let derive master ~src ~dst =
  let buf = Bytes.create 9 in
  let fill sep =
    Bytes.set buf 0 (Char.chr sep);
    Bytes.set_int32_le buf 1 (Int32.of_int src);
    Bytes.set_int32_le buf 5 (Int32.of_int dst);
    siphash24 master buf ~off:0 ~len:9
  in
  { k0 = fill 0x4c (* 'L' *); k1 = fill 0x4b (* 'K' *) }

let of_master m =
  { k0 = m; k1 = Int64.logxor (Int64.lognot m) 0x5bd1e995a54ff53aL }
