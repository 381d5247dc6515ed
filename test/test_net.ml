(* The networked runtime: frame codec hardening (fuzz + property),
   perfect-link state machines against a fake clock, sim-as-oracle
   differential smoke, frame-chaos masking, and kill/reconnect replay.
   The heavyweight exhaustive differential grid lives in
   bin/net_check_main.exe (make net-check); here we pin the mechanisms
   and run a cheap slice of the grid so `dune runtest` covers the
   stack end to end. *)

let key_a = Auth.of_master 0x5EED_0001L
let keys_of_master master ~src:_ ~dst:_ = Auth.of_master master
let key_of = keys_of_master 0x5EED_0001L

let frame ?(ftype = Wire.Data) ?(src = 0) ?(dst = 1) ?(seq = 7L) ?(ack = 3L)
    payload =
  { Wire.ftype; src; dst; seq; ack; payload = Bytes.of_string payload }

let frame_eq (a : Wire.frame) (b : Wire.frame) =
  a.Wire.ftype = b.Wire.ftype && a.src = b.src && a.dst = b.dst
  && a.seq = b.seq && a.ack = b.ack
  && Bytes.equal a.payload b.payload

(* -- codec: roundtrip and rejection ------------------------------------ *)

let gen_frame =
  QCheck.Gen.(
    let* ft = oneofl [ Wire.Hello; Wire.Data; Wire.Ack ] in
    let* src = int_range 0 7 in
    let* dst = int_range 0 7 in
    let* seq = map Int64.of_int (int_range 0 1_000_000) in
    let* ack = map Int64.of_int (int_range 0 1_000_000) in
    let* payload = string_size (int_range 0 2048) in
    return (frame ~ftype:ft ~src ~dst ~seq ~ack payload))

let arb_frame = QCheck.make gen_frame

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300 arb_frame
    (fun f ->
      match Wire.decode_exact ~n:8 ~key_of (Wire.encode ~key:key_a f) with
      | Ok g -> frame_eq f g
      | Error _ -> false)

let prop_bit_flip =
  QCheck.Test.make ~name:"any single flipped bit is rejected" ~count:300
    QCheck.(pair arb_frame (int_bound 100_000))
    (fun (f, r) ->
      let b = Wire.encode ~key:key_a f in
      let bit = r mod (8 * Bytes.length b) in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      match Wire.decode_exact ~n:8 ~key_of b with
      | Ok _ -> false
      | Error _ -> true)

let prop_garbage =
  QCheck.Test.make ~name:"random bytes never crash the decoder" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 4096))
    (fun s ->
      let d = Wire.decoder ~n:8 ~key_of in
      Wire.feed d (Bytes.of_string s) ~off:0 ~len:(String.length s);
      (* drain until the decoder wants more bytes or poisons the
         stream; any outcome except an escaping exception passes *)
      let rec drain () =
        match Wire.next d with
        | Ok (Some _) -> drain ()
        | Ok None | Error _ -> true
      in
      drain ())

let test_torn_tails () =
  let b = Wire.encode ~key:key_a (frame "torn-tail payload") in
  for len = 0 to Bytes.length b - 1 do
    (* exact decode: a truncated buffer is a structured Short_frame *)
    (match Wire.decode_exact ~n:8 ~key_of (Bytes.sub b 0 len) with
    | Error Wire.Short_frame -> ()
    | Ok _ -> Alcotest.failf "prefix %d decoded" len
    | Error e ->
        Alcotest.failf "prefix %d: %s" len (Format.asprintf "%a" Wire.pp_error e));
    (* incremental decode: a torn tail just waits for more bytes *)
    let d = Wire.decoder ~n:8 ~key_of in
    Wire.feed d b ~off:0 ~len;
    match Wire.next d with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "incremental prefix %d decoded" len
    | Error e ->
        Alcotest.failf "incremental prefix %d: %s" len
          (Format.asprintf "%a" Wire.pp_error e)
  done

let test_oversize () =
  let b = Wire.encode ~key:key_a (frame "x") in
  (* length field lives at bytes 5..8 (magic·ver·type·src·dst first) *)
  for i = 5 to 8 do
    Bytes.set b i '\xff'
  done;
  match Wire.decode_exact ~n:8 ~key_of b with
  | Error (Wire.Oversize _) -> ()
  | Ok _ -> Alcotest.fail "oversize length accepted"
  | Error e ->
      Alcotest.failf "expected Oversize, got %s"
        (Format.asprintf "%a" Wire.pp_error e)

let test_bad_mac () =
  let b = Wire.encode ~key:key_a (frame "macced") in
  match Wire.decode_exact ~n:8 ~key_of:(keys_of_master 0xBAD_0002L) b with
  | Error Wire.Bad_mac -> ()
  | Ok _ -> Alcotest.fail "wrong-key frame accepted"
  | Error e ->
      Alcotest.failf "expected Bad_mac, got %s"
        (Format.asprintf "%a" Wire.pp_error e)

(* -- message codec: every constructor, bit-exact ----------------------- *)

(* Coordinates include both zeros, infinities and two NaN payloads: the
   codec ships raw IEEE-754 bits, so each must come back unchanged. *)
let gen_coord =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float_range (-1e6) 1e6;
      QCheck.Gen.oneofl
        [ 0.; -0.; Float.nan; Int64.float_of_bits 0x7ff0_0000_0000_0123L;
          Float.infinity; Float.neg_infinity; Float.min_float; 1e-310 ];
    ]

let gen_i32 =
  QCheck.Gen.oneof
    [ QCheck.Gen.int_range (-3) 1000; QCheck.Gen.oneofl [ 0x7fff_ffff; -0x8000_0000 ] ]

let gen_msg =
  let open QCheck.Gen in
  let vec = int_range 0 4 >>= fun d -> list_repeat d gen_coord >|= Vec.of_list in
  let pairs = small_list (pair gen_i32 vec) in
  let tag =
    oneof
      [
        oneofl [ Message.Init_value; Message.Init_report ];
        map (fun i -> Message.Obc_value i) gen_i32;
        map (fun i -> Message.Halt i) gen_i32;
        map (fun i -> Message.Async_value i) gen_i32;
        map (fun i -> Message.Async_report i) gen_i32;
      ]
  in
  let entry =
    let* tag = tag and* origin = gen_i32 in
    let* step = oneofl [ Message.Init; Message.Echo; Message.Ready ] in
    let* p =
      oneof
        [
          map (fun v -> Message.Pvec v) vec;
          map (fun ps -> Message.Ppairs ps) pairs;
          map (fun i -> Message.Pint i) (oneofl [ 0; -1; max_int; min_int; 42 ]);
          map (fun ps -> Message.Pparties ps) (small_list gen_i32);
        ]
    in
    return ({ Message.tag; origin }, step, p)
  in
  oneof
    [
      map (fun (id, st, p) -> Message.Rbc (id, st, p)) entry;
      map (fun es -> Message.Rbc_batch es) (small_list entry);
      map2 (fun iter pairs -> Message.Obc_report { iter; pairs }) gen_i32 pairs;
      map (fun parties -> Message.Witness_set { parties }) (small_list gen_i32);
      map2 (fun round value -> Message.Sync_round { round; value }) gen_i32 vec;
      map2 (fun iter value -> Message.Ew_value { iter; value }) gen_i32 vec;
      map2 (fun iter pairs -> Message.Ew_echo { iter; pairs }) gen_i32 pairs;
      map2 (fun iter pairs -> Message.Ew_report { iter; pairs }) gen_i32 pairs;
      map (fun n -> Message.Junk n) gen_i32;
    ]

(* [compare] equates NaNs but also ±0, so the re-encoding pins the bits. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode m) = m, bit-exact" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen_msg)
    (fun m ->
      let b = Codec.encode m in
      let m' = Codec.decode b in
      compare m m' = 0 && Bytes.equal (Codec.encode m') b)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* One message per constructor in the version-2 layout: kind byte, then
   little-endian int32 fields, vectors as a length and raw float64 bits. *)
let golden_messages =
  let v = Vec.of_list [ 1.; -0. ] in
  let id = { Message.tag = Message.Obc_value 3; origin = 2 } in
  [
    ( Message.Rbc (id, Message.Echo, Message.Pvec v),
      "00" ^ "0203000000" ^ "02000000" ^ "01" ^ "00" ^ "02000000"
      ^ "000000000000f03f" ^ "0000000000000080" );
    ( Message.Rbc_batch
        [ ({ Message.tag = Message.Init_value; origin = 1 }, Message.Ready,
           Message.Pint 5) ],
      "01" ^ "01000000" ^ "00" ^ "01000000" ^ "02" ^ "02" ^ "0500000000000000" );
    ( Message.Obc_report { iter = 4; pairs = [ (6, v) ] },
      "02" ^ "04000000" ^ "01000000" ^ "06000000" ^ "02000000"
      ^ "000000000000f03f" ^ "0000000000000080" );
    ( Message.Witness_set { parties = [ 0; 7 ] },
      "03" ^ "02000000" ^ "00000000" ^ "07000000" );
    ( Message.Sync_round { round = 9; value = Vec.of_list [ 2. ] },
      "04" ^ "09000000" ^ "01000000" ^ "0000000000000040" );
    ( Message.Ew_value { iter = 1; value = Vec.of_list [ 2. ] },
      "05" ^ "01000000" ^ "01000000" ^ "0000000000000040" );
    ( Message.Ew_report { iter = 2; pairs = [] }, "06" ^ "02000000" ^ "00000000" );
    (Message.Junk 3, "07" ^ "03000000");
    ( Message.Ew_echo { iter = 2; pairs = [] }, "08" ^ "02000000" ^ "00000000" );
  ]

let test_codec_golden () =
  List.iter
    (fun (m, want) ->
      let name = Format.asprintf "%a" Message.pp m in
      Alcotest.(check string) name want (hex (Codec.encode m));
      Alcotest.(check bool) (name ^ " decodes") true
        (compare (Codec.decode (Codec.encode m)) m = 0))
    golden_messages

let test_bad_magic () =
  let b = Wire.encode ~key:key_a (frame "m") in
  Bytes.set b 0 '\x00';
  match Wire.decode_exact ~n:8 ~key_of b with
  | Error (Wire.Bad_magic _) -> ()
  | _ -> Alcotest.fail "expected Bad_magic"

(* Version 2 changed the message layout; a version-1 peer's frame must be
   refused at the header, before its payload is ever parsed. *)
let test_version_1_refused () =
  let b = Wire.encode ~key:key_a (frame "m") in
  Bytes.set b 1 '\x01';
  match Wire.decode_exact ~n:8 ~key_of b with
  | Error (Wire.Bad_version 1) -> ()
  | _ -> Alcotest.fail "expected Bad_version 1"

let test_chunked_stream () =
  let frames =
    [ frame ~seq:1L "alpha"; frame ~ftype:Wire.Ack ~seq:0L ~ack:9L "";
      frame ~seq:2L (String.make 600 'z') ]
  in
  let stream =
    Bytes.concat Bytes.empty (List.map (Wire.encode ~key:key_a) frames)
  in
  let d = Wire.decoder ~n:8 ~key_of in
  let got = ref [] in
  (* worst-case framing: the stream arrives one byte at a time *)
  for i = 0 to Bytes.length stream - 1 do
    Wire.feed d stream ~off:i ~len:1;
    let rec drain () =
      match Wire.next d with
      | Ok (Some f) ->
          got := f :: !got;
          drain ()
      | Ok None -> ()
      | Error e ->
          Alcotest.failf "decode error: %s" (Format.asprintf "%a" Wire.pp_error e)
    in
    drain ()
  done;
  let got = List.rev !got in
  Alcotest.(check int) "all frames recovered" (List.length frames)
    (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "frame equal" true (frame_eq a b))
    frames got

(* -- SipHash-2-4 ------------------------------------------------------- *)

let int64_t =
  Alcotest.testable (fun ppf x -> Format.fprintf ppf "0x%016Lx" x) Int64.equal

let test_siphash_vectors () =
  (* the published reference vectors: key 00..0f, message 00 01 02 .. *)
  let key = { Auth.k0 = 0x0706050403020100L; k1 = 0x0f0e0d0c0b0a0908L } in
  let msg = Bytes.init 64 Char.chr in
  List.iter
    (fun (len, want) ->
      Alcotest.check int64_t
        (Printf.sprintf "reference vector, length %d" len)
        want
        (Auth.mac key msg ~off:0 ~len))
    [ (0, 0x726fdb47dd0e0e31L); (8, 0x93f5f5799a932462L);
      (15, 0xa129ca6149be45e5L) ]

(* Tags of the slices [5, 5 + len) of a fixed buffer under [key_a], for
   len = 0..63: every tail length, over an unaligned offset. *)
let siphash_golden =
  [| 0x429f321826027e9bL; 0x699ccd53c5898317L; 0x46c24bbe6246722eL;
     0x43efef45e8829240L; 0x16a54ec455f74a85L; 0x241336303f035469L;
     0x82053661e3c66973L; 0x88eac717f2700489L; 0x2aadadc154ca52e6L;
     0x170095015eee298cL; 0xd3dfd75e60f75cdfL; 0x4d063727b5ffa96fL;
     0xb90b7ceb8c1c45bbL; 0xed3c8205cfa4577dL; 0xb2801b026ca9e238L;
     0x505ac85645f69431L; 0xe45fd582af580135L; 0x19110379242201adL;
     0xe068548f81e9c5daL; 0xa9f2ad330b8f13c3L; 0x6065f2e1f6312923L;
     0xd47dfc8e803eba09L; 0xf27eac3147221250L; 0x6968d93cf44d68afL;
     0xa5e703bfa22eb2b1L; 0xf51149f756e46739L; 0x250b22639e5fd10cL;
     0xc80c09f636bf1bc4L; 0x2f23c047bdeb79ceL; 0x2c6f424091ea4c85L;
     0xe14b44f997029bb6L; 0x08717e86ee491503L; 0x5882c56951ec1881L;
     0xdfd7d55ccc7d0aa6L; 0x35f3a59cb225948cL; 0x9aff4954d533c9c6L;
     0xc8ff3b4641f24e66L; 0x908bba6c9fe1b88fL; 0xc04bc0c069629b8bL;
     0x3aa7dd2246e00880L; 0xcfc5ccd77160b395L; 0x74c8d3c99183c59fL;
     0x8a405a422b1b9ea1L; 0x6b012a859d6eab3cL; 0x18d31eb505c6164cL;
     0x4d07e37356bf437eL; 0x0c434c67d9ce6900L; 0x583566362b0bdc52L;
     0xf77651cef46514f2L; 0x9533080e491e7568L; 0x52a402d93a6e2f95L;
     0x548960411d5a705bL; 0xdfce94887d30642cL; 0xf6e018eed8306105L;
     0x5387a21e63875487L; 0x0907312c3306e413L; 0x095f7fe259ca6f74L;
     0x124049aa02a16f62L; 0x0f5de90f9be619e7L; 0xee24d5a5ffc9ab86L;
     0xd8025a53c807411aL; 0xef2d36024ff3917cL; 0xf1c5520ea99570c7L;
     0x94a282b112e07351L |]

let test_siphash_golden () =
  let buf = Bytes.init 80 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  Array.iteri
    (fun len want ->
      Alcotest.check int64_t
        (Printf.sprintf "golden tag, off 5 length %d" len)
        want
        (Auth.mac key_a buf ~off:5 ~len))
    siphash_golden

let test_siphash_alloc () =
  (* every frame is MACed on encode and on verify: only the boxed result
     may be allocated *)
  let buf = Bytes.make 100 'm' in
  let calls = 1000 in
  ignore (Auth.mac key_a buf ~off:3 ~len:78);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Auth.mac key_a buf ~off:3 ~len:78))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call > 8. then
    Alcotest.failf "Auth.mac allocates %.1f words per call (limit 8)" per_call

(* -- perfect link against a fake clock --------------------------------- *)

let mk_sender ?window ?(rto0 = 8) ?(rto_max = 32) () =
  Link.sender ?window ~rto0 ~rto_max ~rng:(Rng.create 99L) ()

(* Collect the ticks at which [seq] is (re)transmitted, scanning the
   fake clock one tick at a time. *)
let fire_times s ~upto =
  let fires = ref [] in
  for t = 0 to upto do
    List.iter (fun (seq, _) -> fires := (t, seq) :: !fires) (Link.due s ~now:t)
  done;
  List.rev !fires

let test_exact_schedule () =
  (* rto0=1, rto_max=2 keeps every rto below the jitter threshold (4),
     so the schedule is exact: fire at 0, then gaps 1, 2, 2, 2, ... *)
  let s = Link.sender ~rto0:1 ~rto_max:2 ~rng:(Rng.create 5L) () in
  (match Link.submit s ~now:0 (Bytes.of_string "p") with
  | `Accepted 1 -> ()
  | _ -> Alcotest.fail "first submit should be seq 1");
  let fires = List.map fst (fire_times s ~upto:12) in
  Alcotest.(check (list int)) "exact retransmit schedule"
    [ 0; 1; 3; 5; 7; 9; 11 ] fires;
  Alcotest.(check int) "retransmit count excludes first tx" 6
    (Link.retransmits s)

let test_backoff_bounds () =
  (* with jitter active the gaps must stay in [rto_k, rto_k + rto_k/4],
     rto doubling from rto0 and capping at rto_max *)
  let s = mk_sender ~rto0:8 ~rto_max:32 () in
  ignore (Link.submit s ~now:0 (Bytes.of_string "p"));
  let fires = List.map fst (fire_times s ~upto:400) in
  Alcotest.(check bool) "enough fires observed" true (List.length fires >= 6);
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iteri
    (fun k gap ->
      let rto = min (8 * (1 lsl k)) 32 in
      if gap < rto || gap > rto + (rto / 4) then
        Alcotest.failf "gap %d (retransmission %d) outside [%d, %d]" gap
          (k + 1) rto
          (rto + (rto / 4)))
    (gaps fires)

let test_ack_cancels () =
  let s = mk_sender () in
  List.iter
    (fun p -> ignore (Link.submit s ~now:0 (Bytes.of_string p)))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "three harvested" 3 (List.length (Link.due s ~now:0));
  Alcotest.(check int) "cumulative ack frees two" 2 (Link.on_ack s ~ack:2);
  Alcotest.(check int) "one left in flight" 1 (Link.in_flight s);
  (* far in the future only seq 3's timer is still armed *)
  Alcotest.(check (list int)) "only unacked entry retransmits" [ 3 ]
    (List.map fst (Link.due s ~now:1000));
  Alcotest.(check int) "re-acking is idempotent" 0 (Link.on_ack s ~ack:2)

let test_backpressure () =
  let s = mk_sender ~window:2 () in
  ignore (Link.submit s ~now:0 (Bytes.of_string "a"));
  ignore (Link.submit s ~now:0 (Bytes.of_string "b"));
  (match Link.submit s ~now:0 (Bytes.of_string "c") with
  | `Backpressure -> ()
  | `Accepted _ -> Alcotest.fail "window overrun accepted");
  ignore (Link.on_ack s ~ack:1);
  match Link.submit s ~now:0 (Bytes.of_string "c") with
  | `Accepted 3 -> ()
  | `Accepted n -> Alcotest.failf "freed slot got seq %d" n
  | `Backpressure -> Alcotest.fail "freed slot still backpressured"

let test_mark_replay () =
  let s = mk_sender ~rto0:8 ~rto_max:32 () in
  ignore (Link.submit s ~now:0 (Bytes.of_string "a"));
  ignore (Link.submit s ~now:0 (Bytes.of_string "b"));
  ignore (Link.due s ~now:0);
  Alcotest.(check (list int)) "timers armed, nothing due yet" []
    (List.map fst (Link.due s ~now:1));
  (* reconnect: the whole unacked backlog replays immediately *)
  Link.mark_replay s;
  Alcotest.(check (list int)) "backlog due at once" [ 1; 2 ]
    (List.map fst (Link.due s ~now:1))

let test_receiver_order_dedup () =
  let r = Link.receiver () in
  let p s = Bytes.of_string s in
  Alcotest.(check int) "early arrival buffered" 0
    (List.length (Link.on_data r ~seq:2 (p "two")));
  Alcotest.(check (list string)) "in-order drain" [ "one"; "two" ]
    (List.map Bytes.to_string (Link.on_data r ~seq:1 (p "one")));
  Alcotest.(check int) "cumulative ack" 2 (Link.cumulative_ack r);
  Alcotest.(check int) "replay suppressed" 0
    (List.length (Link.on_data r ~seq:1 (p "one")));
  Alcotest.(check int) "replay counted" 1 (Link.duplicates r);
  Alcotest.(check int) "ack unchanged by replay" 2 (Link.cumulative_ack r)

let test_receiver_window () =
  let r = Link.receiver ~window:4 () in
  Alcotest.(check int) "beyond reorder window: dropped" 0
    (List.length (Link.on_data r ~seq:6 (Bytes.of_string "far")));
  Alcotest.(check int) "within window: buffered" 0
    (List.length (Link.on_data r ~seq:4 (Bytes.of_string "four")));
  Alcotest.(check int) "no dup counted for the drop" 0 (Link.duplicates r)

(* -- sim-as-oracle slice + chaos masking ------------------------------- *)

let grid_case name =
  match
    List.find_opt
      (fun s -> s.Scenario.name = name)
      (Differential.pinned_grid ())
  with
  | Some s -> s
  | None -> Alcotest.failf "pinned grid lost case %s" name

let check_verdict name =
  let v = Differential.run_case (grid_case name) in
  Alcotest.(check bool)
    (name ^ ": net run identical to sim oracle")
    true v.Differential.net_ok;
  Alcotest.(check bool)
    (name ^ ": chaos fully masked")
    true v.Differential.chaos_ok;
  Alcotest.(check bool) (name ^ ": monitor clean") true
    v.Differential.monitor_clean;
  (* the plan's flap triggers at one exact wire tick, which the pump's
     idle fast-forward must land on rather than jump past *)
  Alcotest.(check bool) (name ^ ": chaos flap fired") true
    (v.Differential.chaos_wire.Netrun.reconnects >= 1);
  Alcotest.(check bool)
    (name ^ ": no logical loss")
    true
    Netrun.(
      v.Differential.chaos_wire.logical_sent
      = v.Differential.chaos_wire.logical_delivered)

let test_differential_slice () =
  check_verdict "diff-d1-n4-sync-lockstep-clean";
  check_verdict "diff-d2-n4-sync-lockstep-silent"

let test_frame_economy () =
  (* On a clean wire every off-party message should cost about one frame:
     ACKs ride on reverse DATA and nothing is retransmitted. A count
     ratio, not a timing, so a slow host cannot flake it. *)
  let scen =
    { (grid_case "diff-d1-n4-sync-lockstep-clean") with
      Scenario.transport = `Net }
  in
  let self_sends = ref 0 in
  let tracer = function
    | Engine.Sent { src; dst; _ } when src = dst -> incr self_sends
    | _ -> ()
  in
  let r = Runner.run ~tracer scen in
  let w = Option.get r.Runner.wire in
  let wire_msgs = w.Netrun.logical_sent - !self_sends in
  let ratio = float_of_int w.Netrun.frames_sent /. float_of_int wire_msgs in
  if ratio > 1.25 then
    Alcotest.failf
      "%d frames for %d off-party messages (%.2f per message, limit 1.25)"
      w.Netrun.frames_sent wire_msgs ratio

(* -- kill/reconnect replay --------------------------------------------- *)

let reconnect_cfg = lazy (Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:2 ~eps:0.05 ~delta:4)

let reconnect_engine () =
  Engine.create ~seed:42L ~size_of:Message.size_of ~n:4
    ~policy:(Network.lockstep ~delta:4) ()

let reconnect_setup engine =
  let cfg = Lazy.force reconnect_cfg in
  let parties = List.init 4 (fun i -> Party.attach ~cfg ~me:i engine) in
  List.iteri
    (fun i p ->
      Party.start p (Vec.of_list [ float_of_int i; float_of_int (i mod 2) ]))
    parties;
  parties

let outcome engine parties =
  (List.map Party.output parties, Engine.stats engine)

let test_kill_reconnect () =
  (* sim oracle *)
  let e0 = reconnect_engine () in
  let p0 = reconnect_setup e0 in
  Engine.run e0;
  let reference = outcome e0 p0 in
  (* net arm: kill two connections mid-protocol; the supervisor must
     re-dial and both directions must replay their unacked backlog.
     pump_budget is the wall watchdog — a wedged wire raises a
     structured Failure instead of hanging the test. *)
  let e1 = reconnect_engine () in
  let nr = Netrun.attach ~rto0:4 ~pump_budget:30. e1 in
  Fun.protect ~finally:(fun () -> Netrun.close nr) @@ fun () ->
  let p1 = reconnect_setup e1 in
  Engine.run ~until:6 e1;
  Netrun.kill_connection nr ~a:0 ~b:1;
  Netrun.kill_connection nr ~a:0 ~b:2;
  Engine.run e1;
  let s = Netrun.stats nr in
  Alcotest.(check bool) "byte-identical to the sim oracle" true
    (outcome e1 p1 = reference);
  Alcotest.(check bool) "both kills re-established" true
    (s.Netrun.reconnects >= 2);
  Alcotest.(check bool) "no logical loss across reconnect" true
    Netrun.(s.logical_sent = s.logical_delivered)

(* -- the front door ----------------------------------------------------- *)

let good_line =
  "agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1;0.5;0.25"

let test_parse_request () =
  (match Serve.parse_request good_line with
  | Ok r ->
      Alcotest.(check int) "d" 1 r.Serve.d;
      Alcotest.(check int) "n from inputs" 4 (List.length r.Serve.inputs);
      Alcotest.(check bool) "default transport sim" true (r.Serve.transport = `Sim)
  | Error e -> Alcotest.failf "good line rejected: %s" e);
  let is_err line =
    match Serve.parse_request line with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "bad version" true (is_err "agree v=2 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1");
  Alcotest.(check bool) "missing field" true (is_err "agree v=1 d=1 eps=0.1 delta=4 ts=1 inputs=0;1");
  Alcotest.(check bool) "bad float" true (is_err "agree v=1 d=1 eps=x delta=4 ts=1 ta=0 inputs=0;1");
  Alcotest.(check bool) "dim mismatch" true (is_err "agree v=1 d=2 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1");
  Alcotest.(check bool) "bad transport" true
    (is_err "agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 transport=udp inputs=0;1");
  Alcotest.(check bool) "unknown verb" true (is_err "decide v=1 d=1");
  Alcotest.(check bool) "crlf tolerated" true
    (match Serve.parse_request (good_line ^ "\r") with Ok _ -> true | Error _ -> false);
  (* the key set is closed: a misspelt key must not silently run with
     its default, and a repeated one must not silently take the last *)
  let err line =
    match Serve.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error e -> e
  in
  Alcotest.(check string) "unknown key named"
    "unknown field \"trnasport\" (expected \
     v|d|eps|delta|ts|ta|transport|seed|inputs)"
    (err (good_line ^ " trnasport=net"));
  (* the update rule is fixed: there is no kernel key to select another *)
  Alcotest.(check string) "kernel is not a key"
    "unknown field \"kernel\" (expected \
     v|d|eps|delta|ts|ta|transport|seed|inputs)"
    (err (good_line ^ " kernel=centroid"));
  Alcotest.(check string) "duplicate key named" "duplicate field seed="
    (err (good_line ^ " seed=3 seed=4"))

(* One malformed line per error class, each answered as the front door
   answered it before the parser moved into [Scenario.Spec]: the reply
   text is a client-visible contract. *)
let golden_errs =
  [
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 inputs=0;1",
     "err missing required field ta=");
    ("agree v=1 d=x eps=0.1 delta=4 ts=1 ta=0 inputs=0;1",
     "err d expects an integer (got \"x\")");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0.5 inputs=0;1",
     "err ta expects an integer (got \"0.5\")");
    ("agree v=1 d=1 eps=x delta=4 ts=1 ta=0 inputs=0;1",
     "err eps expects a float (got \"x\")");
    ("agree v=2 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1",
     "err unsupported protocol version \"2\"");
    ("agree d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1",
     "err missing required field v=");
    ("decide v=1 d=1", "err unknown verb \"decide\" (expected agree)");
    ("", "err empty request");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 transport=udp inputs=0;1",
     "err unknown transport \"udp\" (expected sim|net)");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 seed=banana inputs=0;1",
     "err seed expects a 64-bit integer (got \"banana\")");
    ("agree v=1 d=0 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1",
     "err d must be >= 1 (got 0)");
    ("agree v=1 d=2 eps=0.1 delta=4 ts=1 ta=0 inputs=0;1",
     "err input \"0\" has 1 coordinates (d=2)");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=0;x",
     "err input \"x\": bad float");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=;;",
     "err inputs= is empty");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 inputs=",
     "err inputs= is empty");
    ("agree v=1 d=1 eps oops ts=1 ta=0 inputs=0;1",
     "err malformed field \"eps\" (want key=value)");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=9 ta=0 inputs=0;1",
     "err resilience violated: need (D+1)*ts + ta < n, got 18 >= 2");
    ("agree v=1 d=1 eps=0.1 delta=4 ts=0 ta=2 inputs=0;1;2",
     "err need 0 <= ta <= ts");
  ]

let test_golden_errs () =
  Alcotest.(check (list string))
    "err replies byte-identical" (List.map snd golden_errs)
    (Serve.handle_batch (List.map fst golden_errs))

(* -- Scenario.Spec: every spelling round-trips ---------------------------- *)

let finite_float =
  QCheck.Gen.map
    (fun b ->
      let f = Int64.float_of_bits b in
      if Float.is_finite f then f else 0.5)
    QCheck.Gen.ui64

let gen_request =
  QCheck.Gen.(
    let* d = int_range 1 4 in
    let* n = int_range 1 6 in
    let* eps = finite_float in
    let* delta = int in
    let* ts = int in
    let* ta = int in
    let* transport = oneofl [ `Sim; `Net ] in
    let* seed = ui64 in
    let* inputs = list_repeat n (array_repeat d finite_float) in
    return
      {
        Scenario.Spec.d;
        eps;
        delta;
        ts;
        ta;
        transport;
        seed;
        inputs = List.map Vec.of_array inputs;
      })

(* bit-exact: [=] would equate 0. and -0. *)
let same_request (a : Scenario.Spec.request) (b : Scenario.Spec.request) =
  let bits f = Int64.bits_of_float f in
  let vec_bits v = List.map bits (Vec.to_list v) in
  bits a.eps = bits b.eps
  && List.map vec_bits a.inputs = List.map vec_bits b.inputs
  && { a with eps = 0.; inputs = [] } = { b with eps = 0.; inputs = [] }

let prop_spec_line =
  QCheck.Test.make ~name:"of_line (to_line r) = Ok r, bit-exact" ~count:300
    (QCheck.make ~print:Scenario.Spec.to_line gen_request)
    (fun r ->
      match Scenario.Spec.of_line (Scenario.Spec.to_line r) with
      | Ok r' -> same_request r r'
      | Error _ -> false)

let prop_spec_escape =
  QCheck.Test.make ~name:"decode (encode s) = Ok s" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      let e = Scenario.Spec.encode s in
      Scenario.Spec.decode e = Ok s
      && not (String.exists (fun c -> c = '\t' || c = '~' || c = '\n') e))

let test_spec_keys () =
  let open Scenario.Spec in
  let roundtrip k =
    List.for_all (fun v -> of_string k (to_string k v) = Ok v) (values k)
  in
  Alcotest.(check bool) "mutant" true (roundtrip mutant);
  Alcotest.(check bool) "layer" true (roundtrip layer);
  Alcotest.(check bool) "transport" true (roundtrip transport);
  let protocols =
    Scenario.Ew
    :: List.concat_map
         (fun m ->
           List.map
             (fun l ->
               Scenario.Maaa { Party.default_opts with mutant = m; layer = l })
             (values layer))
         (values mutant)
  in
  Alcotest.(check int) "every protocol spelled" 7 (List.length protocols);
  List.iter
    (fun p ->
      Alcotest.(check bool) "protocol round-trips" true
        (protocol_of_fields (protocol_fields p) = Ok p))
    protocols;
  List.iter
    (fun (k, v, err) ->
      Alcotest.(check bool) ("ew with " ^ k ^ " is unbuildable") true
        (protocol_of_fields [ (k, v); ("protocol", "ew") ] = Error err))
    [
      ("mutant", "premature-output",
       "mutant premature-output applies only to protocol maaa");
      ("layer", "batched", "message layer batched applies only to protocol maaa");
    ];
  Alcotest.(check bool) "ew with default keys is ew" true
    (protocol_of_fields [ ("protocol", "ew"); ("layer", "interned") ] = Ok Scenario.Ew);
  Alcotest.(check bool) "unknown spelling" true
    (of_string layer "bogus"
    = Error "unknown message layer \"bogus\" (expected interned|batched)");
  Alcotest.(check bool) "the retired reference layer is unspelled" true
    (of_string layer "reference"
    = Error "unknown message layer \"reference\" (expected interned|batched)");
  Alcotest.(check bool) "bad escape" true
    (Result.is_error (decode "%zz") && Result.is_error (decode "ab%4"));
  Alcotest.check_raises "Fixed_t has no spelling"
    (Invalid_argument "Scenario.Spec: no spelling for the Fixed_t mode")
    (fun () ->
      ignore
        (protocol_fields
           (Scenario.Maaa { Party.default_opts with mode = Party.Fixed_t 2 })))

let test_handle_batch () =
  let resps =
    Serve.handle_batch
      [ good_line; "agree v=1 d=1 eps=0.1 delta=4 ts=9 ta=9 inputs=0;1";
        good_line ]
  in
  Alcotest.(check int) "one response per request" 3 (List.length resps);
  (match resps with
  | [ a; b; c ] ->
      Alcotest.(check bool) "first ok" true (String.length a > 2 && String.sub a 0 2 = "ok");
      Alcotest.(check bool) "infeasible answers err in place" true
        (String.length b > 3 && String.sub b 0 3 = "err");
      Alcotest.(check string) "identical requests, identical answers" a c
  | _ -> assert false)

(* The batch core runs every well-formed request on its own engine:
   each reply is that scenario's own [Runner.run], rendered, in request
   order — with or without a worker pool, and with error lines in place. *)
let test_handle_batch_own_engines () =
  let sim ~d ~ts ~seed inputs =
    Printf.sprintf
      "agree v=1 d=%d eps=0.05 delta=4 ts=%d ta=0 seed=%d inputs=%s" d ts
      seed inputs
  in
  let lines =
    [
      sim ~d:1 ~ts:1 ~seed:3 "0;1;0.5;0.25";
      sim ~d:2 ~ts:1 ~seed:4 "0,0;1,0;0,1;1,1;0.5,0.25";
      "agree v=1 d=1 eps=0.1 delta=4 ts=9 ta=0 inputs=0;1";
      sim ~d:2 ~ts:2 ~seed:5 "0,0;1,0;0,1;1,1;0.5,0.5;0.25,0.75;0.75,0.25";
      "agree v=1 d=1 eps=oops";
      "agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 transport=net \
       inputs=0;1;0.5;0.25";
    ]
  in
  let plain = Serve.handle_batch lines in
  Alcotest.(check int) "one reply per line" (List.length lines)
    (List.length plain);
  List.iteri
    (fun i (line, reply) ->
      match Result.bind (Serve.parse_request line) Serve.scenario_of_request with
      | Ok s ->
          Alcotest.(check string)
            (Printf.sprintf "line %d is its own dedicated run" i)
            (Serve.render_result (Runner.run s))
            reply
      | Error _ ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d answers err in place" i)
            true
            (String.length reply > 4 && String.sub reply 0 4 = "err "))
    (List.combine lines plain);
  Alcotest.(check int) "four ok replies" 4
    (List.length
       (List.filter (fun r -> String.length r > 2 && String.sub r 0 2 = "ok") plain));
  let first = Serve.handle_batch ~domains:2 lines in
  let second = Serve.handle_batch ~domains:2 lines in
  Alcotest.(check (list string)) "2-domain batch = 1-domain batch" plain first;
  Alcotest.(check (list string)) "a second 2-domain batch agrees" plain second;
  Alcotest.(check int) "no leaked domains" 0 (Pool.active_domains ())

let test_serve_e2e () =
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.serve ~domains:1 ~max_conns:1
          ~announce:(fun p -> Atomic.set port p)
          ~port:0 ())
  in
  let rec wait_port n =
    if Atomic.get port <> 0 then Atomic.get port
    else if n = 0 then Alcotest.fail "server never announced a port"
    else begin
      Unix.sleepf 0.01;
      wait_port (n - 1)
    end
  in
  let p = wait_port 500 in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  (* one sim request and the same agreement over the real TCP backend:
     the front door must answer both, and identically *)
  output_string oc (good_line ^ "\n");
  output_string oc
    "agree v=1 d=1 eps=0.1 delta=4 ts=1 ta=0 transport=net \
     inputs=0;1;0.5;0.25\n";
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let r1 = input_line ic in
  let r2 = input_line ic in
  Domain.join server;
  Alcotest.(check bool) "sim answer ok" true (String.sub r1 0 2 = "ok");
  Alcotest.(check string) "net backend answers byte-identically" r1 r2

let () =
  Alcotest.run "net"
    [
      ( "wire codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_bit_flip;
          QCheck_alcotest.to_alcotest prop_garbage;
          Alcotest.test_case "torn tails wait or Short_frame" `Quick
            test_torn_tails;
          Alcotest.test_case "oversized length prefix" `Quick test_oversize;
          Alcotest.test_case "MAC mismatch" `Quick test_bad_mac;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "version-1 frame refused" `Quick
            test_version_1_refused;
          Alcotest.test_case "byte-at-a-time stream" `Quick test_chunked_stream;
        ] );
      ( "message codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "golden bytes per constructor" `Quick
            test_codec_golden;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "published SipHash-2-4 vectors" `Quick
            test_siphash_vectors;
          Alcotest.test_case "golden tags, every tail length" `Quick
            test_siphash_golden;
          Alcotest.test_case "allocation per MAC" `Quick test_siphash_alloc;
        ] );
      ( "perfect link",
        [
          Alcotest.test_case "exact retransmit schedule" `Quick
            test_exact_schedule;
          Alcotest.test_case "backoff doubling, cap, jitter bounds" `Quick
            test_backoff_bounds;
          Alcotest.test_case "cumulative ack cancels timers" `Quick
            test_ack_cancels;
          Alcotest.test_case "window backpressure" `Quick test_backpressure;
          Alcotest.test_case "replay on reconnect" `Quick test_mark_replay;
          Alcotest.test_case "receiver order + dedup" `Quick
            test_receiver_order_dedup;
          Alcotest.test_case "receiver reorder window" `Quick
            test_receiver_window;
        ] );
      ( "sim as oracle",
        [
          Alcotest.test_case "differential slice + chaos mask" `Slow
            test_differential_slice;
          Alcotest.test_case "clean-wire frame economy" `Slow
            test_frame_economy;
          Alcotest.test_case "kill two connections mid-run" `Slow
            test_kill_reconnect;
        ] );
      ( "front door",
        [
          Alcotest.test_case "request parsing" `Quick test_parse_request;
          Alcotest.test_case "golden err replies" `Quick test_golden_errs;
          Alcotest.test_case "spec keys round-trip" `Quick test_spec_keys;
          QCheck_alcotest.to_alcotest prop_spec_line;
          QCheck_alcotest.to_alcotest prop_spec_escape;
          Alcotest.test_case "batch core ordering" `Quick test_handle_batch;
          Alcotest.test_case "batch core: one engine per request" `Quick
            test_handle_batch_own_engines;
          Alcotest.test_case "socket end-to-end (sim + net)" `Slow
            test_serve_e2e;
        ] );
    ]
