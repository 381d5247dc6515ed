(* Tests for the protocol kernel: message sizes, pretty-printing, timing
   constants, and additional paper-lemma properties of the safe-area stack
   that sit between geometry and the protocol (Lemmas 5.10 and 6.12). *)

let v2 = Vec.of_list [ 1.; 2. ]

let test_params () =
  Alcotest.(check int) "c_rbc" 3 Params.c_rbc;
  Alcotest.(check int) "c_rbc'" 2 Params.c_rbc';
  Alcotest.(check int) "c_obc" 5 Params.c_obc;
  Alcotest.(check int) "c_aa_it" 5 Params.c_aa_it;
  Alcotest.(check int) "c_init" 8 Params.c_init;
  Alcotest.(check (float 1e-12)) "conv factor" (sqrt (7. /. 8.))
    Params.conv_factor

let test_message_sizes () =
  let id = { Message.tag = Message.Init_value; origin = 0 } in
  Alcotest.(check int) "vec payload" (16 + 16)
    (Message.size_of (Message.Rbc (id, Message.Init, Message.Pvec v2)));
  Alcotest.(check int) "pairs payload"
    (16 + (2 * (4 + 16)))
    (Message.size_of
       (Message.Rbc (id, Message.Init, Message.Ppairs [ (0, v2); (1, v2) ])));
  Alcotest.(check int) "witness set" (16 + 12)
    (Message.size_of (Message.Witness_set { parties = [ 0; 1; 2 ] }));
  Alcotest.(check int) "junk" (16 + 99) (Message.size_of (Message.Junk 99));
  Alcotest.(check int) "sync round" (16 + 16)
    (Message.size_of (Message.Sync_round { round = 1; value = v2 }))

let test_message_pp () =
  let s m = Format.asprintf "%a" Message.pp m in
  let id it = { Message.tag = Message.Obc_value it; origin = 3 } in
  Alcotest.(check bool) "rbc prints" true
    (String.length (s (Message.Rbc (id 7, Message.Echo, Message.Pvec v2))) > 0);
  Alcotest.(check string) "obc report" "obc-report[2] (1 pairs)"
    (s (Message.Obc_report { iter = 2; pairs = [ (0, v2) ] }))

(* Lemma 6.12: safe_t(M) ⊆ safe_{t-1}(M). *)
let prop_safe_monotone_in_t =
  QCheck.Test.make ~name:"lemma 6.12: safe_t ⊆ safe_{t-1}" ~count:50
    (QCheck.make
       QCheck.Gen.(
         list_size (return 7) (list_repeat 2 (float_range (-10.) 10.))))
    (fun pts_l ->
      let pts = List.map Vec.of_list pts_l in
      match (Safe_area.compute ~t:2 pts, Safe_area.compute ~t:1 pts) with
      | None, _ -> QCheck.assume_fail ()
      | Some a2, Some a1 ->
          let x, y = Safe_area.diameter_pair a2 in
          let mid = Safe_area.midpoint_value a2 in
          List.for_all (fun p -> Safe_area.contains ~eps:1e-6 a1 p) [ x; y; mid ]
      | Some _, None -> false)

(* Lemma 5.10: safe_t(M) ⊆ safe_t(M ∪ {m}). *)
let prop_safe_monotone_in_m =
  QCheck.Test.make ~name:"lemma 5.10: safe_t(M) ⊆ safe_t(M + m)" ~count:50
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (return 6) (list_repeat 2 (float_range (-10.) 10.)))
           (list_repeat 2 (float_range (-10.) 10.))))
    (fun (pts_l, extra_l) ->
      let pts = List.map Vec.of_list pts_l in
      let extra = Vec.of_list extra_l in
      match
        (Safe_area.compute ~t:1 pts, Safe_area.compute ~t:1 (extra :: pts))
      with
      | None, _ -> QCheck.assume_fail ()
      | Some a, Some a' ->
          let x, y = Safe_area.diameter_pair a in
          let mid = Safe_area.midpoint_value a in
          List.for_all (fun p -> Safe_area.contains ~eps:1e-6 a' p) [ x; y; mid ]
      | Some _, None -> false)

(* The centroid rule also yields points inside the area (the ablation's
   validity requirement). *)
let prop_centroid_inside =
  QCheck.Test.make ~name:"centroid value stays inside the area" ~count:80
    (QCheck.make
       QCheck.Gen.(
         list_size (return 7) (list_repeat 2 (float_range (-10.) 10.))))
    (fun pts_l ->
      let pts = List.map Vec.of_list pts_l in
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some a -> Safe_area.contains ~eps:1e-6 a (Safe_area.interior_point a))

(* Determinism of the estimation rule across permutations of the received
   set — the property Πinit's consistency argument needs. *)
let prop_estimation_deterministic =
  QCheck.Test.make ~name:"new value independent of reception order" ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (return 7) (list_repeat 2 (float_range (-10.) 10.))))
    (fun pts_l ->
      let pts = List.map Vec.of_list pts_l in
      match (Safe_area.new_value ~t:1 pts, Safe_area.new_value ~t:1 (List.rev pts)) with
      | Some a, Some b -> Vec.compare a b = 0
      | None, None -> true
      | _ -> false)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "protocol"
    [
      ( "kernel",
        [
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "message sizes" `Quick test_message_sizes;
          Alcotest.test_case "message pp" `Quick test_message_pp;
        ] );
      ( "lemma properties",
        q
          [
            prop_safe_monotone_in_t;
            prop_safe_monotone_in_m;
            prop_centroid_inside;
            prop_estimation_deterministic;
          ] );
    ]
