(* Unit tests for the Intern hash-consing table. The guarantee the
   interned message layer is built on — same callback calls as the seed
   Rbc.Reference/Obc.Reference on every input stream — is checked by the
   stream differentials in test_rbc.ml and test_obc.ml. *)

let vec l = Vec.of_list l

(* --- Intern unit tests --- *)

let test_intern_basic () =
  let t = Intern.create () in
  let p1 = Message.Pvec (vec [ 1.; 2. ]) in
  let p2 = Message.Pvec (vec [ 1.; 2. ]) in
  let p3 = Message.Pvec (vec [ 1.; 3. ]) in
  let id1 = Intern.intern t p1 in
  Alcotest.(check int) "ids are dense from 0" 0 id1;
  Alcotest.(check int) "equal payload, same id" id1 (Intern.intern t p2);
  Alcotest.(check bool)
    "distinct payload, distinct id" true
    (Intern.intern t p3 <> id1);
  Alcotest.(check int) "count" 2 (Intern.count t);
  Alcotest.(check bool)
    "canonical representative is the first seen" true
    (Intern.payload t id1 == p1);
  Alcotest.(check bool)
    "intern_payload canonicalizes" true
    (Intern.intern_payload t p2 == p1);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Intern.payload: bad id") (fun () ->
      ignore (Intern.payload t 99))

let test_intern_constructors () =
  let t = Intern.create () in
  let payloads =
    [
      Message.Pint 3;
      Message.Pvec (vec [ 3. ]);
      Message.Pparties [ 3 ];
      Message.Ppairs [ (3, vec [ 3. ]) ];
      Message.Ppairs [ (3, vec [ 3. ]); (4, vec [ 1.; 2. ]) ];
      Message.Pparties [];
      Message.Ppairs [];
    ]
  in
  let ids = List.map (Intern.intern t) payloads in
  Alcotest.(check int)
    "all constructors distinct"
    (List.length payloads)
    (List.length (List.sort_uniq compare ids));
  (* id partition = Stdlib.compare partition, on re-interning *)
  List.iter2
    (fun p id -> Alcotest.(check int) "stable on re-intern" id (Intern.intern t p))
    payloads ids

(* The partition guarantee under NaN: [Stdlib.compare] calls any two NaNs
   equal, so the interner must give every NaN-bearing-but-otherwise-equal
   vector one id — even when the NaNs have different bit patterns. *)
let test_intern_nan () =
  let t = Intern.create () in
  let quiet = Float.nan in
  let computed = 0. /. 0. in
  (* different bit pattern on most platforms *)
  let a = Intern.intern t (Message.Pvec (vec [ quiet; 1. ])) in
  let b = Intern.intern t (Message.Pvec (vec [ computed; 1. ])) in
  Alcotest.(check int) "NaN payloads share an id" a b;
  Alcotest.(check int)
    "matching Stdlib.compare" 0
    (compare [| quiet; 1. |] [| computed; 1. |]);
  let c = Intern.intern t (Message.Pvec (vec [ 1.; quiet ])) in
  Alcotest.(check bool) "NaN position still matters" true (a <> c)

let test_intern_collision_chains () =
  (* fixed one-bucket table: every payload hash-collides, correctness
     must come from the equality chain walk alone *)
  let t = Intern.create ~fixed:true ~initial_size:1 () in
  let payloads =
    List.init 64 (fun i -> Message.Pvec (vec [ float_of_int i; 0.5 ]))
  in
  let ids = List.map (Intern.intern t) payloads in
  Alcotest.(check (list int)) "dense ids in order" (List.init 64 Fun.id) ids;
  Alcotest.(check (list int))
    "chain lookups still hit" ids
    (List.map (Intern.intern t) payloads);
  Alcotest.(check int) "count" 64 (Intern.count t);
  List.iter2
    (fun p id ->
      Alcotest.(check bool) "payload round-trip" true (Intern.payload t id == p))
    payloads ids

let test_intern_reset () =
  let t = Intern.create () in
  let p = Message.Pint 7 in
  let id = Intern.intern t p in
  Intern.reset t;
  Alcotest.(check int) "count back to 0" 0 (Intern.count t);
  Alcotest.check_raises "old ids are gone"
    (Invalid_argument "Intern.payload: bad id") (fun () ->
      ignore (Intern.payload t id));
  Alcotest.(check int) "ids restart at 0" 0 (Intern.intern t (Message.Pint 9));
  Alcotest.(check int) "fresh table semantics" 1 (Intern.intern t p)

(* [intern_vec t v] against its definition, [intern t (Pvec v)]: random
   sequences mixing all four payload kinds with bare vectors, over
   one-bucket tables so every lookup walks a collision chain. A vector op
   reuses a pool vector (shared: the phys memo can fire) or a fresh copy
   of it; [Again] re-interns the previous payload object itself. After
   every op the twin tables must agree on the id, the
   counters and the canonical representative. *)
type op =
  | Vector of int * bool  (* pool index, shared *)
  | Payload of int * int  (* kind, pool index *)
  | Again

let pool =
  Array.map vec
    [|
      [ 0.; 1. ];
      [ -0.; 1. ];
      [ Float.nan; 1. ];
      [ 0. /. 0.; 1. ];
      [ 0.; 1. ];
      [ 2.5 ];
      [ Float.infinity; -1. ];
      [ 1.; 0.; -0. ];
    |]

let payload_of kind k =
  let v = pool.(k) in
  match kind with
  | 0 -> Message.Pvec v
  | 1 -> Message.Ppairs [ (k, v); (k + 1, pool.((k + 3) mod Array.length pool)) ]
  | 2 -> Message.Pint (k mod 3)
  | _ -> Message.Pparties [ k mod 2; k mod 3 ]

let gen_ops =
  let open QCheck.Gen in
  let k = int_bound (Array.length pool - 1) in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map2 (fun k shared -> Vector (k, shared)) k bool);
         (2, map2 (fun kind k -> Payload (kind, k)) (int_bound 3) k);
         (1, return Again);
       ])

let print_op = function
  | Vector (k, shared) -> Printf.sprintf "vec %d%s" k (if shared then "" else "'")
  | Payload (kind, k) -> Printf.sprintf "payload %d/%d" kind k
  | Again -> "again"

let prop_intern_vec_differential =
  QCheck.Test.make ~name:"intern_vec = intern (Pvec v)" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    (fun ops ->
      let a = Intern.create ~fixed:true ~initial_size:1 () in
      let b = Intern.create ~fixed:true ~initial_size:1 () in
      let last = ref (Message.Pint 0) in
      let both p = (Intern.intern a p, Intern.intern b p) in
      List.for_all
        (fun op ->
          let ia, ib =
            match op with
            | Vector (k, shared) ->
                let v =
                  if shared then pool.(k)
                  else Vec.of_array (Vec.to_array pool.(k))
                in
                (Intern.intern_vec a v, Intern.intern b (Message.Pvec v))
            | Payload (kind, k) ->
                last := payload_of kind k;
                both !last
            | Again -> both !last
          in
          ia = ib
          && Intern.hits a = Intern.hits b
          && Intern.misses a = Intern.misses b
          && Intern.count a = Intern.count b
          && compare (Intern.payload a ia) (Intern.payload b ib) = 0)
        ops)

let () =
  Alcotest.run "intern"
    [
      ( "intern table",
        [
          Alcotest.test_case "basic interning" `Quick test_intern_basic;
          Alcotest.test_case "constructor coverage" `Quick
            test_intern_constructors;
          Alcotest.test_case "NaN partition" `Quick test_intern_nan;
          Alcotest.test_case "forced collision chains" `Quick
            test_intern_collision_chains;
          Alcotest.test_case "reset" `Quick test_intern_reset;
          QCheck_alcotest.to_alcotest prop_intern_vec_differential;
        ] );
    ]
