(* Tests for the domain scheduler and the parallel scenario sweep path:
   ordering and overflow, failure isolation, retries, the calling-domain
   completion hook, and the bit-identical-replay contract of
   Runner.run_batch. *)

let values outs = List.map Pool.get outs

(* --- Pool.map --- *)

let test_pool_order_and_overflow () =
  (* many more items than workers: all run, results in submission order *)
  let out = Pool.map ~domains:3 (fun i -> i * i) (List.init 50 Fun.id) in
  Alcotest.(check (list int))
    "order preserved"
    (List.init 50 (fun i -> i * i))
    (values out)

let test_pool_empty_map () =
  Alcotest.(check (list int)) "empty" [] (values (Pool.map ~domains:2 Fun.id []))

let test_pool_exception_does_not_wedge () =
  (* two failing items: every item still runs, both are Crashed in their
     own slots, and unwrapping re-raises the lowest-indexed failure *)
  let ran = Array.make 16 false in
  let out =
    Pool.map ~domains:2
      (fun i ->
        ran.(i) <- true;
        if i = 3 || i = 7 then failwith (Printf.sprintf "boom%d" i) else i)
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "every item ran" true (Array.for_all Fun.id ran);
  List.iteri
    (fun i o ->
      match o with
      | Pool.Crashed { exn = Failure m; _ } when i = 3 || i = 7 ->
          Alcotest.(check string) "own failure" (Printf.sprintf "boom%d" i) m
      | Pool.Done v when i <> 3 && i <> 7 -> Alcotest.(check int) "sibling" i v
      | _ -> Alcotest.failf "item %d has the wrong outcome" i)
    out;
  match values out with
  | _ -> Alcotest.fail "expected a failure to propagate"
  | exception Failure m ->
      Alcotest.(check string) "first failing index wins" "boom3" m

(* Over every list length up to 64 and domain count up to 4 (so more
   workers than items occurs): [map] is [List.map], and with failing
   jobs every job still runs and the lowest-indexed failure is the one
   unwrapping re-raises. *)
let prop_map_is_list_map =
  QCheck.Test.make ~count:100
    ~name:"map = List.map, lowest failure wins"
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(0 -- 64) small_nat))
    (fun (domains, xs) ->
      let f x = (x * 7) - 3 in
      let ran = Atomic.make 0 in
      let g (i, x) =
        Atomic.incr ran;
        if x mod 5 = 0 then failwith (string_of_int i) else f x
      in
      let indexed = List.mapi (fun i x -> (i, x)) xs in
      let expected =
        match List.find_opt (fun (_, x) -> x mod 5 = 0) indexed with
        | Some (i, _) -> Error (string_of_int i)
        | None -> Ok (List.map f xs)
      in
      let got =
        try Ok (values (Pool.map ~domains g indexed)) with Failure m -> Error m
      in
      got = expected
      && Atomic.get ran = List.length xs
      && values (Pool.map ~domains f xs) = List.map f xs)

let test_pool_one_domain_inline () =
  (* one domain, or one item on many: every job runs in the calling
     domain, in order, and no domain is spawned *)
  let caller = Domain.self () in
  let order = ref [] in
  let job i =
    Alcotest.(check bool) "job in the calling domain" true
      (Domain.self () = caller);
    Alcotest.(check int) "nothing spawned" 0 (Pool.active_domains ());
    order := i :: !order;
    i + 1
  in
  Alcotest.(check (list int)) "one domain" [ 1; 2; 3; 4 ]
    (values (Pool.map ~domains:1 job [ 0; 1; 2; 3 ]));
  Alcotest.(check (list int)) "in order" [ 3; 2; 1; 0 ] !order;
  Alcotest.(check (list int)) "one item on four domains" [ 10 ]
    (values (Pool.map ~domains:4 job [ 9 ]))

(* --- retries and the completion hook --- *)

let outcome_int =
  Alcotest.testable
    (fun ppf -> function
      | Pool.Done v -> Format.fprintf ppf "Done %d" v
      | Pool.Crashed { attempts; exn; _ } ->
          Format.fprintf ppf "Crashed{attempts=%d; %s}" attempts
            (Printexc.to_string exn))
    (fun a b ->
      match (a, b) with
      | Pool.Done x, Pool.Done y -> x = y
      | Pool.Crashed a, Pool.Crashed b ->
          a.attempts = b.attempts && a.exn = b.exn
      | _ -> false)

let test_supervised_clean_sweep () =
  let xs = List.init 25 Fun.id in
  let out = Pool.map ~domains:3 (fun i -> i * i) xs in
  Alcotest.(check (list outcome_int))
    "all done, submission order"
    (List.map (fun i -> Pool.Done (i * i)) xs)
    out;
  Alcotest.(check int) "no leaked domains" 0 (Pool.active_domains ())

let test_supervised_empty_and_oversized () =
  Alcotest.(check (list outcome_int))
    "empty" [] (Pool.map ~domains:4 (fun i -> i) []);
  (* more domains than items: the pool clamps, completes, and joins every
     spawned domain — independent of Domain.recommended_domain_count *)
  let out = Pool.map ~domains:16 (fun i -> i + 1) [ 10; 20; 30 ] in
  Alcotest.(check (list outcome_int))
    "clamped pool" (List.map (fun v -> Pool.Done v) [ 11; 21; 31 ])
    out;
  Alcotest.(check int) "no leaked domains" 0 (Pool.active_domains ())

let test_supervised_fatal_crash_is_bounded () =
  (* item 5 raises an Out_of_memory-style fatal every time: it must be
     retried max_retries times, then reported Crashed — and the rest of
     the sweep must complete *)
  let job i = if i = 5 then raise Out_of_memory else i * 10 in
  let out = Pool.map ~domains:2 ~max_retries:2 job (List.init 12 Fun.id) in
  List.iteri
    (fun i o ->
      match (i, o) with
      | 5, Pool.Crashed { attempts; exn; _ } ->
          Alcotest.(check int) "retry budget exhausted" 3 attempts;
          Alcotest.(check bool) "exception preserved" true (exn = Out_of_memory)
      | 5, Pool.Done _ -> Alcotest.fail "crasher reported Done"
      | _, Pool.Done v -> Alcotest.(check int) "sibling result" (i * 10) v
      | _, Pool.Crashed _ -> Alcotest.failf "healthy item %d reported Crashed" i)
    out;
  Alcotest.(check int) "every domain joined" 0 (Pool.active_domains ())

let test_supervised_transient_crash_retries () =
  (* the first attempt raises, the retry succeeds: the item must come
     back Done with no Crashed report *)
  let first = Atomic.make true in
  let job i =
    if i = 2 && Atomic.exchange first false then failwith "transient" else i
  in
  let out = Pool.map ~domains:2 ~max_retries:1 job (List.init 6 Fun.id) in
  Alcotest.(check (list outcome_int))
    "transient crash recovered"
    (List.map (fun i -> Pool.Done i) (List.init 6 Fun.id))
    out;
  Alcotest.(check int) "no leaked domains" 0 (Pool.active_domains ())

let test_supervised_on_done_once_per_item () =
  (* on_done runs in the calling domain, exactly once per item, crash or
     not — the journaling hook's contract *)
  let n = 10 in
  let seen = Array.make n 0 in
  let caller = Domain.self () in
  let job i = if i = 4 then raise Stack_overflow else i in
  let out =
    Pool.map ~domains:3
      ~on_done:(fun i _ ->
        Alcotest.(check bool) "on_done in the calling domain" true
          (Domain.self () = caller);
        seen.(i) <- seen.(i) + 1)
      job (List.init n Fun.id)
  in
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d seen once" i) 1 c)
    seen;
  (match List.nth out 4 with
  | Pool.Crashed { attempts; _ } ->
      Alcotest.(check int) "max_retries defaults to 0: one attempt" 1 attempts
  | Pool.Done _ -> Alcotest.fail "crasher reported Done");
  Alcotest.(check int) "no leaked domains" 0 (Pool.active_domains ())

(* --- Runner.run_batch: bit-identical parallel replay --- *)

(* A grid of scenarios over D in 1..3, sync/async delay policies and two
   Byzantine behaviours. Small n keeps the D = 3 LP path affordable. *)
let grid () =
  let poison d = Behavior.Honest_with_input (Vec.make d 50.) in
  List.concat_map
    (fun (d, n, ts, ta) ->
      let cfg = Config.make_exn ~n ~ts ~ta ~d ~eps:0.1 ~delta:10 in
      let inputs =
        List.init n (fun i ->
            Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))
      in
      List.concat_map
        (fun (pname, policy, sync) ->
          List.map
            (fun (bname, corruptions) ->
              Scenario.make
                ~name:(Printf.sprintf "grid D=%d %s %s" d pname bname)
                ~seed:(Int64.of_int ((d * 97) + n))
                ~cfg ~inputs ~policy ~sync_network:sync ~corruptions ())
            [
              ("silent", [ (0, Behavior.Silent) ]);
              ("poison", [ (0, poison d) ]);
            ])
        [
          ("sync", Network.sync_uniform ~delta:10, true);
          ("async", Network.async_heavy_tail ~base:8, false);
        ])
    [ (1, 4, 1, 0); (2, 5, 1, 1); (3, 5, 1, 0) ]

(* Structural equality over the whole result record — every field,
   including stats and the traffic rows. [compare] (not [=]) so that any
   NaN still compares equal to itself. *)
let same_result a b = compare (a : Runner.result) b = 0

let test_run_batch_matches_sequential () =
  let scenarios = grid () in
  let seq = List.map Runner.run scenarios in
  let par = Runner.run_batch ~domains:4 scenarios in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " bit-identical") true (same_result a b))
    seq par

let test_run_batch_domains_one_is_sequential () =
  let scenarios = grid () in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " identical") true (same_result a b))
    (List.map Runner.run scenarios)
    (Runner.run_batch scenarios)

let test_replicate_and_batch () =
  let cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:2 ~eps:0.1 ~delta:10 in
  let inputs = List.init 4 (fun i -> Vec.of_list [ float_of_int i; 0. ]) in
  let base =
    Scenario.make ~name:"rep" ~cfg ~inputs
      ~policy:(Network.async_heavy_tail ~base:8) ~sync_network:false ()
  in
  let seeds = [ 1L; 2L; 3L; 4L; 5L ] in
  let reps = Scenario.replicate ~seeds base in
  Alcotest.(check (list string))
    "names carry the seed"
    [ "rep@1"; "rep@2"; "rep@3"; "rep@4"; "rep@5" ]
    (List.map (fun s -> s.Scenario.name) reps);
  Alcotest.(check bool)
    "seeds applied" true
    (List.map (fun s -> s.Scenario.seed) reps = seeds);
  let seq = List.map Runner.run reps in
  let par = Runner.run_batch ~domains:3 reps in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " bit-identical") true (same_result a b))
    seq par;
  (* different engine seeds really do explore different schedules *)
  Alcotest.(check bool) "schedules differ across seeds" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun r -> r.Runner.stats.Engine.final_time) seq))
    > 1)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "order + overflow" `Quick
            test_pool_order_and_overflow;
          Alcotest.test_case "empty map" `Quick test_pool_empty_map;
          Alcotest.test_case "exception isolation" `Quick
            test_pool_exception_does_not_wedge;
          QCheck_alcotest.to_alcotest prop_map_is_list_map;
          Alcotest.test_case "one domain runs inline and spawns nothing"
            `Quick test_pool_one_domain_inline;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "clean sweep" `Quick test_supervised_clean_sweep;
          Alcotest.test_case "empty + oversized pool" `Quick
            test_supervised_empty_and_oversized;
          Alcotest.test_case "fatal crash bounded + quarantined" `Quick
            test_supervised_fatal_crash_is_bounded;
          Alcotest.test_case "transient crash retried to Done" `Quick
            test_supervised_transient_crash_retries;
          Alcotest.test_case "on_done once per item, calling domain" `Quick
            test_supervised_on_done_once_per_item;
        ] );
      ( "run_batch",
        [
          Alcotest.test_case "parallel = sequential (grid)" `Quick
            test_run_batch_matches_sequential;
          Alcotest.test_case "domains=1 = sequential" `Quick
            test_run_batch_domains_one_is_sequential;
          Alcotest.test_case "replicate + batch" `Quick test_replicate_and_batch;
        ] );
    ]
