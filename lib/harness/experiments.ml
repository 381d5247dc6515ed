(* Each experiment is a function [~domains -> failures -> unit]: it prints
   its report body and records every claim that did not hold with
   [expect]. The driver [run] frames the report — the [=== title ===]
   header before it, the RESULT verdict after it — and returns whether
   every claim held. Seeds are fixed: reports are reproducible bit for bit.

   Independent scenario batches go through [Runner.run_batch ~domains]
   (mostly via [run_passing]), which fans them out to [domains] worker
   domains; an experiment that runs no batch ignores the count. Reports
   stay byte-identical for any domain count because (a) scenarios are
   constructed — and any shared input-generation Rng is consumed —
   before submission, (b) Runner.run owns all its mutable state and
   never prints, and (c) all formatting happens after the join, from the
   ordered result list. *)

let expect failures ok msg = if not ok then failures := msg :: !failures

let f3 x = Printf.sprintf "%.3f" x
let e3 x = Printf.sprintf "%.3e" x
let yn b = if b then "yes" else "no"
let max_of f l = List.fold_left (fun acc x -> max acc (f x)) 0 l
let fmax_of f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0. l

(* the live / valid / agree / diam columns of a graded run *)
let grade_cols (r : Runner.result) =
  [ yn r.live; yn r.valid; yn r.agreement; e3 r.diameter ]

(* (messages, rounds) summaries over a set of runs *)
let cost_stats runs =
  let summarize f = Stats.summarize (List.map f runs) in
  ( summarize (fun r -> float_of_int r.Runner.stats.Engine.messages_sent),
    summarize (fun r -> r.Runner.completion_rounds) )

(* every end-to-end configuration runs at Δ = 10 ticks *)
let mk n ts ta d eps = Config.make_exn ~n ~ts ~ta ~d ~eps ~delta:10

(* Runs the [(key, scenario)] cases as one batch and expects each run to
   pass (failure message [what key]); returns the [(key, result)] pairs
   in case order. *)
let run_passing ~domains failures what cases =
  List.map2
    (fun (key, _) r ->
      expect failures (Runner.passed r) (what key);
      (key, r))
    cases
    (Runner.run_batch ~domains (List.map snd cases))

(* a scenario keyed by its name *)
let case name cfg policy sync corruptions inputs seed =
  ( name,
    Scenario.make ~name ~seed ~cfg ~policy ~sync_network:sync ~corruptions
      ~inputs () )

let poison d scale =
  Behavior.Honest_with_input (Vec.scale scale (Vec.make d 1.))

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 / Theorem 3.1 — synchronous lower bound                *)
(* ------------------------------------------------------------------ *)

(* The region a party holding corner [d] is forced into: every candidate
   honest hull convex({e_j : j <> i}) for a corrupted group i <> d. *)
let forced_region corners d =
  List.init (List.length corners) Fun.id
  |> List.filter (fun i -> i <> d)
  |> List.map (fun i -> Polygon.of_points (List.filteri (fun j _ -> j <> i) corners))
  |> Polygon.inter_all

(* the forced region is the single point of the party's own corner *)
let forced_to_own region corner =
  Polygon.diameter region <= 1e-9 && Polygon.contains region corner

let e1 ~domains failures =
  let eps = 1. in
  let corners = Inputs.simplex_corners ~d:2 ~scale:eps ~n:3 in
  Printf.printf "Inputs: %s\n\n"
    (String.concat "  " (List.map Vec.to_string corners));
  (* Party with input e_d cannot distinguish the scenarios in which any
     other group i is corrupted; its output must lie in every candidate
     honest hull convex({e_j : j <> i}). *)
  let forced = List.mapi (fun d ed -> (d, ed, forced_region corners d)) corners in
  let rows =
    List.map
      (fun (d, ed, region) ->
        match region with
        | None -> [ Printf.sprintf "S%d" d; Vec.to_string ed; "EMPTY"; "-" ]
        | Some r ->
            let is_own = forced_to_own r ed in
            expect failures is_own
              (Printf.sprintf "group %d not forced to its own input" d);
            [
              Printf.sprintf "S%d" d;
              Vec.to_string ed;
              Format.asprintf "%a" Polygon.pp r;
              yn is_own;
            ])
      forced
  in
  Table.print
    ~header:[ "group"; "input"; "forced output region"; "forced to own input" ]
    rows;
  let outs = List.map (fun (_, ed, _) -> ed) forced in
  let diam = Vec.diameter outs in
  Printf.printf
    "\nForced output diameter = %.4f = eps*sqrt(2) > eps = %.1f  => no \
     eps-agreement possible.\n"
    diam eps;
  expect failures
    (Float.abs (diam -. (eps *. sqrt 2.)) <= 1e-9)
    "forced diameter is not eps*sqrt(2)";

  (* Control: one more party (n = 4 > (D+1)*ts) and the same corner attack
     fails against our protocol. *)
  print_newline ();
  print_endline
    "Control at n = 4, ts = 1, ta = 0 (feasible): corrupt party replays a \
     corner input.";
  let cfg = mk 4 1 0 2 0.25 in
  let inputs = corners @ [ Vec.of_list [ 0.3; 0.3 ] ] in
  run_passing ~domains failures
    (Printf.sprintf "control run with corrupt %d failed")
    (List.map
       (fun corrupt ->
         ( corrupt,
           Scenario.make ~name:"e1-control" ~cfg ~inputs
             ~corruptions:
               [ (corrupt, Behavior.Honest_with_input (List.nth corners corrupt)) ]
             () ))
       [ 0; 1; 2 ])
  |> List.map (fun (corrupt, r) -> string_of_int corrupt :: grade_cols r)
  |> Table.print ~header:[ "corrupt"; "live"; "valid"; "agree"; "diam" ]

(* ------------------------------------------------------------------ *)
(* E2: Theorem 3.2 — asynchronous lower bound                          *)
(* ------------------------------------------------------------------ *)

let e2 ~domains:_ failures =
  let eps = 1. in
  let corners = Inputs.simplex_corners ~d:2 ~scale:eps ~n:3 in
  print_endline
    "Groups S0..S2 hold the corner inputs; S3 sends nothing. An honest\n\
     party cannot tell whether S3 is corrupt or merely slow with some other\n\
     group corrupt, so its output must lie in every candidate honest hull:";
  let own d ed =
    Option.fold ~none:false
      ~some:(fun r -> forced_to_own r ed)
      (forced_region corners d)
  in
  expect failures (List.for_all Fun.id (List.mapi own corners)) "async forcing failed";
  Printf.printf
    "Each group is forced to its own corner; output diameter %.4f > eps.\n"
    (eps *. sqrt 2.);

  print_newline ();
  print_endline
    "Control at n = 6, ts = ta = 1 (feasible): silent corrupt party plus \
     starvation of one honest party.";
  let cfg = mk 6 1 1 2 0.25 in
  let inputs =
    corners
    @ [ Vec.of_list [ 0.5; 0.2 ]; Vec.of_list [ 0.2; 0.5 ]; Vec.of_list [ 0.4; 0.4 ] ]
  in
  let r =
    Runner.run
      (Scenario.make ~name:"e2-control" ~cfg ~inputs ~sync_network:false
         ~policy:
           (Network.async_starve ~victims:(fun i -> i = 1) ~release:800 ~fast:4)
         ~corruptions:[ (5, Behavior.Silent) ]
         ())
  in
  Printf.printf "live=%s valid=%s agree=%s diam=%s\n" (yn r.Runner.live)
    (yn r.Runner.valid) (yn r.Runner.agreement) (e3 r.Runner.diameter);
  expect failures (Runner.passed r) "feasible async control failed"

(* ------------------------------------------------------------------ *)
(* E3: Figure 2 — safe-area worked example                             *)
(* ------------------------------------------------------------------ *)

let e3_run ~domains:_ failures =
  let pts =
    [
      Vec.of_list [ 0.; 0. ]; Vec.of_list [ 2.; 0. ];
      Vec.of_list [ 2.; 2. ]; Vec.of_list [ 0.; 2. ];
    ]
  in
  Printf.printf "Points: %s\n\n"
    (String.concat "  " (List.map Vec.to_string pts));
  let subsets = Restrict.subsets ~t:1 pts in
  print_endline "Stage-by-stage intersection of the 3-subset hulls:";
  let acc = ref None in
  List.iteri
    (fun i sub ->
      let hull = Polygon.of_points sub in
      acc :=
        (match !acc with
        | None -> Some hull
        | Some r -> Polygon.inter r hull);
      Printf.printf "  after subset %d (%s): %s\n" (i + 1)
        (String.concat " " (List.map Vec.to_string sub))
        (match !acc with
        | None -> "EMPTY"
        | Some r -> Format.asprintf "%a" Polygon.pp r))
    subsets;
  (match Safe_area.compute ~t:1 pts with
  | Some (Safe_area.Planar p) ->
      let vcount = List.length (Polygon.vertices p) in
      expect failures (vcount = 1) "safe area is not a single point";
      let v = List.hd (Polygon.vertices p) in
      Printf.printf "\nFinal safe area: the single point v = %s\n"
        (Vec.to_string v);
      expect failures
        (Vec.dist v (Vec.of_list [ 1.; 1. ]) <= 1e-9)
        "v is not the diagonal crossing";
      (* v is inside the convex hull of any 3 of the 4 points *)
      List.iter
        (fun sub ->
          expect failures
            (Membership.in_hull ~eps:1e-9 sub v)
            "v outside some 3-subset hull")
        subsets;
      print_endline
        "v lies in the convex hull of every 3 of the 4 points: whichever\n\
         point is corrupt, v is inside the honest hull."
  | _ -> expect failures false "safe area not planar/non-empty");

  (* The Section 5 example motivating max(k, ta): safe_1 of three honest
     values is empty; the paper's trim level uses k = 0 instead. *)
  print_newline ();
  let three =
    [ Vec.of_list [ 0.; 0. ]; Vec.of_list [ 0.; 1. ]; Vec.of_list [ 1.; 0. ] ]
  in
  let empty = Safe_area.compute ~t:1 three = None in
  Printf.printf
    "Section 5 example (n=4, ts=1, ta=0, one silent corruption):\n\
    \  safe_1({(0,0),(0,1),(1,0)}) empty: %s   (naive trim fails)\n" (yn empty);
  expect failures empty "paper's empty example is not empty";
  let fixed =
    match Safe_area.compute ~t:0 three with
    | Some a -> Safe_area.contains a (Vec.of_list [ 0.33; 0.33 ])
    | None -> false
  in
  Printf.printf
    "  safe_max(k,ta) = safe_0 = the full hull: %s   (the paper's fix)\n"
    (yn fixed);
  expect failures fixed "max(k,ta) fix does not recover the hull"

(* ------------------------------------------------------------------ *)
(* E4: Theorem 4.2 — reliable broadcast round counts                   *)
(* ------------------------------------------------------------------ *)

let e4 ~domains:_ failures =
  let delta = 10 in
  let payload = Message.Pvec (Vec.of_list [ 1.; 2. ]) in
  let rows =
    List.map
      (fun (n, t) ->
        let honest = List.init n Fun.id in
        (* honest liveness under worst-case synchronous scheduling *)
        let obs =
          Fixtures.run_rbc ~n ~t ~policy:(Network.lockstep ~delta) ~honest
            ~sender:(`Honest (0, payload)) ()
        in
        let times = List.map (fun (_, _, tm) -> tm) obs.rbc_deliveries in
        let maxt = List.fold_left max 0 times in
        let all = List.length times = n in
        expect failures all (Printf.sprintf "n=%d: not all delivered" n);
        expect failures
          (maxt <= Params.c_rbc * delta)
          (Printf.sprintf "n=%d: delivery after 3 delta" n);
        (* conditional liveness gap under random synchronous delays *)
        let worst_gap = ref 0 in
        List.iter
          (fun seed ->
            let obs =
              Fixtures.run_rbc ~seed ~n ~t
                ~policy:(Network.sync_uniform ~delta) ~honest
                ~sender:(`Honest (0, payload)) ()
            in
            let times = List.map (fun (_, _, tm) -> tm) obs.rbc_deliveries in
            if List.length times = n then begin
              let lo = List.fold_left min max_int times in
              let hi = List.fold_left max 0 times in
              worst_gap := max !worst_gap (hi - lo)
            end)
          [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
        expect failures
          (!worst_gap <= Params.c_rbc' * delta)
          (Printf.sprintf "n=%d: conditional-liveness gap > 2 delta" n);
        (* consistency under an equivocating corrupt sender *)
        let consistent = ref true in
        List.iter
          (fun seed ->
            let honest = List.init (n - 1) Fun.id in
            let obs =
              Fixtures.run_rbc ~seed ~n ~t
                ~policy:(Network.sync_uniform ~delta) ~honest
                ~sender:
                  (`Equivocator
                    ( n - 1,
                      Message.Pvec (Vec.of_list [ 1.; 1. ]),
                      Message.Pvec (Vec.of_list [ 2.; 2. ]) ))
                ()
            in
            let values =
              List.sort_uniq compare
                (List.map (fun (_, p, _) -> p) obs.rbc_deliveries)
            in
            if List.length values > 1 then consistent := false)
          [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
        expect failures !consistent
          (Printf.sprintf "n=%d: equivocation broke consistency" n);
        [
          string_of_int n;
          string_of_int t;
          Printf.sprintf "%d (= %.1f rounds)" maxt
            (float_of_int maxt /. float_of_int delta);
          Printf.sprintf "%d (<= %d)" !worst_gap (Params.c_rbc' * delta);
          yn !consistent;
        ])
      [ (4, 1); (7, 2); (10, 3); (13, 4) ]
  in
  Table.print
    ~header:
      [ "n"; "t"; "honest liveness (<= 3 delta)"; "cond. gap"; "equiv. consistent" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4.4 — overlap all-to-all broadcast                      *)
(* ------------------------------------------------------------------ *)

(* the fewest pairs any two distinct sets share (E5's oBC outputs, E8's
   common estimations) *)
let min_pairwise_overlap sets =
  List.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc m' ->
          if m == m' then acc
          else min acc (Pairset.cardinal (Pairset.inter m m')))
        acc sets)
    max_int sets

let obc_overlap (obs : Fixtures.obc_obs) =
  min_pairwise_overlap (List.map (fun (_, m, _) -> m) obs.obc_outputs)

let e5 ~domains:_ failures =
  let delta = 10 in
  let mk_inputs honest =
    List.map (fun i -> (i, Vec.of_list [ float_of_int i; 0. ])) honest
  in
  let rows =
    List.map
      (fun (n, ts) ->
        let honest = List.init n Fun.id in
        (* synchronous: everyone outputs by c_oBC * delta with all honest
           values present *)
        let obs =
          Fixtures.run_obc ~n ~ts ~delta ~policy:(Network.lockstep ~delta)
            ~inputs:(mk_inputs honest) ()
        in
        let maxt = max_of (fun (_, _, tm) -> tm) obs.obc_outputs in
        let sync_overlap_ok =
          List.length obs.obc_outputs = n
          && List.for_all
               (fun (_, m, _) ->
                 List.for_all (fun j -> Pairset.mem_party j m) honest)
               obs.obc_outputs
        in
        expect failures sync_overlap_ok
          (Printf.sprintf "n=%d: synchronized overlap failed" n);
        expect failures
          (maxt <= (Params.c_obc * delta) + 2)
          (Printf.sprintf "n=%d: output after 5 delta" n);
        (* asynchronous: starve one party; min pairwise overlap >= n - ts *)
        let worst_overlap = ref max_int in
        List.iter
          (fun seed ->
            let obs =
              Fixtures.run_obc ~seed ~n ~ts ~delta
                ~policy:
                  (Network.async_starve
                     ~victims:(fun i -> i = n - 1)
                     ~release:400 ~fast:3)
                ~inputs:(mk_inputs honest) ()
            in
            if List.length obs.obc_outputs = n then
              worst_overlap := min !worst_overlap (obc_overlap obs))
          [ 1L; 2L; 3L; 4L ];
        expect failures
          (!worst_overlap >= n - ts)
          (Printf.sprintf "n=%d: async overlap < n - ts" n);
        [
          string_of_int n;
          string_of_int ts;
          Printf.sprintf "%d (<= %d)" maxt ((Params.c_obc * delta) + 2);
          yn sync_overlap_ok;
          Printf.sprintf "%d (>= %d)" !worst_overlap (n - ts);
        ])
      [ (4, 1); (7, 2); (10, 3) ]
  in
  Table.print
    ~header:
      [
        "n"; "ts"; "sync output time"; "all honest values"; "async min overlap";
      ]
    rows;

  (* Ablation: drop the witness phase. Two late-joining parties make their
     values race the others' collection deadlines; without witnesses,
     output sets then share fewer than n - ts pairs. *)
  print_newline ();
  print_endline
    "Ablation: witness phase removed; two parties join 8 and 9 ticks late\n\
     (values race the 3-delta collection deadline). Worst pairwise overlap\n\
     over 40 seeds:";
  let laggard_overlap ~n ~ts ~witnessing =
    let worst = ref max_int in
    for seed = 1 to 40 do
      let obs =
        Fixtures.run_obc ~seed:(Int64.of_int seed) ~witnessing ~n ~ts ~delta
          ~policy:(Network.sync_uniform ~delta)
          ~start_delays:[ (n - 1, 8); (n - 2, 9) ]
          ~inputs:(mk_inputs (List.init n Fun.id))
          ()
      in
      if List.length obs.obc_outputs >= 2 then
        worst := min !worst (obc_overlap obs)
    done;
    !worst
  in
  let abl_rows =
    List.map
      (fun (n, ts) ->
        let with_w = laggard_overlap ~n ~ts ~witnessing:true in
        let without_w = laggard_overlap ~n ~ts ~witnessing:false in
        expect failures (with_w >= n - ts)
          (Printf.sprintf "n=%d: witnessed overlap below n - ts" n);
        expect failures (without_w < n - ts)
          (Printf.sprintf "n=%d: ablation did not exhibit the overlap violation" n);
        [
          string_of_int n;
          string_of_int ts;
          Printf.sprintf "%d (>= %d)" with_w (n - ts);
          Printf.sprintf "%d (< %d: guarantee lost)" without_w (n - ts);
        ])
      [ (5, 1); (6, 1) ]
  in
  Table.print
    ~header:[ "n"; "ts"; "with witnesses"; "without witnesses" ]
    abl_rows;
  print_endline
    "\nThe witness phase is what buys the (ts, ta)-Overlap guarantee:\n\
     removing it lets two honest parties output with fewer than n - ts\n\
     common pairs, which empties downstream safe-area intersections."

(* ------------------------------------------------------------------ *)
(* E6: Lemmas 5.5-5.8 — safe-area invariants, randomized               *)
(* ------------------------------------------------------------------ *)

let e6 ~domains:_ failures =
  let rng = Rng.create 2024L in
  let random_vec d =
    Vec.of_list (List.init d (fun _ -> Rng.float_range rng (-10.) 10.))
  in
  let rows =
    List.map
      (fun (d, n, ts, ta, trials) ->
        let nonempty = ref 0 and inside = ref 0 and intersect = ref 0 in
        let inter_total = ref 0 in
        for _ = 1 to trials do
          (* Lemma 5.5 / 5.7 instance *)
          let k = Rng.int rng (ts + 1) in
          let m = List.init (n - ts + k) (fun _ -> random_vec d) in
          let trim = max k ta in
          (match Safe_area.compute ~t:trim m with
          | Some area ->
              incr nonempty;
              let a, b = Safe_area.diameter_pair area in
              let mid = Safe_area.midpoint_value area in
              let in_all_subsets =
                List.for_all
                  (fun sub ->
                    List.for_all
                      (fun p -> Membership.in_hull ~eps:1e-6 sub p)
                      [ a; b; mid ])
                  (Restrict.subsets ~t:trim m)
              in
              if in_all_subsets then incr inside
          | None -> ());
          (* Lemma 5.8 instance: common core of n - ts values *)
          if d = 2 then begin
            let core = List.init (n - ts) (fun _ -> random_vec d) in
            let m1 = core @ [ random_vec d ] and m2 = core @ [ random_vec d ] in
            let t_of m = max (List.length m - (n - ts)) ta in
            incr inter_total;
            match
              ( Safe_area.compute ~t:(t_of m1) m1,
                Safe_area.compute ~t:(t_of m2) m2 )
            with
            | Some (Safe_area.Planar p1), Some (Safe_area.Planar p2) ->
                if Polygon.inter p1 p2 <> None then incr intersect
            | _ -> ()
          end
        done;
        expect failures (!nonempty = trials)
          (Printf.sprintf "D=%d: some safe area was empty" d);
        expect failures (!inside = !nonempty)
          (Printf.sprintf "D=%d: safe area left a subset hull" d);
        if d = 2 then
          expect failures
            (!intersect = !inter_total)
            "D=2: some honest safe areas did not intersect";
        [
          string_of_int d;
          Printf.sprintf "%d/%d/%d" n ts ta;
          Printf.sprintf "%d/%d" !nonempty trials;
          Printf.sprintf "%d/%d" !inside !nonempty;
          (if d = 2 then Printf.sprintf "%d/%d" !intersect !inter_total else "-");
        ])
      [ (1, 7, 2, 1, 150); (2, 8, 2, 1, 150); (3, 9, 2, 0, 40) ]
  in
  Table.print
    ~header:
      [
        "D"; "n/ts/ta"; "non-empty (5.5)"; "inside subset hulls (5.7)";
        "pairwise intersect (5.8)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: Lemma 5.15 — contraction factor sqrt(7/8)                       *)
(* ------------------------------------------------------------------ *)

let e7 ~domains failures =
  (* Part 1 — the lemma at its native level. Lemma 5.15 bounds the distance
     of two honest parties' new values given any ΠoBC outputs satisfying
     the overlap guarantees. We adversarially construct such outputs: a
     common core of n - ts pairs plus per-party extras, with up to ts
     corrupt values placed far away, and measure
     diam(new values) / diam(honest values) over many random trials. *)
  print_endline
    "Unit level: adversarial oBC-compatible received sets, ratio\n\
     diam(new honest values) / diam(honest iteration inputs):";
  let rng = Rng.create 4242L in
  (* One trial builds, for every honest party, a received set that a real
     ΠoBC execution could produce, then applies the new-value rule.
     Synchronous style: f = ts corrupt parties; Synchronized Overlap means
     every honest set contains all honest pairs, plus a random subset of
     the corrupt ones. Asynchronous style: f = ta corrupt parties; sets
     share a random common core of n - ts pairs ((ts,ta)-Overlap) plus
     random extras. In both cases the corrupt count never exceeds the trim
     level max(k, ta) — exactly the invariant ΠoBC guarantees. *)
  let trial ~rule ~style ~d ~n ~ts ~ta =
    let rand_vec scale =
      Vec.of_list (List.init d (fun _ -> Rng.float_range rng (-.scale) scale))
    in
    let f = match style with `Sync -> ts | `Async -> ta in
    let honest_vals = Array.init (n - f) (fun _ -> rand_vec 10.) in
    let corrupt_vals = Array.init f (fun _ -> rand_vec 1000.) in
    let value p =
      if p < n - f then honest_vals.(p) else corrupt_vals.(p - (n - f))
    in
    let members =
      match style with
      | `Sync ->
          fun () ->
            let honest = List.init (n - f) Fun.id in
            let extras =
              List.init f (fun i -> n - f + i)
              |> List.filter (fun _ -> Rng.bool rng)
            in
            honest @ extras
      | `Async ->
          let perm = Array.init n Fun.id in
          Rng.shuffle rng perm;
          let core = Array.to_list (Array.sub perm 0 (n - ts)) in
          let rest = Array.to_list (Array.sub perm (n - ts) ts) in
          fun () -> core @ List.filter (fun _ -> Rng.bool rng) rest
    in
    let new_vals =
      List.init (n - f) (fun _ ->
          let pairs =
            Pairset.of_bindings (List.map (fun p -> (p, value p)) (members ()))
          in
          let k = Pairset.cardinal pairs - (n - ts) in
          match Safe_area.compute ~t:(max k ta) (Pairset.values pairs) with
          | Some area -> rule area
          | None -> assert false (* Lemma 5.5 *))
    in
    let d_in = Vec.diameter (Array.to_list honest_vals) in
    if d_in > 1e-9 then Some (Vec.diameter new_vals /. d_in) else None
  in
  (* the largest ratio over [trials] trials *)
  let worst_ratio ?(rule = Safe_area.midpoint_value) ~style ~d ~n ~ts ~ta trials =
    let worst = ref 0. in
    for _ = 1 to trials do
      Option.iter
        (fun r -> worst := Float.max !worst r)
        (trial ~rule ~style ~d ~n ~ts ~ta)
    done;
    !worst
  in
  let unit_rows =
    List.concat_map
      (fun (d, n, ts, ta, trials) ->
        List.map
          (fun style ->
            let worst = worst_ratio ~style ~d ~n ~ts ~ta trials in
            let ok = worst <= Params.conv_factor +. 1e-6 in
            expect failures ok
              (Printf.sprintf "D=%d unit-level contraction violated" d);
            [
              Printf.sprintf "D=%d n=%d ts=%d ta=%d" d n ts ta;
              (match style with `Sync -> "sync" | `Async -> "async");
              string_of_int trials;
              f3 worst;
              f3 Params.conv_factor;
              yn ok;
            ])
          [ `Sync; `Async ])
      [ (1, 7, 2, 1, 400); (2, 8, 2, 1, 300); (3, 9, 2, 0, 24) ]
  in
  Table.print
    ~header:[ "setting"; "style"; "trials"; "max ratio"; "bound"; "ok" ]
    unit_rows;

  (* Ablation (DESIGN.md §4): the diameter-pair midpoint rule of
     Függer–Nowak vs a centroid update. Both stay inside the safe area
     (validity), but only the midpoint rule carries the proven constant. *)
  print_newline ();
  print_endline "Update-rule ablation (D=2, n=8, ts=2, ta=1, async style):";
  let measure rule = worst_ratio ~rule ~style:`Async ~d:2 ~n:8 ~ts:2 ~ta:1 300 in
  let mid = measure Safe_area.midpoint_value in
  let cen = measure Safe_area.interior_point in
  Table.print
    ~header:[ "update rule"; "max ratio"; "proven bound" ]
    [
      [ "diameter-pair midpoint (paper)"; f3 mid; f3 Params.conv_factor ];
      [ "area centroid (ablation)"; f3 cen; "none proven" ];
    ];
  expect failures (mid <= Params.conv_factor +. 1e-6)
    "midpoint rule exceeded the proven bound";

  print_newline ();
  print_endline
    "End to end: full protocol runs. The witness mechanism keeps honest\n\
     views so close that the measured contraction is far better than the\n\
     worst-case bound (typically full collapse in one iteration):";
  let cases =
    List.concat
      [
        (let cfg = mk 7 2 0 1 1e-4 in
         let inputs = List.init 7 (fun i -> Vec.of_list [ float_of_int (i * i) ]) in
         [
           case "D=1 poison+lagger" cfg
             (Network.sync_uniform ~delta:10)
             true
             [ (0, Behavior.Honest_with_input (Vec.of_list [ 1e6 ]));
               (3, Behavior.Lagger 8) ]
             inputs 11L;
         ]);
        (let cfg = mk 8 2 1 2 1e-4 in
         let rng = Rng.create 5L in
         let inputs = Inputs.two_clusters rng ~d:2 ~n:8 ~separation:20. in
         [
           case "D=2 poison+lagger" cfg
             (Network.sync_uniform ~delta:10)
             true
             [ (1, Behavior.Honest_with_input (Vec.of_list [ 500.; -500. ]));
               (6, Behavior.Lagger 8) ]
             inputs 12L;
           case "D=2 async heavy tail" cfg
             (Network.async_heavy_tail ~base:60)
             false
             [ (1, Behavior.Honest_with_input (Vec.of_list [ 500.; -500. ])) ]
             inputs 1L;
         ]);
        (let cfg = mk 6 1 0 3 1e-2 in
         let rng = Rng.create 6L in
         let inputs = Inputs.uniform_cube rng ~d:3 ~n:6 ~side:10. in
         [
           case "D=3 poison" cfg
             (Network.sync_uniform ~delta:10)
             true
             [ (2, Behavior.Honest_with_input (Vec.of_list [ 100.; 100.; -100. ])) ]
             inputs 14L;
         ]);
      ]
  in
  let rows =
    List.map
      (fun (name, r) ->
        let ratios = Runner.contraction_ratios r in
        let worst = fmax_of snd ratios in
        let ok = ratios = [] || worst <= Params.conv_factor +. 1e-6 in
        expect failures ok (name ^ ": contraction bound violated");
        [
          name;
          string_of_int (List.length ratios);
          (if ratios = [] then "-" else f3 worst);
          f3 Params.conv_factor;
          yn ok;
        ])
      (run_passing ~domains failures (fun name -> name ^ ": correctness failed") cases)
  in
  Table.print
    ~header:[ "case"; "iterations"; "max ratio"; "bound"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: Theorem 5.18 — the Πinit estimation round                       *)
(* ------------------------------------------------------------------ *)

let rounds_needed_for ~eps ~diam =
  if diam <= eps then 0
  else int_of_float (Float.ceil (log (eps /. diam) /. log Params.conv_factor))

let e8 ~domains:_ failures =
  let n = 8 and ts = 2 and ta = 1 and delta = 10 and eps = 0.05 in
  let honest = [ 0; 1; 2; 3; 4; 6; 7 ] in
  (* party 5 silent *)
  let inputs =
    List.map
      (fun i -> (i, Vec.of_list [ float_of_int (i mod 3); float_of_int (i mod 5) ]))
      honest
  in
  let honest_vals = List.map snd inputs in

  (* synchronous run *)
  let obs =
    Fixtures.run_init ~n ~ts ~ta ~delta ~eps ~policy:(Network.lockstep ~delta)
      ~inputs ()
  in
  let all_out = List.length obs.init_results = List.length honest in
  expect failures all_out "sync: not every honest party output";
  let sync_time = max_of (fun (_, _, _, tm) -> tm) obs.init_results in
  Printf.printf "Synchronous completion at tick %d (= %.1f rounds; c_init = %d)\n"
    sync_time
    (float_of_int sync_time /. float_of_int delta)
    Params.c_init;
  expect failures
    (sync_time <= (Params.c_init * delta) + 2)
    "sync: completion after c_init";
  let v0_ok =
    List.for_all
      (fun (_, _, v0, _) -> Membership.in_hull ~eps:1e-6 honest_vals v0)
      obs.init_results
  in
  Printf.printf "All v0 inside the honest inputs' hull: %s\n" (yn v0_ok);
  expect failures v0_ok "sync: some v0 outside the honest hull";
  let v0s = List.map (fun (_, _, v0, _) -> v0) obs.init_results in
  let t_needed it0 = it0 >= rounds_needed_for ~eps ~diam:(Vec.diameter v0s) in
  let ts_list = List.map (fun (_, tt, _, _) -> tt) obs.init_results in
  let t_min = List.fold_left min max_int ts_list in
  Printf.printf "Estimates T: %s; delta_max(I0) = %s; required >= %d\n"
    (String.concat "," (List.map string_of_int ts_list))
    (e3 (Vec.diameter v0s))
    (rounds_needed_for ~eps ~diam:(Vec.diameter v0s));
  expect failures (t_needed t_min) "sync: smallest T below requirement";

  (* asynchronous run: common estimations with and without double
     witnesses *)
  let common_est (obs : Fixtures.init_obs) =
    min_pairwise_overlap (List.map snd obs.init_estimations)
  in
  let async_policy =
    Network.async_starve ~victims:(fun i -> i = 7) ~release:500 ~fast:3
  in
  let with_dw =
    Fixtures.run_init ~n ~ts ~ta ~delta ~eps ~policy:async_policy ~inputs ()
  in
  let without_dw =
    Fixtures.run_init ~double_witnessing:false ~n ~ts ~ta ~delta ~eps
      ~policy:async_policy ~inputs ()
  in
  Printf.printf
    "\nAsync minimum common estimations between honest pairs:\n\
    \  with double-witnesses:    %d (needs >= n - ts = %d)\n\
    \  without double-witnesses: %d (ablation)\n"
    (common_est with_dw) (n - ts) (common_est without_dw);
  expect failures (common_est with_dw >= n - ts) "async: common estimations < n - ts"

(* ------------------------------------------------------------------ *)
(* E9 / E10: Theorem 5.19 end-to-end sweeps                            *)
(* ------------------------------------------------------------------ *)

let sweep ~domains failures cases =
  run_passing ~domains failures (fun name -> name ^ " failed") cases
  |> List.map2
       (fun (_, s) (name, r) ->
         (name :: Format.asprintf "%a" Config.pp s.Scenario.cfg :: grade_cols r)
         @ [
             f3 r.Runner.completion_rounds;
             string_of_int r.Runner.stats.Engine.messages_sent;
           ])
       cases
  |> Table.print
       ~header:[ "case"; "config"; "live"; "valid"; "agree"; "diam"; "rounds"; "msgs" ]

let e9 ~domains failures =
  let rng = Rng.create 99L in
  sweep ~domains failures
    [
      case "grid, 2 poison" (mk 8 2 1 2 0.05)
        (Network.sync_uniform ~delta:10) true
        [ (0, poison 2 100.); (4, poison 2 (-100.)) ]
        (Inputs.uniform_cube rng ~d:2 ~n:8 ~side:5.) 1L;
      case "clusters, silent+rushing" (mk 8 2 1 2 0.05)
        (Network.rushing ~delta:10 ~corrupt:(fun i -> i = 3)) true
        [ (3, Behavior.Silent); (6, Behavior.Crash_at 60) ]
        (Inputs.two_clusters rng ~d:2 ~n:8 ~separation:10.) 2L;
      case "n=12 ts=3 mixed" (mk 12 3 1 2 0.02)
        (Network.sync_uniform ~delta:10) true
        [ (1, poison 2 1000.); (5, Behavior.Silent); (9, poison 2 (-1000.)) ]
        (Inputs.uniform_cube rng ~d:2 ~n:12 ~side:8.) 3L;
      case "D=1 poison" (mk 7 2 0 1 0.01)
        (Network.sync_uniform ~delta:10) true
        [ (2, poison 1 1e5); (5, poison 1 (-1e5)) ]
        (Inputs.uniform_cube rng ~d:1 ~n:7 ~side:20.) 4L;
      case "D=3 poison" (mk 6 1 0 3 0.1)
        (Network.sync_uniform ~delta:10) true
        [ (0, poison 3 50.) ]
        (Inputs.uniform_cube rng ~d:3 ~n:6 ~side:6.) 5L;
      case "ta=ts=2 equivocate" (mk 11 2 2 2 0.05)
        (Network.sync_uniform ~delta:10) true
        [ (4, Behavior.Equivocate (Vec.of_list [ 60.; 0. ], Vec.of_list [ 0.; 60. ]));
          (8, poison 2 (-60.)) ]
        (Inputs.uniform_cube rng ~d:2 ~n:11 ~side:5.) 6L;
    ]

let e10 ~domains failures =
  let rng = Rng.create 123L in
  sweep ~domains failures
    [
      case "starve 2 honest, 1 silent" (mk 8 2 1 2 0.05)
        (Network.async_starve ~victims:(fun i -> i = 0 || i = 1) ~release:900 ~fast:4)
        false
        [ (5, Behavior.Silent) ]
        (Inputs.uniform_cube rng ~d:2 ~n:8 ~side:5.) 1L;
      case "heavy tail, 1 poison" (mk 8 2 1 2 0.05)
        (Network.async_heavy_tail ~base:12) false
        [ (2, poison 2 300.) ]
        (Inputs.two_clusters rng ~d:2 ~n:8 ~separation:10.) 2L;
      case "ta=2: silent+poison" (mk 11 2 2 2 0.05)
        (Network.async_heavy_tail ~base:10) false
        [ (3, Behavior.Silent); (7, poison 2 (-400.)) ]
        (Inputs.uniform_cube rng ~d:2 ~n:11 ~side:6.) 3L;
      case "D=3 ta=0 heavy tail" (mk 6 1 0 3 0.1)
        (Network.async_heavy_tail ~base:10) false []
        (Inputs.uniform_cube rng ~d:3 ~n:6 ~side:6.) 4L;
    ];

  (* Statistical widening: one adversarial case replayed over six engine
     seeds (Scenario.replicate), so the claim rests on a distribution of
     heavy-tail schedules rather than a single draw. *)
  print_newline ();
  print_endline
    "Seed-replicated sweep: \"heavy tail, 1 poison\" over 6 scheduling \
     seeds:";
  let rep_rng = Rng.create 246L in
  let rep_base =
    Scenario.make ~name:"heavy-tail-poison" ~cfg:(mk 8 2 1 2 0.05)
      ~policy:(Network.async_heavy_tail ~base:12) ~sync_network:false
      ~corruptions:[ (2, poison 2 300.) ]
      ~inputs:(Inputs.two_clusters rep_rng ~d:2 ~n:8 ~separation:10.)
      ()
  in
  let reps =
    Runner.run_batch ~domains
      (Scenario.replicate ~seeds:[ 1L; 2L; 3L; 4L; 5L; 6L ] rep_base)
  in
  let all_ok = List.for_all Runner.passed reps in
  let msgs, rounds = cost_stats reps in
  Table.print
    ~header:[ "seeds"; "all live/valid/agree"; "worst diam"; "msgs"; "rounds" ]
    [
      [
        string_of_int (List.length reps);
        yn all_ok;
        e3 (fmax_of (fun r -> r.Runner.diameter) reps);
        Printf.sprintf "%.0f +- %.0f" msgs.Stats.mean msgs.Stats.stddev;
        Printf.sprintf "%.1f +- %.1f" rounds.Stats.mean rounds.Stats.stddev;
      ];
    ];
  expect failures all_ok "replicated heavy-tail sweep had a failing seed"

(* ------------------------------------------------------------------ *)
(* E11: the resilience trade-off boundary                              *)
(* ------------------------------------------------------------------ *)

let e11 ~domains:_ failures =
  let rng = Rng.create 321L in
  let rows =
    List.concat_map
      (fun (d, ts, ta) ->
        let n_min = ((d + 1) * ts) + ta + 1 in
        let n_ok = max n_min ((3 * ts) + 1) in
        (* feasibility at the boundary *)
        let below = Config.make ~n:(n_ok - 1) ~ts ~ta ~d ~eps:0.1 ~delta:10 in
        let at = Config.make ~n:n_ok ~ts ~ta ~d ~eps:0.1 ~delta:10 in
        expect failures (Result.is_error below)
          (Printf.sprintf "D=%d ts=%d ta=%d: n-1 accepted" d ts ta);
        expect failures (Result.is_ok at)
          (Printf.sprintf "D=%d ts=%d ta=%d: minimal n rejected" d ts ta);
        match at with
        | Error _ -> []
        | Ok cfg ->
            (* run at minimal n with a full-budget adversary *)
            let inputs = Inputs.uniform_cube rng ~d ~n:n_ok ~side:5. in
            let corruptions =
              List.init ts (fun i ->
                  ( i * (n_ok / max 1 ts),
                    if i mod 2 = 0 then poison d 1000. else Behavior.Silent ))
            in
            let r =
              Runner.run
                (Scenario.make
                   ~name:(Printf.sprintf "min-n D=%d" d)
                   ~cfg ~inputs ~corruptions
                   ~policy:(Network.sync_uniform ~delta:10)
                   ())
            in
            let ok = Runner.passed r in
            expect failures ok
              (Printf.sprintf "D=%d ts=%d ta=%d: minimal-n run failed" d ts ta);
            [
              [
                string_of_int d;
                string_of_int ts;
                string_of_int ta;
                string_of_int n_ok;
                yn (Result.is_error below);
                yn ok;
              ];
            ])
      [
        (1, 1, 0); (1, 1, 1); (2, 1, 0); (2, 1, 1);
        (2, 2, 1); (2, 2, 2); (3, 1, 1); (3, 2, 0);
      ]
  in
  Table.print
    ~header:
      [ "D"; "ts"; "ta"; "minimal n"; "n-1 rejected"; "protocol ok at minimal n" ]
    rows;
  print_endline
    "\nBelow the bound the Theorem 3.1/3.2 scenarios force disagreement\n\
     (see E1/E2); at the minimal feasible n the protocol withstands a\n\
     full-budget adversary."

(* ------------------------------------------------------------------ *)
(* E12: comparison with the pure-sync and pure-async baselines          *)
(* ------------------------------------------------------------------ *)

let e12 ~domains failures =
  let n = 8 and d = 2 and eps = 0.05 in
  let ts = 2 and ta = 1 in
  (* ta = 1 = (n - 1) / (D + 2): the best a pure-async protocol can
     tolerate at n = 8, D = 2, so the async baseline trims at it *)
  let cfg = mk n ts ta d eps in
  let rng = Rng.create 777L in
  let inputs = Inputs.uniform_cube rng ~d ~n ~side:10. in
  let far = Vec.of_list [ 500.; -500. ] in
  let rounds = Baseline_runner.rounds_for ~eps ~inputs in
  (* the three protocols of one setting, in table order *)
  let setting ~policy ~sync_network ~corruptions =
    match
      Runner.run_batch ~domains
        (List.map
           (fun (name, protocol) ->
             Scenario.make ~name ~cfg ~inputs ~policy ~sync_network
               ~corruptions ~protocol ())
           [
             ("hybrid", Scenario.maaa);
             ("pure-sync", Scenario.Pure_sync { rounds });
             ("pure-async", Scenario.Pure_async { iters = rounds });
           ])
    with
    | [ hybrid; sync; async ] -> (hybrid, sync, async)
    | _ -> assert false
  in
  let table (hybrid, sync, async) =
    let row name (r : Runner.result) =
      (name :: grade_cols r)
      @ [ f3 r.completion_rounds; string_of_int r.stats.Engine.messages_sent ]
    in
    Table.print
      ~header:[ "protocol"; "live"; "valid"; "agree"; "diam"; "rounds"; "msgs" ]
      [
        row "hybrid (this work)" hybrid;
        row "pure-sync" sync;
        row "pure-async" async;
      ]
  in

  (* Setting A: synchronous network, f = ts = 2 poison corruptions. *)
  let ((hybrid_a, sync_a, async_a) as a) =
    setting ~policy:(Network.sync_uniform ~delta:10) ~sync_network:true
      ~corruptions:
        [ (1, Behavior.Honest_with_input far); (5, Behavior.Honest_with_input far) ]
  in
  Printf.printf
    "Setting A: synchronous, %d poison corruptions (= ts; async baseline only \
     tolerates t = %d)\n"
    ts ta;
  table a;
  expect failures (Runner.passed hybrid_a) "setting A: hybrid failed";
  expect failures (Runner.passed sync_a)
    "setting A: pure-sync should succeed in its home setting";
  expect failures
    (not (async_a.valid && async_a.agreement))
    "setting A: pure-async unexpectedly survived ts > t corruptions";

  (* Setting B: asynchronous network (starvation beyond Delta), f = ta = 1. *)
  print_newline ();
  let ((hybrid_b, sync_b, async_b) as b) =
    setting
      ~policy:(Network.async_starve ~victims:(fun i -> i = 0) ~release:2000 ~fast:4)
      ~sync_network:false ~corruptions:[ (5, Behavior.Silent) ]
  in
  print_endline
    "Setting B: asynchronous (one honest party starved past Delta), 1 \
     silent corruption (= ta)";
  table b;
  (* a starved round adopts nothing, so it leaves no history entry *)
  let starved =
    List.fold_left
      (fun acc (_, h) -> acc + rounds + 1 - List.length h)
      0 sync_b.Runner.histories
  in
  Printf.printf "pure-sync starved rounds: %d\n" starved;
  expect failures (Runner.passed hybrid_b) "setting B: hybrid failed";
  expect failures
    (starved > 0 && not sync_b.agreement)
    "setting B: pure-sync should lose agreement off-synchrony";
  expect failures (Runner.passed async_b)
    "setting B: pure-async should succeed in its home setting";
  print_endline
    "\nShape: only the hybrid protocol survives both settings. It sends about\n\
     as many messages as the pure-sync baseline and far fewer than the\n\
     pure-async one, which runs all of its fixed reliable-broadcast\n\
     iterations; the pure-sync baseline collapses off-synchrony."

(* ------------------------------------------------------------------ *)
(* E13: scaling of the iteration estimate T with eps                   *)
(* ------------------------------------------------------------------ *)

let e13 ~domains failures =
  (* One poisoned party keeps delta_max(I_e) large and fixed while eps
     sweeps over four decades; the estimate T (Theorem 5.18) must grow by
     ln 10 / ln sqrt(8/7) = 34.5 per decade of precision. *)
  let rng = Rng.create 5150L in
  (* Party 7 is corrupt: it holds a far value and joins 5 ticks late over a
     network whose upper half is Delta-slow. Its value's reliable broadcast
     then completes before the lower half's report deadline but after the
     upper half's — a deterministic report split that keeps
     delta_max(I_e) fixed and positive while eps sweeps. *)
  let inputs =
    List.mapi
      (fun i v -> if i = 7 then Vec.of_list [ 300.; -300. ] else v)
      (Inputs.uniform_cube rng ~d:2 ~n:8 ~side:10.)
  in
  let results =
    run_passing ~domains failures (Printf.sprintf "eps=%g run failed")
      (List.map
         (fun eps ->
           ( eps,
             Scenario.make ~name:"e13" ~seed:7L ~cfg:(mk 8 2 1 2 eps) ~inputs
               ~policy:(Network.targeted_slow ~delta:10 ~victims:(fun i -> i >= 4))
               ~corruptions:[ (7, Behavior.Lagger 5) ]
               () ))
         [ 1e-1; 1e-2; 1e-3; 1e-4 ])
  in
  let t_maxes = List.map (fun (_, r) -> max_of snd r.Runner.t_estimates) results in
  (* T's growth from each eps point to the next *)
  let rec growth = function
    | t0 :: (t1 :: _ as rest) when t0 > 0 -> (t1 - t0) :: growth rest
    | _ :: rest -> growth rest
    | [] -> []
  in
  let deltas = growth t_maxes in
  Table.print
    ~header:[ "eps"; "max T"; "output iteration"; "rounds"; "msgs"; "ok" ]
    (List.map2
       (fun (eps, r) t_max ->
         [
           Printf.sprintf "%g" eps;
           string_of_int t_max;
           string_of_int (max_of snd r.Runner.output_iters);
           f3 r.Runner.completion_rounds;
           string_of_int r.Runner.stats.Engine.messages_sent;
           yn (Runner.passed r);
         ])
       results t_maxes);
  let slope_ok = List.for_all (fun d -> d >= 33 && d <= 36) deltas in
  Printf.printf
    "
T grows by %s per decade of eps; theory predicts ln 10 / ln sqrt(8/7)      = 34.5.
"
    (String.concat ", " (List.map string_of_int deltas));
  expect failures slope_ok "T growth per decade off the predicted 34.5"

(* ------------------------------------------------------------------ *)
(* E14: message-complexity breakdown per primitive                     *)
(* ------------------------------------------------------------------ *)

let e14 ~domains:_ failures =
  (* All-honest lockstep reference run: every count is exactly predictable.
     One Bracha instance with an honest sender costs n (init) + n^2 (echo)
     + n^2 (ready) sends; Pi_init runs 2n instances (values + reports);
     each iteration runs n instances plus n best-effort report broadcasts;
     every party halts at T, adding n more instances; witness sets are one
     broadcast per party. *)
  let n = 8 and d = 2 in
  let cfg = mk n 2 1 d 0.05 in
  let inputs =
    List.init n (fun i ->
        Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))
  in
  let r =
    Runner.run
      (Scenario.make ~name:"e14" ~cfg ~inputs
         ~policy:(Network.lockstep ~delta:10) ())
  in
  expect failures (Runner.passed r) "reference run failed";
  let per_instance = n + (2 * n * n) in
  (* every party executes iterations 1 .. it_h + 1 in this run *)
  let iterations = 1 + max_of snd r.Runner.output_iters in
  (* I = total Bracha instances this run: 2n (Pi_init values + reports),
     n per iteration, n halts. The step rows re-group the same I *
     (n + 2n^2) sends by Bracha phase: every instance broadcasts one init
     wave (n sends) and full echo/ready waves (n^2 each). *)
  let instances = (2 * n) + (iterations * n) + n in
  let expected =
    [
      ("Pi_init rBC", 2 * n * per_instance);
      ("iteration rBC", iterations * n * per_instance);
      ("halt rBC", n * per_instance);
      (* only the first iteration's report phase completes: in the final
         iteration parties output on halt messages (delivered ~3 rounds
         after the halt broadcast) before the report deadline fires *)
      ("oBC reports", (iterations - 1) * n * n);
      ("witness sets", n * n);
      ("baseline", 0);
      ("junk", 0);
      (* reference (unbatched) run: no combined packets, no EW traffic *)
      ("batched rBC", 0);
      ("EW direct", 0);
      ("rBC step: init", instances * n);
      ("rBC step: echo", instances * n * n);
      ("rBC step: ready", instances * n * n);
    ]
  in
  let rows =
    List.map
      (fun (name, msgs, bytes) ->
        let exp = List.assoc name expected in
        let ok = msgs = exp in
        expect failures ok (Printf.sprintf "%s: measured %d, predicted %d" name msgs exp);
        [
          name;
          string_of_int msgs;
          string_of_int exp;
          string_of_int bytes;
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int msgs
            /. float_of_int r.Runner.stats.Engine.messages_sent);
          yn ok;
        ])
      r.Runner.traffic
  in
  Table.print
    ~header:[ "class"; "messages"; "predicted"; "bytes"; "share"; "exact" ]
    rows;
  Printf.printf
    "\nTotal %d messages over %d iterations; one Bracha instance costs\n\
     n + 2n^2 = %d sends, and reliable broadcast accounts for ~%.0f%%\n\
     of all traffic — the price of hybrid robustness (compare E12).\n"
    r.Runner.stats.Engine.messages_sent iterations per_instance
    (100.
    *. float_of_int
         (List.fold_left
            (fun acc (name, m, _) ->
              if
                List.mem name [ "Pi_init rBC"; "iteration rBC"; "halt rBC" ]
              then acc + m
              else acc)
            0 r.Runner.traffic)
    /. float_of_int r.Runner.stats.Engine.messages_sent)

(* ------------------------------------------------------------------ *)
(* E15: scalability sweep                                              *)
(* ------------------------------------------------------------------ *)

let e15 ~domains failures =
  let msgs (r : Runner.result) = r.stats.Engine.messages_sent in
  (* Sweep n at D = 2 with a proportional adversary, random synchronous
     delays, several seeds per point; the E14 cost model says message
     count grows as Theta(n^3) (n Bracha instances of Theta(n^2) per
     phase). *)
  print_endline "Sweep over n (D = 2, ts = floor((n-1)/4), 4 seeds each):";
  let sweep_n =
    List.map
      (fun n ->
        let ts = max 1 ((n - 1) / 4) in
        let ta = min 1 (max 0 (min ts (n - 1 - (3 * ts)))) in
        let cfg = mk n ts ta 2 0.05 in
        let runs =
          run_passing ~domains failures
            (fun seed -> Printf.sprintf "n=%d seed=%d failed" n seed)
            (List.map
               (fun seed ->
                 let rng = Rng.create (Int64.of_int (seed * 31)) in
                 let inputs = Inputs.uniform_cube rng ~d:2 ~n ~side:8. in
                 let corruptions =
                   [ (1, Behavior.Honest_with_input (Vec.of_list [ 1e3; -1e3 ])) ]
                 in
                 ( seed,
                   Scenario.make ~name:"e15" ~seed:(Int64.of_int seed) ~cfg
                     ~inputs ~corruptions
                     ~policy:(Network.sync_uniform ~delta:10)
                     () ))
               [ 1; 2; 3 ])
        in
        let m, rounds = cost_stats (List.map snd runs) in
        let norm = m.Stats.mean /. float_of_int (2 * n * n * n) in
        ( norm,
          [
            string_of_int n;
            string_of_int ts;
            Printf.sprintf "%.0f +- %.0f" m.Stats.mean m.Stats.stddev;
            Printf.sprintf "%.1f" rounds.Stats.mean;
            Printf.sprintf "%.2f" norm;
          ] ))
      [ 4; 6; 8; 10; 12 ]
  in
  Table.print
    ~header:[ "n"; "ts"; "messages"; "rounds"; "msgs / 2n^3" ]
    (List.map snd sweep_n);
  (* the normalized column must be roughly flat: check the ratio between
     its extreme values stays within a factor of 4 (phases per run vary
     with the iteration count, not with n) *)
  let norms = List.map fst sweep_n in
  let lo = List.fold_left Float.min infinity norms
  and hi = List.fold_left Float.max 0. norms in
  expect failures (hi /. lo < 4.) "message growth deviates from Theta(n^3)";
  Printf.printf
    "\nmsgs / 2n^3 stays within [%.2f, %.2f]: message complexity tracks\n\
     Theta(n^3) per run, as the E14 per-instance model predicts.\n" lo hi;

  (* Sweep D at fixed n: the protocol cost is dimension-independent on the
     wire (vectors only grow linearly); what grows is the local safe-area
     computation, benchmarked in B1. *)
  print_newline ();
  print_endline "Sweep over D (n = 10, ts = 2, ta = 1, lockstep, honest):";
  run_passing ~domains failures (Printf.sprintf "D=%d failed")
    (List.map
       (fun d ->
         let rng = Rng.create 17L in
         let inputs = Inputs.uniform_cube rng ~d ~n:10 ~side:5. in
         ( d,
           Scenario.make ~name:"e15d" ~cfg:(mk 10 2 1 d 0.05) ~inputs
             ~policy:(Network.lockstep ~delta:10) () ))
       [ 1; 2; 3 ])
  |> List.map (fun (d, r) ->
         [
           string_of_int d;
           string_of_int (msgs r);
           string_of_int r.Runner.stats.Engine.bytes_sent;
           f3 r.Runner.completion_rounds;
         ])
  |> Table.print ~header:[ "D"; "messages"; "bytes"; "rounds" ];

  (* Batched message layer: same protocol, same votes, fewer packets.
     Under lockstep every rBC echo/ready wave a party emits in a tick
     collapses into one combined packet per receiver, so the per-iteration
     packet count drops from Theta(n^3) to Theta(n^2). Outputs are
     byte-identical (test_batch's differential grid); here we measure the
     packet reduction itself. *)
  print_newline ();
  print_endline "Batched layer vs unbatched (D = 2, ts = 2, ta = 1, lockstep):";
  let batched_ns = [ 8; 12 ] in
  let scen_layer layer n =
    let rng = Rng.create (Int64.of_int (n * 977)) in
    let inputs = Inputs.uniform_cube rng ~d:2 ~n ~side:6. in
    ( n,
      Scenario.make
        ~name:(Printf.sprintf "e15b-%d" n)
        ~cfg:(mk n 2 1 2 0.05) ~inputs
        ~protocol:(Scenario.Maaa { Party.default_opts with layer })
        ~policy:(Network.lockstep ~delta:10) () )
  in
  let unb_runs =
    Runner.run_batch ~domains
      (List.map (fun n -> snd (scen_layer Party.Interned n)) batched_ns)
  in
  let bat_runs =
    run_passing ~domains failures (Printf.sprintf "batched n=%d failed")
      (List.map (scen_layer Party.Batched) batched_ns)
  in
  let pkts =
    List.map2 (fun r_unb (n, r_bat) -> (n, (msgs r_unb, msgs r_bat))) unb_runs bat_runs
  in
  let reduction (m_unb, m_bat) = float_of_int m_unb /. float_of_int m_bat in
  Table.print
    ~header:[ "n"; "unbatched pkts"; "batched pkts"; "reduction" ]
    (List.map
       (fun (n, ((m_unb, m_bat) as p)) ->
         [
           string_of_int n;
           string_of_int m_unb;
           string_of_int m_bat;
           Printf.sprintf "%.2fx" (reduction p);
         ])
       pkts);
  let red12 = reduction (List.assoc 12 pkts) in
  expect failures (red12 >= 3.)
    (Printf.sprintf "batched reduction at n=12 is %.2fx < 3x" red12);
  Printf.printf
    "\nPacket reduction grows with n (combined packets amortize one header\n\
     over ~n votes); at n = 12 batching already saves %.1fx.\n" red12;

  (* EW quadratic-communication protocol: no rBC at all. Under lockstep
     one iteration is exactly (3 + t)·n^2 direct sends — a value wave, a
     claim wave at n − t values, t delta waves for the late values and a
     report wave — Theta(n^2) total where the Bracha-based stack pays
     Theta(n^3). *)
  print_newline ();
  print_endline "EW quadratic protocol (D = 2, ta = 1, lockstep, honest):";
  let ew_runs =
    run_passing ~domains failures (Printf.sprintf "EW n=%d failed")
      (List.map
         (fun n ->
           let rng = Rng.create (Int64.of_int (n * 131)) in
           let inputs = Inputs.uniform_cube rng ~d:2 ~n ~side:6. in
           ( n,
             Scenario.make
               ~name:(Printf.sprintf "e15ew-%d" n)
               ~cfg:(mk n 2 1 2 0.05) ~inputs ~protocol:Scenario.Ew
               ~policy:(Network.lockstep ~delta:10) () ))
         [ 8; 16; 32 ])
  in
  Table.print ~header:[ "n"; "messages"; "msgs / n^2"; "rounds" ]
    (List.map
       (fun (n, r) ->
         [
           string_of_int n;
           string_of_int (msgs r);
           Printf.sprintf "%.2f" (float_of_int (msgs r) /. float_of_int (n * n));
           f3 r.Runner.completion_rounds;
         ])
       ew_runs);
  let ew_msgs n = float_of_int (msgs (List.assoc n ew_runs)) in
  let exponent = log (ew_msgs 32 /. ew_msgs 8) /. log 4. in
  expect failures
    (exponent > 1.6 && exponent < 2.4)
    (Printf.sprintf "EW message exponent %.2f outside [1.6, 2.4]" exponent);
  Printf.printf
    "\nFitted message exponent n=8 -> n=32: %.2f — quadratic, as the\n\
     direct-broadcast structure (value, claim, delta and report waves:\n\
     4n^2 sends per iteration at ta = 1) dictates.\n"
    exponent

(* ------------------------------------------------------------------ *)
(* E16: what the Pi_init estimation round buys                         *)
(* ------------------------------------------------------------------ *)

let e16 ~domains failures =
  let cfg = mk 8 2 1 2 0.05 in
  let rng = Rng.create 777L in
  let inputs = Inputs.two_clusters rng ~d:2 ~n:8 ~separation:10. in
  let t_true = Baseline_runner.rounds_for ~eps:cfg.Config.eps ~inputs in

  (* Part 1 — cost, synchronous lockstep, honest: skipping Pi_init saves
     its 8 rounds and its reliable-broadcast traffic. *)
  let r_paper =
    Runner.run
      (Scenario.make ~name:"e16" ~cfg ~inputs
         ~policy:(Network.lockstep ~delta:10) ())
  in
  (* the known-bounds variant of [20, 29]: ΠAA in the Fixed_t mode *)
  let fixed ~tt ~policy ~seed =
    Scenario.make ~name:"e16-fixed" ~seed ~cfg ~inputs ~policy
      ~protocol:(Scenario.Maaa { Party.default_opts with mode = Party.Fixed_t tt })
      ()
  in
  let r_fixed =
    Runner.run (fixed ~tt:t_true ~policy:(Network.lockstep ~delta:10) ~seed:1L)
  in
  let ok_fixed =
    r_fixed.Runner.live && r_fixed.Runner.diameter <= cfg.Config.eps
  in
  print_endline "Cost under synchrony (honest, lockstep):";
  Table.print
    ~header:[ "variant"; "prior knowledge"; "agree"; "rounds"; "msgs" ]
    [
      [
        "Pi_init estimation (paper)"; "none";
        yn r_paper.Runner.agreement;
        f3 r_paper.Runner.completion_rounds;
        string_of_int r_paper.Runner.stats.Engine.messages_sent;
      ];
      [
        Printf.sprintf "Fixed T = %d (known bounds)" t_true;
        "input diameter";
        yn ok_fixed;
        f3 r_fixed.Runner.completion_rounds;
        string_of_int r_fixed.Runner.stats.Engine.messages_sent;
      ];
    ];
  expect failures r_paper.Runner.agreement "paper variant failed";
  expect failures ok_fixed "fixed-T variant failed";

  (* Part 2 — safety: a mis-estimated bound (T = 1, i.e. the inputs were
     assumed nearly agreed already) breaks agreement under asynchrony,
     while the estimating protocol cannot be mis-configured. *)
  print_newline ();
  print_endline
    "Safety under asynchrony (heavy-tail scheduling, 3 seeds; worst output
     diameter):";
  let seeds = [ 2L; 3L; 4L ] in
  let worst_fixed1 =
    Runner.run_batch ~domains
      (List.map
         (fun seed -> fixed ~tt:1 ~policy:(Network.async_heavy_tail ~base:60) ~seed)
         seeds)
    |> fmax_of (fun r -> r.Runner.diameter)
  in
  let worst_paper =
    run_passing ~domains failures
      (fun _ -> "paper variant failed under heavy tail")
      (List.map
         (fun seed ->
           ( seed,
             Scenario.make ~name:"e16a" ~seed ~cfg ~inputs ~sync_network:false
               ~policy:(Network.async_heavy_tail ~base:60) () ))
         seeds)
    |> fmax_of (fun (_, r) -> r.Runner.diameter)
  in
  Table.print
    ~header:[ "variant"; "worst diameter"; "eps"; "agreement" ]
    [
      [ "Pi_init estimation (paper)"; e3 worst_paper; "0.05";
        yn (worst_paper <= cfg.Config.eps) ];
      [ "Fixed T = 1 (wrong bound)"; e3 worst_fixed1; "0.05";
        yn (worst_fixed1 <= cfg.Config.eps) ];
    ];
  expect failures
    (worst_fixed1 > cfg.Config.eps)
    "mis-configured fixed-T variant unexpectedly survived";
  print_endline
    "\nPi_init wins on both axes. Safety: it removes the a-priori-bounds\n\
     assumption entirely, while a wrong bound makes the fixed-T variant\n\
     halt too early and violate eps-agreement. Cost: its estimations adapt\n\
     to the actual spread after one information exchange, so runs finish in\n\
     a handful of iterations, whereas a fixed T must be provisioned for the\n\
     worst case and then dutifully burns all of it."

(* ------------------------------------------------------------------ *)

(* id, report title, experiment *)
let all =
  [
    ("e1", "E1  Figure 1 / Theorem 3.1: no sync D-AA at n = (D+1)*ts (D=2, ts=1)", e1);
    ("e2", "E2  Theorem 3.2: no async D-AA at n = (D+2)*ta (D=2, ta=1)", e2);
    ("e3", "E3  Figure 2: safe area of four points, t = 1", e3_run);
    ("e4", "E4  Theorem 4.2: Bracha rBC with c_rBC = 3, c'_rBC = 2", e4);
    ("e5", "E5  Theorem 4.4: Overlap All-to-All Broadcast (c_oBC = 5)", e5);
    ("e6", "E6  Lemmas 5.5-5.8: randomized safe-area invariants", e6);
    ("e7", "E7  Lemma 5.15: per-iteration contraction <= sqrt(7/8) = 0.9354", e7);
    ("e8", "E8  Theorem 5.18: Pi_init outputs (T, v0)", e8);
    ("e9", "E9  Theorem 5.19 (synchronous, ts corruptions)", e9);
    ("e10", "E10  Theorem 5.19 (asynchronous, ta corruptions)", e10);
    ("e11", "E11  Resilience boundary: (D+1)*ts + ta < n is tight", e11);
    ("e12", "E12  Hybrid vs pure-synchronous vs pure-asynchronous", e12);
    ("e13", "E13  Iteration estimate: T scales as log_{sqrt(7/8)}(eps / diam)", e13);
    ("e14", "E14  Message complexity: where the O(n^2)s go", e14);
    ("e15", "E15  Scalability: cost vs n and vs D", e15);
    ("e16", "E16  Ablation: Pi_init vs the known-input-bounds variant", e16);
  ]

(* Prints the report frame around one experiment and returns whether every
   claim held. *)
let run title experiment ~domains =
  Printf.printf "\n=== %s ===\n\n" title;
  let failures = ref [] in
  experiment ~domains failures;
  match List.rev !failures with
  | [] ->
      print_endline "\nRESULT: PASS";
      true
  | fs ->
      Printf.printf "\nRESULT: FAIL (%d checks)\n" (List.length fs);
      List.iter (Printf.printf "  - %s\n") fs;
      false

let find_opt id =
  List.find_opt (fun (i, _, _) -> i = id) all
  |> Option.map (fun (_, title, experiment) -> run title experiment)

let run_all ~domains =
  let results =
    List.map (fun (id, title, experiment) -> (id, run title experiment ~domains)) all
  in
  print_newline ();
  print_endline "=== SUMMARY ===";
  List.iter
    (fun (id, ok) -> Printf.printf "  %-4s %s\n" id (if ok then "PASS" else "FAIL"))
    results;
  List.for_all snd results
