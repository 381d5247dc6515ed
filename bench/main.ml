(* Benchmark harness (bechamel): the cost model behind the experiments.

   B1  safe-area computation per dimension/representation
   B2  exact polygon path vs implicit LP path on the same 2-D instance
   B3  LP building blocks (simplex feasibility, hull membership)
   B4  2-D convex hull
   B5  implicit diameter search (D = 3): seed one-shot path vs the
       warm-started Lp.Problem workspace
   B6  full protocol runs (one ΠAA execution through Runner.run, end to
       end and graded, per config)
   B7  one reliable-broadcast instance, end to end
   B8  restrict_t(M) subset enumeration: seed recursive lists vs the
       index-array kernel
   B9  repeated LP objectives over one constraint system: one-shot solve
       vs workspace replay vs fully warm starts
   B10 sweep throughput: one 8-seed replicated scenario batch, sequential
       vs Runner.run_batch on a 2- and 4-domain pool (runs/sec; results
       bit-identical by construction)
   B11 message layer in isolation: intern hit/miss cost, rBC vote
       accounting and instance lookup, interned vs the seed
       Rbc.Reference
   B12 deterministic message-count sweeps (not timed — exact counts):
       unbatched vs batched message layer, and the EW quadratic
       protocol, out to n = 128

   Run with:  dune exec bench/main.exe
   Options:   --json FILE   also write machine-readable results (the
                            perf-trajectory file BENCH_lp.json)
              --quota SEC   per-benchmark time quota (default 0.5)
              --smoke       tiny quota, for CI smoke runs *)

open Bechamel
open Toolkit

let rng = Rng.create 9000L

let random_points ~d ~n ~scale =
  List.init n (fun _ ->
      Vec.of_list (List.init d (fun _ -> Rng.float_range rng (-.scale) scale)))

(* Fixed inputs per bench so that every run does identical work. *)

let pts_1d_10 = random_points ~d:1 ~n:10 ~scale:10.
let pts_2d_8 = random_points ~d:2 ~n:8 ~scale:10.
let pts_2d_12 = random_points ~d:2 ~n:12 ~scale:10.
let pts_3d_9 = random_points ~d:3 ~n:9 ~scale:10.
let pts_2d_100 = random_points ~d:2 ~n:100 ~scale:10.
let pts_4d_8 = random_points ~d:4 ~n:8 ~scale:10.

let b1_safe_area =
  Test.make_grouped ~name:"B1 safe-area"
    [
      Test.make ~name:"D=1 n=10 t=3"
        (Staged.stage (fun () -> ignore (Safe_area.new_value ~t:3 pts_1d_10)));
      Test.make ~name:"D=2 n=8 t=2"
        (Staged.stage (fun () -> ignore (Safe_area.new_value ~t:2 pts_2d_8)));
      Test.make ~name:"D=2 n=12 t=3"
        (Staged.stage (fun () -> ignore (Safe_area.new_value ~t:3 pts_2d_12)));
      Test.make ~name:"D=3 n=9 t=2 (exact hull3d)"
        (Staged.stage (fun () -> ignore (Safe_area.new_value ~t:2 pts_3d_9)));
    ]

let b2_representations =
  let subsets = Restrict.subsets ~t:2 pts_2d_8 in
  Test.make_grouped ~name:"B2 2-D representation"
    [
      Test.make ~name:"exact polygon clipping"
        (Staged.stage (fun () -> ignore (Safe_area.compute ~t:2 pts_2d_8)));
      Test.make ~name:"implicit LP (same instance)"
        (Staged.stage (fun () ->
             let hs = Hullset.make subsets in
             ignore (Hullset.diameter_pair hs)));
    ]

(* B2D: the D >= 3 diameter-query sweep this PR targets. At D=3 the
   pre-PR hot path (implicit LP diameter search over a freshly built
   hullset — no support cache survives across multisets) races the exact
   Hull3d arm that now backs Safe_area. At D=4/5 — where the LP stays the
   only kernel — the seed one-shot Reference search races the memoised
   workspace path whose repeat queries land in the support cache. *)
let b2d_subs_3 = Restrict.subsets_arr ~t:2 (Array.of_list pts_3d_9)
let pts_4d_7 = random_points ~d:4 ~n:7 ~scale:10.
let pts_5d_7 = random_points ~d:5 ~n:7 ~scale:10.
let b2d_subs_4 = Restrict.subsets_arr ~t:1 (Array.of_list pts_4d_7)
let b2d_subs_5 = Restrict.subsets_arr ~t:1 (Array.of_list pts_5d_7)
let b2d_hs4_ref = Hullset.of_arrays b2d_subs_4
let b2d_hs4_warm = Hullset.of_arrays b2d_subs_4
let b2d_hs5_ref = Hullset.of_arrays b2d_subs_5
let b2d_hs5_warm = Hullset.of_arrays b2d_subs_5

let b2d_sweep =
  Test.make_grouped ~name:"B2D safe-area diameter sweep"
    [
      Test.make ~name:"D=3 implicit LP (fresh hullset)"
        (Staged.stage (fun () ->
             let hs = Hullset.of_arrays b2d_subs_3 in
             ignore (Hullset.diameter_pair hs)));
      Test.make ~name:"D=3 exact hull3d"
        (Staged.stage (fun () ->
             match Hull3d.inter_hulls b2d_subs_3 with
             | `Poly p -> ignore (Hull3d.diameter_pair p)
             | `Empty | `Degenerate -> assert false));
      Test.make ~name:"D=4 seed one-shot reference"
        (Staged.stage (fun () ->
             ignore (Hullset.Reference.diameter_pair b2d_hs4_ref)));
      Test.make ~name:"D=4 support-cached workspace"
        (Staged.stage (fun () -> ignore (Hullset.diameter_pair b2d_hs4_warm)));
      Test.make ~name:"D=5 seed one-shot reference"
        (Staged.stage (fun () ->
             ignore (Hullset.Reference.diameter_pair b2d_hs5_ref)));
      Test.make ~name:"D=5 support-cached workspace"
        (Staged.stage (fun () -> ignore (Hullset.diameter_pair b2d_hs5_warm)));
    ]

let b3_lp =
  let p = Vec.of_list [ 1.; 1.; 1.; 1. ] in
  Test.make_grouped ~name:"B3 LP kernel"
    [
      Test.make ~name:"feasibility (20 vars)"
        (Staged.stage (fun () ->
             let cs =
               List.init 10 (fun i ->
                   {
                     Lp.coeffs =
                       List.init 20 (fun j ->
                           (j, float_of_int ((i + j) mod 5) +. 1.));
                     cmp = Lp.Ge;
                     rhs = 10.;
                   })
             in
             ignore (Lp.feasible_point ~nvars:20 cs)));
      Test.make ~name:"hull membership D=4 n=8"
        (Staged.stage (fun () -> ignore (Membership.in_hull pts_4d_8 p)));
    ]

let b4_hull =
  Test.make ~name:"B4 convex hull 2-D (100 pts)"
    (Staged.stage (fun () -> ignore (Polygon.of_points pts_2d_100)))

(* B5: the hot path this PR targets. The seed line rebuilds the constraint
   system and redoes phase 1 for each of the ~2·(D+24) support queries of
   one diameter search (the pre-workspace behaviour, kept alive as
   Hullset.Reference); the warm lines share one Lp.Problem. *)
let b5_subsets_3d = Restrict.subsets_arr ~t:2 (Array.of_list pts_3d_9)
let b5_hs_seed = Hullset.of_arrays b5_subsets_3d
let b5_hs_warm = Hullset.of_arrays b5_subsets_3d

let b5_diameter =
  Test.make_grouped ~name:"B5 implicit diameter D=3"
    [
      Test.make ~name:"seed one-shot (rebuild per query)"
        (Staged.stage (fun () ->
             ignore (Hullset.Reference.diameter_pair b5_hs_seed)));
      (* Support memoisation turned this row into a cache-hit measurement
         (~25 us/query): x256 lifts it to the several-millisecond regime
         where OLS fits clear ci.sh's r^2 gate on a noisy host; the b5
         derived key divides the 256 back out so it stays a per-query
         speedup. *)
      Test.make ~name:"warm workspace (cached) x256"
        (Staged.stage (fun () ->
             for _ = 1 to 256 do
               ignore (Hullset.diameter_pair b5_hs_warm)
             done));
      Test.make ~name:"warm workspace (fresh hullset)"
        (Staged.stage (fun () ->
             let hs = Hullset.of_arrays b5_subsets_3d in
             ignore (Hullset.diameter_pair hs)));
    ]

let protocol_run ~n ~ts ~ta ~d ~seed () =
  let cfg = Config.make_exn ~n ~ts ~ta ~d ~eps:0.05 ~delta:10 in
  let inputs =
    List.init n (fun i ->
        Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))
  in
  let scenario =
    Scenario.make ~seed ~policy:(Network.lockstep ~delta:10) ~cfg ~inputs ()
  in
  fun () -> assert (Runner.run scenario).Runner.live

let b6_protocol =
  Test.make_grouped ~name:"B6 full protocol run"
    [
      Test.make ~name:"n=5 D=1 ts=1"
        (Staged.stage (protocol_run ~n:5 ~ts:1 ~ta:0 ~d:1 ~seed:1L ()));
      Test.make ~name:"n=8 D=2 ts=2"
        (Staged.stage (protocol_run ~n:8 ~ts:2 ~ta:1 ~d:2 ~seed:1L ()));
      Test.make ~name:"n=12 D=2 ts=3"
        (Staged.stage (protocol_run ~n:12 ~ts:3 ~ta:1 ~d:2 ~seed:1L ()));
    ]

let b7_run () =
  let obs =
    Fixtures.run_rbc ~n:7 ~t:2 ~policy:(Network.lockstep ~delta:10)
      ~honest:[ 0; 1; 2; 3; 4; 5; 6 ]
      ~sender:(`Honest (0, Message.Pvec (Vec.of_list [ 1.; 2. ])))
      ()
  in
  assert (List.length obs.Fixtures.rbc_deliveries = 7)

let b7_rbc =
  (* x16: one instance is 15-30 us, too close to the noise floor for a
     stable OLS fit (cf. the B11 comment). *)
  Test.make_grouped ~name:"B7 one rBC instance n=7"
    [
      Test.make ~name:"interned x16"
        (Staged.stage (fun () ->
             for _ = 1 to 16 do
               b7_run ()
             done));
    ]

(* The pre-PR recursive enumeration, kept here verbatim as the baseline. *)
let subsets_seed ~t l =
  let m = List.length l in
  let keep = m - t in
  let rec go k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest ->
          let with_x = List.map (fun s -> x :: s) (go (k - 1) rest) in
          let without_x = if List.length rest >= k then go k rest else [] in
          with_x @ without_x
  in
  go keep l

let b8_subsets =
  let l12 = List.init 12 (fun i -> i) in
  let a12 = Array.of_list l12 in
  let l16 = List.init 16 (fun i -> i) in
  let a16 = Array.of_list l16 in
  Test.make_grouped ~name:"B8 subset enumeration"
    [
      (* x32 on both m=12 rows: the bare runs are 10-30 us, too close to
         the clock's noise floor for stable r^2 (cf. the B11 comment);
         the derived key is their ratio, so the scaling cancels. *)
      Test.make ~name:"seed recursive lists m=12 t=3 x32"
        (Staged.stage (fun () ->
             for _ = 1 to 32 do
               ignore (subsets_seed ~t:3 l12)
             done));
      Test.make ~name:"index-array kernel m=12 t=3 x32"
        (Staged.stage (fun () ->
             for _ = 1 to 32 do
               ignore (Restrict.subsets_arr ~t:3 a12)
             done));
      Test.make ~name:"seed recursive lists m=16 t=4"
        (Staged.stage (fun () -> ignore (subsets_seed ~t:4 l16)));
      Test.make ~name:"index-array kernel m=16 t=4"
        (Staged.stage (fun () -> ignore (Restrict.subsets_arr ~t:4 a16)));
    ]

(* B9: the Lp.Problem layer in isolation — one fixed polytope (a box with
   random cuts), 16 objectives asked in sequence. The workspace lines
   include Problem.make (tableau + phase 1) in the measurement, since that
   is paid once per constraint system in the protocol too. *)
let b9_nvars = 40

let b9_constraints =
  List.init b9_nvars (fun j ->
      { Lp.coeffs = [ (j, 1.) ]; cmp = Lp.Le; rhs = 1. })
  @ List.init 12 (fun i ->
        {
          Lp.coeffs =
            List.init b9_nvars (fun j ->
                (j, 0.2 +. float_of_int ((3 + (5 * i) + (7 * j)) mod 11)));
          cmp = Lp.Ge;
          rhs = 4. +. float_of_int i;
        })

let b9_objectives =
  List.init 16 (fun i ->
      List.init b9_nvars (fun j ->
          (j, Float.sin (float_of_int (((i + 1) * (j + 3)) mod 29)))))

let b9_problem =
  let one_shot () =
    List.iter
      (fun objective ->
        ignore
          (Lp.solve ~nvars:b9_nvars ~minimize:false ~objective b9_constraints))
      b9_objectives
  in
  let workspace ~warm () =
    let p = Lp.Problem.make ~nvars:b9_nvars b9_constraints in
    List.iter
      (fun objective ->
        ignore (Lp.Problem.solve_objective ~warm p ~minimize:false ~objective))
      b9_objectives
  in
  Test.make_grouped ~name:"B9 16 objectives, one system"
    [
      Test.make ~name:"one-shot Lp.solve each" (Staged.stage one_shot);
      Test.make ~name:"workspace replay (warm:false)"
        (Staged.stage (workspace ~warm:false));
      Test.make ~name:"workspace warm start (warm:true)"
        (Staged.stage (workspace ~warm:true));
    ]

(* B10: sweep throughput — one scenario replicated over 8 engine seeds
   (Scenario.replicate), run sequentially vs on a 2- and 4-domain pool.
   Results are bit-identical for every line (test_pool.ml locks that in);
   this measures runs/sec only. Pool creation + join is inside the
   measurement, as Runner.run_batch pays it per batch. *)
let b10_scenarios =
  let cfg = Config.make_exn ~n:6 ~ts:1 ~ta:0 ~d:2 ~eps:0.05 ~delta:10 in
  let inputs =
    List.init 6 (fun i ->
        Vec.of_list [ float_of_int (i mod 3); float_of_int (i mod 4) ])
  in
  let base =
    Scenario.make ~name:"b10" ~cfg ~inputs
      ~policy:(Network.sync_uniform ~delta:10) ()
  in
  Scenario.replicate ~seeds:(List.init 8 (fun i -> Int64.of_int (i + 1))) base

let host_domains = Domain.recommended_domain_count ()

(* Host-parallelism calibration for the 2-domain gates: a pure integer
   loop run twice in sequence, over the same loop run once on each of two
   domains. Two truly parallel cores give ~2.0; two domains sharing one
   core give ~1.0. ci.sh arms the B10 2-domain gates only when the median
   ratio reaches 1.6; half the samples are taken before the benchmark and
   half after, so a host whose parallelism comes and goes shows it. *)
let spin () =
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 31) lxor i
  done;
  ignore (Sys.opaque_identity !x)

let parallel_ratio () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let seq = time (fun () -> spin (); spin ()) in
  let par =
    time (fun () ->
        let d = Domain.spawn spin in
        spin ();
        Domain.join d)
  in
  seq /. par

let calibrate samples = List.init samples (fun _ -> parallel_ratio ())

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  (a.((k - 1) / 2) +. a.(k / 2)) /. 2.

let b10_sweep =
  let batch ~domains () =
    ignore (Runner.run_batch ~domains b10_scenarios)
  in
  (* On a single-core host the pool lines measure oversubscription noise,
     not parallel speedup: skip them (their derived keys become null, and
     the JSON header records the core count that explains why). *)
  Test.make_grouped ~name:"B10 sweep throughput (8 runs)"
    (Test.make ~name:"sequential (domains=1)" (Staged.stage (batch ~domains:1))
     ::
     (if host_domains >= 2 then
        [
          Test.make ~name:"pool domains=2" (Staged.stage (batch ~domains:2));
          Test.make ~name:"pool domains=4" (Staged.stage (batch ~domains:4));
        ]
      else []))

(* B11: the message layer in isolation — intern table hit/miss cost, and
   the rBC vote accounting fed a scripted message storm directly (no
   engine), interned flat tables vs the seed PayloadMap/IntSet path. *)
let b11_hit_payload = Message.Pvec (Vec.of_list [ 3.25; 2.5; 1.75 ])

let b11_miss_payloads =
  Array.init 64 (fun i ->
      Message.Pvec (Vec.of_list [ float_of_int i; 0.5 ]))

let b11_hit_tbl = Intern.create ()
let b11_miss_tbl = Intern.create ()
let b11_storm_payload = Message.Pvec (Vec.of_list [ 1.; 2. ])

(* B11's two vote-table implementations, each as a fresh instance's
   [on_message]. *)
let interned ~n ~t cb = Rbc.on_message (Rbc.create ~n ~t cb)
let reference ~n ~t cb =
  Rbc.Reference.on_message (Rbc.Reference.create ~n ~t cb)

(* One instance, every step: init + n echoes + n readies, one delivery. *)
let b11_vote_storm create () =
  let n = 16 and t = 5 in
  let delivered = ref 0 in
  let on_message =
    create ~n ~t
      {
        Rbc.send_all = (fun _ -> ());
        deliver = (fun _ _ -> incr delivered);
      }
  in
  let id = { Message.tag = Message.Init_value; origin = 0 } in
  on_message ~from:0 id Message.Init b11_storm_payload;
  for s = 0 to n - 1 do
    on_message ~from:s id Message.Echo b11_storm_payload
  done;
  for s = 0 to n - 1 do
    on_message ~from:s id Message.Ready b11_storm_payload
  done;
  assert (!delivered = 1)

(* Many live instances: exercises the per-id instance lookup (hashtable on
   precomputed tag codes vs Map over polymorphic compare). *)
let b11_instances create () =
  let n = 16 and t = 5 in
  let on_message =
    create ~n ~t { Rbc.send_all = (fun _ -> ()); deliver = (fun _ _ -> ()) }
  in
  for o = 0 to 15 do
    let id = { Message.tag = Message.Obc_value o; origin = o } in
    for s = 0 to 7 do
      on_message ~from:s id Message.Echo b11_storm_payload
    done
  done

let b11_message_layer =
  Test.make_grouped ~name:"B11 message layer"
    [
      (* One hit is single-digit nanoseconds — far below the clock's
         noise floor, which is what produced r^2 ~ 0.3 rows (and x64,
         ~140 ns, still fit at only ~0.56). 512 hits per iteration puts
         the run at ~1 us, comfortably measurable. *)
      Test.make ~name:"intern hit (Pvec) x512"
        (Staged.stage (fun () ->
             for _ = 1 to 512 do
               ignore (Intern.intern b11_hit_tbl b11_hit_payload)
             done));
      Test.make ~name:"intern 64 misses + reset"
        (Staged.stage (fun () ->
             Intern.reset b11_miss_tbl;
             Array.iter
               (fun p -> ignore (Intern.intern b11_miss_tbl p))
               b11_miss_payloads));
      (* x8 inner loops for the same reason as the intern-hit row: the
         single-storm runs are 1-5 us and their OLS fits flutter under
         machine noise. The derived keys are ratios, so the scaling
         cancels. *)
      Test.make ~name:"rbc vote storm n=16 interned x8"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               b11_vote_storm interned ()
             done));
      Test.make ~name:"rbc vote storm n=16 reference x8"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               b11_vote_storm reference ()
             done));
      Test.make ~name:"rbc 16 live instances interned x8"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               b11_instances interned ()
             done));
      Test.make ~name:"rbc 16 live instances reference x8"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               b11_instances reference ()
             done));
    ]

(* B14: instances/sec saturation — many small (n=4, D=1) agreement
   instances, each on its own engine, run back to back with [Runner.run]
   (the path the serve front door takes). The saturation workload is the
   EW quadratic path — the designated cheap per-instance protocol (32
   engine events per instance) — at two batch sizes; ΠAA rows (the
   paper's protocol in both Estimate and the Fixed_t known-bounds mode
   E16 studies) ride along to price the full-protocol instance. Rows are
   one whole batch per iteration, so instances/sec = k / (ns_per_run /
   1e9), computed in the derived keys below. The 2-domain
   [Runner.run_batch] row only appears on multi-core hosts — on a 1-core
   container it would measure oversubscription, not sharding. *)
let b14_cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:1 ~eps:0.25 ~delta:1

let batched = { Party.default_opts with layer = Party.Batched }

let b14_scenario protocol i =
  Scenario.make
    ~name:(Printf.sprintf "b14#%d" i)
    ~seed:(Int64.of_int (i + 1))
    ~policy:(Network.lockstep ~delta:1)
    ~protocol ~cfg:b14_cfg
    ~inputs:(List.init 4 (fun p -> Vec.of_list [ 0.4 +. (0.05 *. float_of_int p) ]))
    ()

let b14_ew k = List.init k (b14_scenario Scenario.Ew)
let b14_ew_16 = b14_ew 16
let b14_ew_256 = b14_ew 256
let b14_fx_16 =
  List.init 16
    (b14_scenario (Scenario.Maaa { batched with mode = Party.Fixed_t 1 }))

let b14_est_16 = List.init 16 (b14_scenario (Scenario.Maaa batched))

let b14_seq scens () =
  List.iter (fun s -> ignore (Runner.run s)) scens

let b14_saturation =
  Test.make_grouped ~name:"B14 instance saturation n=4 D=1"
    ([
       Test.make ~name:"sequential ew x16" (Staged.stage (b14_seq b14_ew_16));
       Test.make ~name:"sequential ew x256" (Staged.stage (b14_seq b14_ew_256));
       Test.make ~name:"sequential maaa fixed_t x16"
         (Staged.stage (b14_seq b14_fx_16));
       Test.make ~name:"sequential maaa estimate x16"
         (Staged.stage (b14_seq b14_est_16));
     ]
    @
    if host_domains >= 2 then
      [
        Test.make ~name:"run_batch ew x256 domains=2"
          (Staged.stage (fun () ->
               assert (
                 List.length (Runner.run_batch ~domains:2 b14_ew_256) = 256)));
      ]
    else [])

(* B12: message-count sweeps. Not a bechamel benchmark: every count is an
   exact, deterministic function of the configuration (lockstep network,
   honest parties), so each point is one run and the resulting rows are
   identical under --smoke and under the full quota — CI can gate on them
   directly. Inputs have a tiny spread so the estimated iteration count
   (and the number of safe-area evaluations) stays flat across n; what is
   being measured is the communication structure, not the workload. *)
let b12_inputs ~d n =
  List.init n (fun i ->
      Vec.of_list (List.init d (fun c -> 0.1 *. float_of_int ((i + c) mod 2))))

let b12_run ?protocol ~n () =
  let cfg = Config.make_exn ~n ~ts:2 ~ta:1 ~d:2 ~eps:0.05 ~delta:10 in
  let r =
    Runner.run
      (Scenario.make
         ~name:(Printf.sprintf "b12-%d" n)
         ~cfg ~inputs:(b12_inputs ~d:2 n) ?protocol
         ~policy:(Network.lockstep ~delta:10) ())
  in
  assert (r.Runner.live && r.Runner.valid && r.Runner.agreement);
  (r.Runner.stats.Engine.messages_sent, r.Runner.stats.Engine.bytes_sent)

(* The unbatched path stops at n = 12 (Theta(n^3) packets make larger
   points pointlessly slow); batched Pi_AA runs to n = 64 (the safe-area
   subset count C(n, 2) bounds it) and EW — which trims only ta = 1 — out
   to n = 128. *)
let b12_sweeps () =
  let sweep path ?protocol ns =
    List.map
      (fun n ->
        let m, b = b12_run ?protocol ~n () in
        (path, n, m, b))
      ns
  in
  sweep "unbatched" [ 8; 12 ]
  @ sweep "batched" ~protocol:(Scenario.Maaa batched) [ 8; 12; 16; 24; 32; 48; 64 ]
  @ sweep "ew" ~protocol:Scenario.Ew [ 8; 16; 32; 64; 96; 128 ]

(* Least-squares slope of log(messages) against log(n): the measured
   communication-complexity exponent of one sweep path. *)
let b12_exponent sweeps path =
  let pts =
    List.filter_map
      (fun (p, n, m, _) ->
        if p = path && m > 0 then
          Some (log (float_of_int n), log (float_of_int m))
        else None)
      sweeps
  in
  match pts with
  | [] | [ _ ] -> None
  | _ ->
      let k = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
      Some (((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx)))

let b12_msgs sweeps path n =
  List.find_map
    (fun (p, n', m, _) -> if p = path && n' = n then Some m else None)
    sweeps

let b12_max_n sweeps path =
  List.fold_left
    (fun acc (p, n, _, _) -> if p = path then max acc n else acc)
    0 sweeps

let tests =
  Test.make_grouped ~name:"maaa"
    [
      b1_safe_area; b2_representations; b3_lp; b4_hull;
      b6_protocol; b7_rbc; b8_subsets; b9_problem; b10_sweep;
      b11_message_layer; b14_saturation;
    ]

(* B5's seed one-shot line runs ~1 s per sample: a 1 s quota admits one
   sample and the OLS fit degenerates (r^2 null). Full runs give the B5
   group (and the B2D sweep, whose Reference rows are of the same breed)
   a >= 8 s quota of its own so every committed derived-key row clears
   ci.sh's fit-quality gate; smoke runs keep the tiny quota — their r^2
   is not gated. *)
let tests_slow = Test.make_grouped ~name:"maaa" [ b5_diameter; b2d_sweep ]

let benchmark ~quota () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let group ~quota tests =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = group ~quota tests in
  let slow_quota = if quota >= 0.5 then Float.max quota 8.0 else quota in
  Hashtbl.iter (Hashtbl.replace results) (group ~quota:slow_quota tests_slow);
  results

let pp_ns ppf v =
  if v >= 1e9 then Format.fprintf ppf "%8.3f s " (v /. 1e9)
  else if v >= 1e6 then Format.fprintf ppf "%8.3f ms" (v /. 1e6)
  else if v >= 1e3 then Format.fprintf ppf "%8.3f us" (v /. 1e3)
  else Format.fprintf ppf "%8.1f ns" v

(* --- machine-readable output ------------------------------------------- *)

let find_row rows suffix =
  List.find_opt (fun (name, _, _) -> Filename.check_suffix name suffix) rows

let speedup rows ~baseline ~target =
  match (find_row rows baseline, find_row rows target) with
  | Some (_, b, _), Some (_, t, _) when t > 0. && Float.is_finite b ->
      Some (b /. t)
  | _ -> None

(* One B14 batch row measures k instances per iteration: its throughput
   is k / seconds. The saturation keys take the best row of a family so
   one noisy sweep point cannot sink the committed number. *)
let instances_per_sec rows (row, k) =
  match find_row rows row with
  | Some (_, ns, _) when ns > 0. && Float.is_finite ns ->
      Some (float_of_int k *. 1e9 /. ns)
  | _ -> None

let best_instances_per_sec rows candidates =
  List.filter_map (instances_per_sec rows) candidates
  |> List.fold_left (fun acc v -> max acc v) Float.neg_infinity
  |> fun v -> if Float.is_finite v && v > 0. then Some v else None

let b14_ew_rows =
  [
    ("B14 instance saturation n=4 D=1/sequential ew x16", 16);
    ("B14 instance saturation n=4 D=1/sequential ew x256", 256);
  ]

let b14_maaa_rows =
  [
    ("B14 instance saturation n=4 D=1/sequential maaa fixed_t x16", 16);
    ("B14 instance saturation n=4 D=1/sequential maaa estimate x16", 16);
  ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let write_json ~oc ~quota ~calibration ~sweeps rows =
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"maaa-bench/2\",\n";
  out "  \"quota_seconds\": %s,\n" (json_float quota);
  (* Host metadata: enough to interpret the timing rows (and the null
     B10 pool keys on single-core machines) without guessing. *)
  out "  \"ocaml_version\": \"%s\",\n" (json_escape Sys.ocaml_version);
  out "  \"word_size\": %d,\n" Sys.word_size;
  out "  \"recommended_domains\": %d,\n" host_domains;
  (* Section headers for the domain-gated groups: on a 1-core host the
     B10 pool rows and the B14 domain-sharded rows are skipped (their
     derived keys go null), and these flags record why — the perf
     trajectory stays auditable across hosts. The calibration is the
     host's measured 2-domain ratio (see [parallel_ratio]). *)
  out
    "  \"b10\": {\"skipped_single_core\": %s, \"parallel_calibration\": %s},\n"
    (if host_domains >= 2 then "false" else "true")
    (json_float calibration);
  out "  \"b14\": {\"skipped_single_core\": %s, \"target_instances_per_sec\": 10000},\n"
    (if host_domains >= 2 then "false" else "true");
  out "  \"unit\": \"ns/run\",\n";
  out "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r2\": %s}%s\n"
        (json_escape name) (json_float est) (json_float r2)
        (if i = n - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"sweeps\": [\n";
  let ns = List.length sweeps in
  List.iteri
    (fun i (path, n, msgs, bytes) ->
      out "    {\"path\": \"%s\", \"n\": %d, \"messages\": %d, \"bytes\": %d}%s\n"
        (json_escape path) n msgs bytes
        (if i = ns - 1 then "" else ","))
    sweeps;
  out "  ],\n";
  let derived =
    [
      ( "b5_speedup_warm_cached_vs_seed",
        (* the cached row runs x256 queries per iteration: scale back so
           the key stays a per-query speedup *)
        Option.map
          (fun s -> s *. 256.)
          (speedup rows
             ~baseline:
               "B5 implicit diameter D=3/seed one-shot (rebuild per query)"
             ~target:"B5 implicit diameter D=3/warm workspace (cached) x256") );
      ( "b5_speedup_warm_fresh_vs_seed",
        speedup rows
          ~baseline:"B5 implicit diameter D=3/seed one-shot (rebuild per query)"
          ~target:"B5 implicit diameter D=3/warm workspace (fresh hullset)" );
      ( "b2_speedup_d3",
        speedup rows
          ~baseline:"B2D safe-area diameter sweep/D=3 implicit LP (fresh hullset)"
          ~target:"B2D safe-area diameter sweep/D=3 exact hull3d" );
      ( "b2_speedup_d4",
        speedup rows
          ~baseline:"B2D safe-area diameter sweep/D=4 seed one-shot reference"
          ~target:"B2D safe-area diameter sweep/D=4 support-cached workspace" );
      ( "b2_speedup_d5",
        speedup rows
          ~baseline:"B2D safe-area diameter sweep/D=5 seed one-shot reference"
          ~target:"B2D safe-area diameter sweep/D=5 support-cached workspace" );
      ( "b8_speedup_m12_t3",
        speedup rows
          ~baseline:"B8 subset enumeration/seed recursive lists m=12 t=3 x32"
          ~target:"B8 subset enumeration/index-array kernel m=12 t=3 x32" );
      ( "b8_speedup_m16_t4",
        speedup rows
          ~baseline:"B8 subset enumeration/seed recursive lists m=16 t=4"
          ~target:"B8 subset enumeration/index-array kernel m=16 t=4" );
      ( "b9_speedup_replay_vs_one_shot",
        speedup rows
          ~baseline:"B9 16 objectives, one system/one-shot Lp.solve each"
          ~target:"B9 16 objectives, one system/workspace replay (warm:false)"
      );
      ( "b9_speedup_warm_vs_one_shot",
        speedup rows
          ~baseline:"B9 16 objectives, one system/one-shot Lp.solve each"
          ~target:"B9 16 objectives, one system/workspace warm start (warm:true)"
      );
      ( "b12_reduction_batched_n12",
        (match (b12_msgs sweeps "unbatched" 12, b12_msgs sweeps "batched" 12) with
        | Some u, Some b when b > 0 -> Some (float_of_int u /. float_of_int b)
        | _ -> None) );
      ("b12_batched_exponent", b12_exponent sweeps "batched");
      ("b12_ew_exponent", b12_exponent sweeps "ew");
      ( "b12_max_n_batched",
        match b12_max_n sweeps "batched" with
        | 0 -> None
        | n -> Some (float_of_int n) );
      ( "b12_max_n_ew",
        match b12_max_n sweeps "ew" with
        | 0 -> None
        | n -> Some (float_of_int n) );
      ( "b11_speedup_vote_storm",
        speedup rows
          ~baseline:"B11 message layer/rbc vote storm n=16 reference x8"
          ~target:"B11 message layer/rbc vote storm n=16 interned x8" );
      ( "b11_speedup_instances",
        speedup rows
          ~baseline:"B11 message layer/rbc 16 live instances reference x8"
          ~target:"B11 message layer/rbc 16 live instances interned x8" );
      ( "b10_speedup_2_domains_vs_sequential",
        speedup rows
          ~baseline:"B10 sweep throughput (8 runs)/sequential (domains=1)"
          ~target:"B10 sweep throughput (8 runs)/pool domains=2" );
      ( "b10_speedup_4_domains_vs_sequential",
        speedup rows
          ~baseline:"B10 sweep throughput (8 runs)/sequential (domains=1)"
          ~target:"B10 sweep throughput (8 runs)/pool domains=4" );
      (* The saturation headline: best sequential small-instance
         throughput across the EW rows (the designated cheap-instance
         path); the ΠAA key prices the full protocol alongside. *)
      ("b14_instances_per_sec", best_instances_per_sec rows b14_ew_rows);
      ("b14_maaa_instances_per_sec", best_instances_per_sec rows b14_maaa_rows);
      ( "b14_speedup_2_domains",
        speedup rows
          ~baseline:"B14 instance saturation n=4 D=1/sequential ew x256"
          ~target:"B14 instance saturation n=4 D=1/run_batch ew x256 domains=2" );
    ]
  in
  out "  \"derived\": {\n";
  let nd = List.length derived in
  List.iteri
    (fun i (key, v) ->
      let v = match v with Some s -> json_float s | None -> "null" in
      out "    \"%s\": %s%s\n" key v (if i = nd - 1 then "" else ","))
    derived;
  out "  }\n";
  out "}\n"

let () =
  let json_path = ref None in
  let quota = ref 0.5 in
  let speclist =
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "FILE  also write machine-readable results to FILE" );
      ("--quota", Arg.Set_float quota, "SEC  per-benchmark time quota");
      ( "--smoke",
        Arg.Unit (fun () -> quota := 0.02),
        "  tiny quota: a fast everything-still-runs pass for CI" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--json FILE] [--quota SEC] [--smoke]";
  (* Open the output before the (long) run so a bad path fails fast. *)
  let json_out =
    Option.map
      (fun path ->
        match open_out path with
        | oc -> (path, oc)
        | exception Sys_error e ->
            Printf.eprintf "bench: cannot write JSON output: %s\n" e;
            exit 1)
      !json_path
  in
  let sweeps = b12_sweeps () in
  Format.printf "%-12s %6s %12s %12s@." "B12 sweep" "n" "messages" "bytes";
  Format.printf "%s@." (String.make 46 '-');
  List.iter
    (fun (path, n, msgs, bytes) ->
      Format.printf "%-12s %6d %12d %12d@." path n msgs bytes)
    sweeps;
  (match (b12_exponent sweeps "batched", b12_exponent sweeps "ew") with
  | Some b, Some e ->
      Format.printf
        "B12 fitted exponents: batched %.2f, EW %.2f (unbatched is ~3)@.@." b e
  | _ -> ());
  let before = calibrate 3 in
  let results = benchmark ~quota:!quota () in
  let calibration = median (before @ calibrate 3) in
  Format.printf "2-domain parallel calibration (pure loop): %.2fx@." calibration;
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan
        in
        (name, est, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Format.printf "%-55s %12s  %s@." "benchmark" "time/run" "r^2";
  Format.printf "%s@." (String.make 80 '-');
  List.iter
    (fun (name, est, r2) -> Format.printf "%-55s %a  %.4f@." name pp_ns est r2)
    rows;
  (match
     speedup rows
       ~baseline:"B5 implicit diameter D=3/seed one-shot (rebuild per query)"
       ~target:"B5 implicit diameter D=3/warm workspace (cached) x256"
   with
  | Some s ->
      Format.printf "@.B5 warm-workspace speedup over seed: %.2fx@."
        (s *. 256.)
  | None -> ());
  (match
     speedup rows
       ~baseline:"B2D safe-area diameter sweep/D=3 implicit LP (fresh hullset)"
       ~target:"B2D safe-area diameter sweep/D=3 exact hull3d"
   with
  | Some s -> Format.printf "B2D exact hull3d speedup over implicit LP: %.2fx@." s
  | None -> ());
  (match
     speedup rows
       ~baseline:"B10 sweep throughput (8 runs)/sequential (domains=1)"
       ~target:"B10 sweep throughput (8 runs)/pool domains=4"
   with
  | Some s ->
      Format.printf "B10 4-domain sweep speedup over sequential: %.2fx@." s
  | None -> ());
  (match
     ( best_instances_per_sec rows b14_ew_rows,
       best_instances_per_sec rows b14_maaa_rows )
   with
  | Some ew, Some maaa ->
      Format.printf
        "B14 saturation: %.0f instances/sec (EW path, target 10000); \
         full-protocol ΠAA %.0f instances/sec@."
        ew maaa
  | _ -> ());
  match json_out with
  | None -> ()
  | Some (path, oc) ->
      write_json ~oc ~quota:!quota ~calibration ~sweeps rows;
      close_out oc;
      Format.printf "wrote %s@." path
