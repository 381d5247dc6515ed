(* The benchmark's four workloads. Every op's inputs and engine seed are
   drawn from one Rng stream seeded by the workload seed, so two commits
   given the same seed run the same ops in the same order. *)

type kind =
  | Run of (Rng.t -> Scenario.t)
      (** one op is one [Runner.run] of the drawn scenario *)
  | Serve_tcp
      (** one op is one TCP connection carrying {!batch_size} [agree]
          lines to [Serve.serve] *)

type t = {
  name : string;
  tail : float;  (** the percentile [latency_tail_ms] reports *)
  warmup : int;  (** untimed ops before the first timed one *)
  kind : kind;
}

let vec_const d x = Vec.of_list (List.init d (fun _ -> x))

(* D=3 (exact Hull3d), not D=4: the D=4 LP arm returns invalid outputs
   in about one op per thousand (README, "Why D=3"). *)
let sync_d3_poison rng =
  let cfg = Config.make_exn ~n:8 ~ts:1 ~ta:1 ~d:3 ~eps:0.05 ~delta:10 in
  let seed = Rng.next_int64 rng in
  Scenario.make ~name:"sync-d3-poison" ~seed
    ~policy:(Network.sync_uniform ~delta:10)
    ~corruptions:[ (7, Behavior.Honest_with_input (vec_const 3 1000.)) ]
    ~cfg
    ~inputs:(Inputs.uniform_cube rng ~d:3 ~n:8 ~side:10.)
    ()

let async_d2_crash rng =
  let cfg = Config.make_exn ~n:8 ~ts:2 ~ta:1 ~d:2 ~eps:0.25 ~delta:10 in
  let seed = Rng.next_int64 rng in
  Scenario.make ~name:"async-d2-crash" ~seed
    ~policy:(Network.async_uniform ~max_delay:40)
    ~sync_network:false
    ~corruptions:[ (7, Behavior.Silent) ]
    ~cfg
    ~inputs:(Inputs.uniform_cube rng ~d:2 ~n:8 ~side:10.)
    ()

let net_n4_d1 rng =
  let cfg = Config.make_exn ~n:4 ~ts:1 ~ta:0 ~d:1 ~eps:1. ~delta:10 in
  let seed = Rng.next_int64 rng in
  Scenario.make ~name:"net-n4-d1" ~seed
    ~policy:(Network.sync_uniform ~delta:10)
    ~transport:`Net ~cfg
    ~inputs:(Inputs.uniform_cube rng ~d:1 ~n:4 ~side:1.)
    ()

let batch_size = 16

(* Request classes (n, D, ts) the served mix rotates over. *)
let serve_classes = [| (4, 1, 1); (5, 2, 1); (7, 2, 2) |]

(* The [agree] lines of connection [conn]; request [j] of it has the
   global index [conn * batch_size + j], which picks its class. *)
let serve_batch rng ~conn =
  List.init batch_size (fun j ->
      let n, d, ts =
        serve_classes.((conn * batch_size + j) mod Array.length serve_classes)
      in
      let inputs =
        Inputs.uniform_cube rng ~d ~n ~side:1.
        |> List.map (fun v ->
               Vec.to_list v |> List.map (Printf.sprintf "%.17g")
               |> String.concat ",")
        |> String.concat ";"
      in
      Printf.sprintf
        "agree v=1 d=%d eps=0.05 delta=4 ts=%d ta=0 seed=%Ld inputs=%s" d ts
        (Rng.next_int64 rng) inputs)

(* Why each workload: BENCHMARK.json and README.md. *)
let all =
  [
    { name = "sync-d3-poison"; tail = 0.99; warmup = 50; kind = Run sync_d3_poison };
    { name = "async-d2-crash"; tail = 0.99; warmup = 20; kind = Run async_d2_crash };
    { name = "serve-tcp-mix"; tail = 0.99; warmup = 8; kind = Serve_tcp };
    (* p75: at ~0.75 s an op, a run holds few dozen samples *)
    { name = "net-n4-d1"; tail = 0.75; warmup = 1; kind = Run net_n4_d1 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let tail_label w = Printf.sprintf "p%.0f" (w.tail *. 100.)

(* -- correctness -------------------------------------------------------- *)

let result_ok (r : Runner.result) =
  r.Runner.termination = Runner.Completed
  && r.Runner.live && r.Runner.valid && r.Runner.agreement

(* The sim twin of a `Net scenario: same everything, simulator backend. *)
let sim_twin (s : Scenario.t) = { s with Scenario.transport = `Sim }

(* Net and sim runs must agree on every field but the backend's own. *)
let mask_backend (r : Runner.result) =
  { r with Runner.transport = `Sim; wire = None }

(* Checks one served reply against the request line that produced it:
   [ok], one output per party, all within ε of each other and inside the
   convex hull of the inputs. The server grades liveness only, so
   validity and agreement are re-checked here. *)
let reply_ok ~line reply =
  match Serve.parse_request line with
  | Error _ -> false
  | Ok req -> (
      match String.split_on_char ' ' reply with
      | [ "ok"; _diameter; _rounds; outputs ]
        when String.length outputs > 8 && String.sub outputs 0 8 = "outputs="
        -> (
          let body = String.sub outputs 8 (String.length outputs - 8) in
          match
            List.map
              (fun p ->
                Vec.of_list (List.map float_of_string (String.split_on_char ',' p)))
              (String.split_on_char ';' body)
          with
          | exception Failure _ -> false
          | outs ->
              List.length outs = List.length req.Serve.inputs
              && List.for_all (fun v -> Vec.dim v = req.Serve.d) outs
              && Vec.diameter outs <= req.Serve.eps +. 1e-9
              && List.for_all
                   (Membership.in_hull ~eps:1e-6 req.Serve.inputs)
                   outs)
      | _ -> false)
