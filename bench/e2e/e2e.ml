(* End-to-end benchmark: four workloads (see Workloads and README.md),
   closed loop, one op in flight, timed from the client's side.

   Run one workload (the form BENCHMARK.json's command uses):
     dune exec bench/e2e/e2e.exe -- --workload NAME --seed S --seconds T --trace 0|1
   The last stdout line is one JSON object: correct, attempted, failed and
   the metrics (end-to-end with --trace 0, per-layer with --trace 1).

   Run every workload, each in its own child process:
     dune exec bench/e2e/e2e.exe -- --seed S [--trace 1] [--json OUT]
   Compare two such files against the bounds in BENCHMARK.json:
     dune exec bench/e2e/e2e.exe -- --compare A.json B.json
   Tiny pass over every workload in both modes (the runtest rule):
     dune exec bench/e2e/e2e.exe -- --smoke

   Metric names, units and bounds come from BENCHMARK.json in the
   current directory; every metric listed there must be produced. *)

let now_ns = Tracer.now_ns
let fi = float_of_int

(* -- BENCHMARK.json ------------------------------------------------------- *)

type metric = {
  m_name : string;
  m_unit : string;
  lower_is_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type spec = { run_seconds : float; e2e : metric list; per_layer : metric list }

let load_spec path =
  let fail why = failwith (Printf.sprintf "%s: %s" path why) in
  let j =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> ( try Json.of_string s with Json.Parse_error e -> fail e)
    | exception Sys_error e -> fail e
  in
  let field k o = match Json.member k o with Some v -> v | None -> fail ("no " ^ k) in
  let metrics key =
    match field key j with
    | Json.List l ->
        List.map
          (fun m ->
            let s k = match Json.str (field k m) with Some s -> s | None -> fail k in
            {
              m_name = s "name";
              m_unit = s "unit";
              lower_is_better = s "better" = "lower";
              bound =
                (match Json.member "bound" m with
                | Some (Json.Num b) -> b
                | _ -> 0.);
            })
          l
    | _ -> fail key
  in
  {
    run_seconds =
      (match Json.num (field "run_seconds" j) with Some v -> v | None -> fail "run_seconds");
    e2e = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* -- samples -------------------------------------------------------------- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

(* Per-op samples, in ns: the op's latency and its share of busy time.
   They live in Bigarrays, 16 bytes an op outside the OCaml heap, so the
   benchmark's own bookkeeping neither feeds the GC nor shows much in
   peak_rss_mb. *)
module Samples = struct
  open Bigarray

  type buf = (float, float64_elt, c_layout) Array1.t
  type t = { mutable lat : buf; mutable busy : buf; mutable n : int }

  let buf n = Array1.create float64 c_layout n
  let create () = { lat = buf 4096; busy = buf 4096; n = 0 }

  let push t ~lat ~busy =
    if t.n = Array1.dim t.lat then begin
      let grow b =
        let b' = buf (2 * t.n) in
        Array1.blit b (Array1.sub b' 0 t.n);
        b'
      in
      t.lat <- grow t.lat;
      t.busy <- grow t.busy
    end;
    t.lat.{t.n} <- lat;
    t.busy.{t.n} <- busy;
    t.n <- t.n + 1

  (* Throughput and median latency are medians over the run's consecutive
     slices of equal op count (up to 20, of at least 100 ops each), so a
     slow stretch of a shared host that covers a minority of the slices
     does not move them. Short runs are a single slice. *)
  let sliced t f =
    let k = max 1 (min 20 (t.n / 100)) in
    let per = t.n / k in
    median
      (List.init k (fun i ->
           let off = i * per in
           f ~off ~len:(if i = k - 1 then t.n - off else per)))

  let ops_per_s t =
    sliced t (fun ~off ~len ->
        let busy = ref 0. in
        for i = off to off + len - 1 do
          busy := !busy +. t.busy.{i}
        done;
        fi len /. (!busy /. 1e9))

  let latency_ms t ~off ~len p =
    let a = Array.init len (fun i -> t.lat.{off + i}) in
    Array.sort compare a;
    percentile a p /. 1e6

  let p50_ms t = sliced t (fun ~off ~len -> latency_ms t ~off ~len 0.5)

  (* The tail over the whole run, for the most samples beyond it. *)
  let tail_ms t p = latency_ms t ~off:0 ~len:t.n p
end

type tally = {
  samples : Samples.t;
  mutable words : float;  (** minor words allocated by the ops *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (** parity checks that failed *)
}

let tally () =
  { samples = Samples.create (); words = 0.; attempted = 0; failed = 0; mismatches = [] }

let count t ~ok = t.attempted <- t.attempted + 1; if not ok then t.failed <- t.failed + 1

let parity t what ok = if not ok then t.mismatches <- what :: t.mismatches

(* -- run context ---------------------------------------------------------- *)

type ctx = {
  w : Workloads.t;
  seed : int;
  seconds : float;
  max_ops : int;  (** cap on timed ops (connections for serve) *)
  warmup : int;
  trace : bool;
  spans_out : string option;
}

let deadline ctx = now_ns () + int_of_float (ctx.seconds *. 1e9)

(* The op stream and, split off it first, the warm-up stream. *)
let streams ctx =
  let rng = Rng.create (Int64.of_int ctx.seed) in
  let warm = Rng.split rng in
  (rng, warm)

(* -- Runner.run workloads ------------------------------------------------- *)

let run_setup ctx gen =
  let rng, warm = streams ctx in
  for _ = 1 to ctx.warmup do
    ignore (Runner.run (gen warm))
  done;
  rng

(* The sim twin's result for a net op, for the parity check. *)
let twin_of (s : Scenario.t) =
  if s.Scenario.transport = `Net then Some (Runner.run (Workloads.sim_twin s))
  else None

(* Outputs correct; for a net op also equal to its sim twin. *)
let check_run t r twin =
  let twin_ok =
    match twin with None -> true | Some tw -> Workloads.mask_backend r = tw
  in
  parity t "net result <> sim twin" twin_ok;
  let ok = Workloads.result_ok r && twin_ok in
  if not ok then Format.eprintf "failed op: %a@." Runner.pp_summary r;
  count t ~ok

let run_untraced ctx gen rng =
  let t = tally () and stop = deadline ctx in
  while now_ns () < stop && t.attempted < ctx.max_ops do
    let s = gen rng in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = Runner.run s in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    Samples.push t.samples ~lat:(fi (t1 - t0)) ~busy:(fi (t1 - t0));
    t.words <- t.words +. (w1 -. w0);
    check_run t r (twin_of s)
  done;
  (t, [])

let write_spans ctx spans =
  match ctx.spans_out with
  | None -> ()
  | Some path ->
      let rec mkdir_p d =
        if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun s ->
              output_string oc (Json.to_string (Tracer.span_to_json s));
              output_char oc '\n')
            spans)

let run_traced ctx gen rng =
  let t = tally () and stop = deadline ctx in
  let accs = ref [] and untraced_ns = ref 0 and wire_ns = ref 0 in
  while now_ns () < stop && t.attempted < ctx.max_ops do
    let s = gen rng in
    let net = s.Scenario.transport = `Net in
    let a, spans = Tracer.run_op ~record:(!accs = []) ~capture:net s in
    if spans <> [] then write_spans ctx spans;
    let t0 = now_ns () in
    let r = Runner.run s in
    let t1 = now_ns () in
    untraced_ns := !untraced_ns + (t1 - t0);
    let twin = twin_of s in
    (* the twin ran between [t1] and now *)
    if net then wire_ns := !wire_ns + (t1 - t0) - (now_ns () - t1);
    let mask = Workloads.mask_backend in
    parity t "traced result <> Runner.run" (mask (Tracer.result_of a) = mask r);
    check_run t r twin;
    accs := a :: !accs
  done;
  let layers = Tracer.layer_metrics ~untraced_ns:(fi !untraced_ns) !accs in
  let net =
    if List.exists (fun a -> (Tracer.result_of a).Runner.wire <> None) !accs then
      Tracer.wire_metrics !accs
      @ Tracer.codec_metrics !accs
      @ [ ("net.wire_ms_per_op", fi !wire_ns /. 1e6 /. fi (List.length !accs)) ]
    else []
  in
  (t, layers @ net)

(* -- the served workload -------------------------------------------------- *)

(* Runs [Serve.serve] for exactly [conns] connections in a second domain
   while [f port] (which must make them) runs here; returns [f]'s result
   and the minor words the server domain allocated. *)
let with_server ~conns f =
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        let w0 = Gc.minor_words () in
        (try
           Serve.serve ~domains:1 ~max_conns:conns ~announce:(Atomic.set port)
             ~port:0 ()
         with e ->
           Atomic.set port (-1);
           raise e);
        Gc.minor_words () -. w0)
  in
  while Atomic.get port = 0 do
    Domain.cpu_relax ()
  done;
  if Atomic.get port < 0 then ignore (Domain.join server);
  let x = f (Atomic.get port) in
  (x, Domain.join server)

(* One connection: send the batch, read one reply per line. Returns the
   replies with their latency from connect, and the connection's time. *)
let exchange port lines =
  let t0 = now_ns () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Bytes.of_string (String.concat "\n" lines ^ "\n\n") in
      let rec send off =
        if off < Bytes.length req then
          send (off + Unix.write fd req off (Bytes.length req - off))
      in
      send 0;
      let ic = Unix.in_channel_of_descr fd in
      let replies =
        List.map
          (fun _ ->
            match input_line ic with
            | reply -> (reply, now_ns () - t0)
            | exception End_of_file -> ("err connection closed", now_ns () - t0))
          lines
      in
      (replies, now_ns () - t0))

let serve_setup ctx =
  let rng, warm = streams ctx in
  if ctx.warmup > 0 then
    ignore
      (with_server ~conns:ctx.warmup (fun port ->
           for conn = 0 to ctx.warmup - 1 do
             ignore (exchange port (Workloads.serve_batch warm ~conn))
           done));
  rng

(* Serve per-batch trace sums, in ns. *)
type serve_acc = {
  mutable batches : int;
  mutable parse_ns : int;
  mutable handle_ns : int;
  mutable socket_ns : int;
  mutable many_ns : int;
  mutable dedicated_ns : int;
  mutable safe_hits : int;
  mutable safe_misses : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable accs : Tracer.acc list;
}

(* The traced extras for one served batch: parse, the batch core, the
   mux against dedicated engines, and every request through the traced
   runner. Every output is checked against the others. *)
let trace_batch ctx t sa lines replies conn_ns =
  let t0 = now_ns () in
  let scens =
    List.filter_map
      (fun l -> Result.to_option (Result.bind (Serve.parse_request l) Serve.scenario_of_request))
      lines
  in
  let t1 = now_ns () in
  let core = Serve.handle_batch lines in
  let t2 = now_ns () in
  let many = Multi_runner.run_many scens in
  let t3 = now_ns () in
  let dedicated = Runner.run_batch scens in
  let t4 = now_ns () in
  parity t "TCP replies <> Serve.handle_batch" (core = List.map fst replies);
  parity t "Multi_runner.run_many <> Runner.run_batch"
    (List.for_all2
       (fun m d -> { m with Runner.caches = d.Runner.caches } = d)
       many dedicated);
  let g = Multi_runner.group_stats many in
  List.iter2
    (fun s d ->
      let a, spans = Tracer.run_op ~record:(sa.accs = []) s in
      if spans <> [] then write_spans ctx spans;
      parity t "traced result <> Runner.run" (Tracer.result_of a = d);
      sa.accs <- a :: sa.accs)
    scens dedicated;
  sa.batches <- sa.batches + 1;
  sa.parse_ns <- sa.parse_ns + (t1 - t0);
  sa.handle_ns <- sa.handle_ns + (t2 - t1);
  sa.socket_ns <- sa.socket_ns + conn_ns - (t2 - t1);
  sa.many_ns <- sa.many_ns + (t3 - t2);
  sa.dedicated_ns <- sa.dedicated_ns + (t4 - t3);
  sa.safe_hits <- sa.safe_hits + g.Multi_runner.safe_hits;
  sa.safe_misses <- sa.safe_misses + g.Multi_runner.safe_misses;
  sa.intern_hits <- sa.intern_hits + g.Multi_runner.intern_hits;
  sa.intern_misses <- sa.intern_misses + g.Multi_runner.intern_misses

let serve_metrics sa =
  let b = fi sa.batches and ms ns = fi ns /. 1e6 in
  let ratio x y = if x + y > 0 then fi x /. fi (x + y) else 0. in
  Tracer.layer_metrics ~untraced_ns:(fi sa.dedicated_ns) sa.accs
  @ [
      ("mux.run_many_ms_per_batch", ms sa.many_ns /. b);
      ("mux.dedicated_ms_per_batch", ms sa.dedicated_ns /. b);
      ("mux.speedup_vs_dedicated", fi sa.dedicated_ns /. fi sa.many_ns);
      ("mux.safe_hit_ratio", ratio sa.safe_hits sa.safe_misses);
      ("mux.intern_hit_ratio", ratio sa.intern_hits sa.intern_misses);
      ( "serve.parse_us_per_req",
        fi sa.parse_ns /. 1e3 /. (b *. fi Workloads.batch_size) );
      ("serve.handle_batch_ms", ms sa.handle_ns /. b);
      ("serve.socket_ms_per_batch", ms sa.socket_ns /. b);
    ]

let serve_run ctx rng =
  let t = tally () and stop = deadline ctx in
  let sa =
    {
      batches = 0; parse_ns = 0; handle_ns = 0; socket_ns = 0; many_ns = 0;
      dedicated_ns = 0; safe_hits = 0; safe_misses = 0; intern_hits = 0;
      intern_misses = 0; accs = [];
    }
  in
  let conn = ref 0 and t_start = now_ns () in
  while now_ns () < stop && !conn < ctx.max_ops do
    (* Size each server block to the time left; connections a block
       still owes when time is up are made empty, which the server
       answers with nothing. *)
    let per_conn = if !conn = 0 then 0 else (now_ns () - t_start) / !conn in
    let left = stop - now_ns () in
    let conns = if per_conn = 0 then 1 else max 1 (min 256 (left / per_conn)) in
    let conns = min conns (ctx.max_ops - !conn) in
    let (), words =
      with_server ~conns (fun port ->
          for _ = 1 to conns do
            if now_ns () >= stop then ignore (exchange port [])
            else begin
              let lines = Workloads.serve_batch rng ~conn:!conn in
              let replies, conn_ns = exchange port lines in
              let busy = fi conn_ns /. fi Workloads.batch_size in
              List.iter2
                (fun line (reply, lat) ->
                  Samples.push t.samples ~lat:(fi lat) ~busy;
                  count t ~ok:(Workloads.reply_ok ~line reply))
                lines replies;
              if ctx.trace then trace_batch ctx t sa lines replies conn_ns
              else if !conn mod 8 = 0 then
                parity t "TCP replies <> Serve.handle_batch"
                  (Serve.handle_batch lines = List.map fst replies);
              incr conn
            end
          done)
    in
    t.words <- t.words +. words
  done;
  (t, if ctx.trace then serve_metrics sa else [])

(* -- one workload, in this process ---------------------------------------- *)

let setup ctx =
  match ctx.w.Workloads.kind with
  | Workloads.Run gen -> `Run (gen, run_setup ctx gen)
  | Workloads.Serve_tcp -> `Serve (serve_setup ctx)

(* Setup time: [probes] fresh processes, each timed from launch until it
   has set up (server spawned, warm-up done) and exited. *)
let setup_probes ~probes args =
  let exe = Sys.executable_name in
  List.init probes (fun _ ->
      let t0 = now_ns () in
      let pid =
        Unix.create_process exe
          (Array.of_list ((exe :: args) @ [ "--setup-probe" ]))
          Unix.stdin Unix.stderr Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> fi (now_ns () - t0) /. 1e9
      | _ -> failwith "setup probe failed")

(* Per-layer names a workload does not exercise, by layer prefix; they
   report 0. Any other listed metric it fails to produce is an error. *)
let absent_layers = function
  | Workloads.Serve_tcp -> [ "net"; "codec" ]
  | Workloads.Run _ -> [ "mux"; "serve"; "net"; "codec" ]

let select ~what (wanted : metric list) ~absent produced =
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun m -> m.m_name = k) wanted) then
        failwith (Printf.sprintf "%s metric %s is not listed in BENCHMARK.json" what k))
    produced;
  List.map
    (fun m ->
      match List.assoc_opt m.m_name produced with
      | Some v -> (m, v)
      | None ->
          let layer = List.hd (String.split_on_char '.' m.m_name) in
          if List.mem layer absent then (m, 0.)
          else failwith (Printf.sprintf "%s metric %s was not produced" what m.m_name))
    wanted

(* Peak resident set size of this process (Linux /proc). The OCaml
   [top_heap_words] was the first choice, but with the serve workload's
   two domains it varies by a third from run to run with GC timing. *)
let peak_rss_mb () =
  In_channel.with_open_bin "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> fi kb *. 1024. /. 1e6))
  |> function Some mb -> mb | None -> failwith "no VmHWM in /proc/self/status"

let host_meta () =
  let nproc =
    match Unix.open_process_args_in "nproc" [| "nproc" |] with
    | ic ->
        let n = In_channel.input_all ic in
        ignore (Unix.close_process_in ic);
        (match int_of_string_opt (String.trim n) with Some n -> Json.Num (fi n) | None -> Json.Null)
    | exception Unix.Unix_error _ -> Json.Null
  in
  [
    ("host", Json.Str (Unix.gethostname ()));
    ("nproc", nproc);
    ("recommended_domain_count", Json.Num (fi (Domain.recommended_domain_count ())));
    ("ocaml_version", Json.Str Sys.ocaml_version);
  ]

let run_one spec ctx ~probe_args ~smoke =
  (* setup_s is the median of seven probes, four before the timed ops and
     three after, so one slow stretch of the host cannot hold them all *)
  let before = setup_probes ~probes:(if smoke then 1 else 4) probe_args in
  let t, produced =
    match setup ctx with
    | `Run (gen, rng) ->
        if ctx.trace then run_traced ctx gen rng else run_untraced ctx gen rng
    | `Serve rng -> serve_run ctx rng
  in
  let after = setup_probes ~probes:(if smoke then 0 else 3) probe_args in
  let setup_s = median (before @ after) in
  let ops = max 1 t.attempted in
  let metrics =
    if ctx.trace then
      select ~what:"per-layer" spec.per_layer
        ~absent:(absent_layers ctx.w.Workloads.kind) produced
    else
      select ~what:"end-to-end" spec.e2e ~absent:[]
        [
          ("ops_per_s", Samples.ops_per_s t.samples);
          ("latency_p50_ms", Samples.p50_ms t.samples);
          ("alloc_kwords_per_op", t.words /. fi ops /. 1e3);
          ("peak_rss_mb", peak_rss_mb ());
          ("setup_s", setup_s);
        ]
  in
  List.iter (fun m -> Printf.printf "mismatch: %s\n" m) (List.sort_uniq compare t.mismatches);
  let line name v unit = Printf.printf "  %-36s %14.6g %s\n" name v unit in
  List.iter (fun (m, v) -> line m.m_name v m.m_unit) metrics;
  let tail = Samples.tail_ms t.samples ctx.w.Workloads.tail in
  if not ctx.trace then
    line "latency_tail_ms" tail ("ms (" ^ Workloads.tail_label ctx.w ^ ", not gated)");
  let failed_frac = fi t.failed /. fi ops in
  line "failed_frac" failed_frac "(not gated)";
  let correct = t.failed = 0 && t.mismatches = [] && t.attempted > 0 in
  let meta =
    host_meta ()
    @ [
        ("workload", Json.Str ctx.w.Workloads.name);
        ("seed", Json.Num (fi ctx.seed));
        ("seconds", Json.Num ctx.seconds);
        ("trace", Json.Bool ctx.trace);
        ("tail", Json.Str (Workloads.tail_label ctx.w));
        ("latency_tail_ms", if ctx.trace then Json.Null else Json.Num tail);
        ("warmup_ops", Json.Num (fi ctx.warmup));
        ("ops", Json.Num (fi t.attempted));
        ("failed_frac", Json.Num failed_frac);
      ]
  in
  print_endline ("meta " ^ Json.to_string (Json.Obj meta));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (fi t.attempted));
            ("failed", Json.Num (fi t.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, v) ->
                     (m.m_name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.m_unit) ]))
                   metrics) );
          ]));
  if not correct then exit 1

(* -- every workload, each in a child process ------------------------------ *)

(* Runs this executable on one workload and returns its human-readable
   lines, its meta and its result, parsed. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (In_channel.input_all ic))
  in
  let status = Unix.close_process_in ic in
  let is_meta l = String.length l > 5 && String.sub l 0 5 = "meta " in
  let meta =
    List.find_map
      (fun l ->
        if is_meta l then Some (Json.of_string (String.sub l 5 (String.length l - 5)))
        else None)
      lines
  in
  match (status, meta, List.rev lines) with
  | Unix.WEXITED 0, Some meta, last :: rest ->
      Ok (List.filter (fun l -> not (is_meta l)) (List.rev rest), meta, Json.of_string last)
  | _ -> Error (String.concat "\n" lines)

let common_args ~seed ~seconds ~trace ~smoke =
  [ "--seed"; string_of_int seed; "--trace"; (if trace then "1" else "0") ]
  @ (match seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
  @ if smoke then [ "--smoke" ] else []

let run_all spec ~seed ~seconds ~trace ~json_out =
  let ok = ref true in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        Printf.printf "== %s\n%!" w.name;
        match
          run_child
            ([ "--workload"; w.name ] @ common_args ~seed ~seconds ~trace ~smoke:false)
        with
        | Ok (human, meta, result) ->
            List.iter print_endline human;
            (w.name, Json.Obj [ ("meta", meta); ("result", result) ])
        | Error out ->
            ok := false;
            Printf.printf "FAILED:\n%s\n" out;
            (w.name, Json.Null))
      Workloads.all
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("schema", Json.Str "maaa-e2e/1");
                    ("host", Json.Obj (host_meta ()));
                    ("seed", Json.Num (fi seed));
                    ("trace", Json.Bool trace);
                    ("run_seconds", Json.Num (Option.value seconds ~default:spec.run_seconds));
                    ("workloads", Json.Obj results);
                  ]));
          output_char oc '\n'))
    json_out;
  if not !ok then exit 1

(* Every workload in both modes with a couple of ops: each must pass its
   checks and print every listed metric, finite, with failed = 0. *)
let smoke spec =
  let problems = ref [] in
  List.iter
    (fun trace ->
      List.iter
        (fun (w : Workloads.t) ->
          let tag = Printf.sprintf "%s trace=%b" w.name trace in
          match
            run_child
              ([ "--workload"; w.name ]
              @ common_args ~seed:1 ~seconds:None ~trace ~smoke:true)
          with
          | Error out -> problems := (tag ^ ": run failed\n" ^ out) :: !problems
          | Ok (_, _, result) ->
              let wanted = if trace then spec.per_layer else spec.e2e in
              let metrics = Option.value (Json.member "metrics" result) ~default:Json.Null in
              let bad =
                List.filter
                  (fun m ->
                    match Option.bind (Json.member m.m_name metrics) (Json.member "value") with
                    | Some (Json.Num v) -> not (Float.is_finite v)
                    | _ -> true)
                  wanted
              in
              if bad <> [] then
                problems :=
                  (tag ^ ": missing or non-finite: "
                  ^ String.concat ", " (List.map (fun m -> m.m_name) bad))
                  :: !problems;
              if Json.member "failed" result <> Some (Json.Num 0.) then
                problems := (tag ^ ": failed ops") :: !problems)
        Workloads.all)
    [ false; true ];
  match !problems with
  | [] -> print_endline "e2e smoke: OK"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* -- compare -------------------------------------------------------------- *)

let compare_files spec a b =
  let load p = Json.of_string (In_channel.with_open_bin p In_channel.input_all) in
  let value file w m =
    Option.bind (Json.member "workloads" file) (Json.member w)
    |> Fun.flip Option.bind (Json.member "result")
    |> Fun.flip Option.bind (Json.member "metrics")
    |> Fun.flip Option.bind (Json.member m)
    |> Fun.flip Option.bind (Json.member "value")
    |> Fun.flip Option.bind Json.num
  in
  let fa = load a and fb = load b in
  let worse = ref 0 in
  Printf.printf "%-16s %-22s %14s %14s %9s %7s\n" "workload" "metric" "A" "B" "delta" "bound";
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun m ->
          match (value fa w.name m.m_name, value fb w.name m.m_name) with
          | Some va, Some vb ->
              let delta = (vb -. va) /. va in
              let regress = if m.lower_is_better then delta else -.delta in
              let out = regress > m.bound in
              if out then incr worse;
              Printf.printf "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n" w.name
                m.m_name va vb (delta *. 100.) (m.bound *. 100.)
                (if out then "  OUTSIDE" else "")
          | _ ->
              incr worse;
              Printf.printf "%-16s %-22s missing\n" w.name m.m_name)
        spec.e2e)
    Workloads.all;
  if !worse > 0 then begin
    Printf.printf "%d pair(s) outside their bound\n" !worse;
    exit 1
  end

(* -- command line --------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let trace = ref 0 and json_out = ref None and spans = ref None in
  let smoke_flag = ref false and probe = ref false and cmp = ref None in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "T measure for T seconds (default: BENCHMARK.json run_seconds)" );
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--json", Arg.String (fun s -> json_out := Some s), "OUT write all workloads' results");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE first traced op's spans (JSONL)");
      ("--smoke", Arg.Set smoke_flag, " a few ops per workload, both modes");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> cmp := Some (!a, b)) ]),
        "A B compare two --json files against the BENCHMARK.json bounds" );
      ("--setup-probe", Arg.Set probe, " (internal) set up, then exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] [--json OUT]\n\
     e2e.exe --compare A.json B.json | --smoke";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let spec = load_spec "BENCHMARK.json" in
  match (!cmp, !workload) with
  | Some (a, b), _ -> compare_files spec a b
  | None, None ->
      if !smoke_flag then smoke spec
      else run_all spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~json_out:!json_out
  | None, Some name ->
      let w =
        match Workloads.find name with
        | Some w -> w
        | None -> prerr_endline ("unknown workload " ^ name); exit 2
      in
      let trace = !trace = 1 in
      let ctx =
        {
          w;
          seed = !seed;
          seconds = Option.value !seconds ~default:spec.run_seconds;
          max_ops = (if !smoke_flag then 1 else max_int);
          warmup = (if !smoke_flag then 0 else w.Workloads.warmup);
          trace;
          spans_out =
            (match !spans with
            | Some p -> Some p
            | None when trace && not !smoke_flag ->
                Some (Printf.sprintf "_build/e2e/%s.spans.jsonl" name)
            | None -> None);
        }
      in
      if !probe then ignore (setup ctx)
      else
        run_one spec ctx ~smoke:!smoke_flag
          ~probe_args:
            ([ "--workload"; name; "--seed"; string_of_int !seed ]
            @ if !smoke_flag then [ "--smoke" ] else [])
