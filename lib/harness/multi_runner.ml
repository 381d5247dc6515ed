(* Kept only for bench/e2e, whose traced serve pass still reports the
   [mux.*] rows through these two names. Every scenario runs on its own
   engine; this module goes with those rows in the next benchmark
   change. *)

let run_many scenarios = Runner.run_batch scenarios

type group_stats = {
  safe_hits : int;
  safe_misses : int;
  intern_hits : int;
  intern_misses : int;
}

let group_stats results =
  List.fold_left
    (fun g (r : Runner.result) ->
      let c = r.Runner.caches in
      {
        safe_hits = g.safe_hits + c.Runner.safe_hits;
        safe_misses = g.safe_misses + c.safe_misses;
        intern_hits = g.intern_hits + c.intern_hits;
        intern_misses = g.intern_misses + c.intern_misses;
      })
    { safe_hits = 0; safe_misses = 0; intern_hits = 0; intern_misses = 0 }
    results
