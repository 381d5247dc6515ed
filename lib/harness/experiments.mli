(** The experiment suite: one entry per paper artefact (figures, theorems,
    quantitative lemma claims), as indexed in DESIGN.md §3. Each experiment
    prints a self-contained report (tables included) to stdout and returns
    [true] when every checked property held. [EXPERIMENTS.md] records the
    reference output. *)

val find_opt : string -> (domains:int -> bool) option
(** The runner for the experiment with the given id ([e1] … [e16]), or
    [None] for an unknown id. [run ~domains] fans the experiment's
    independent scenario batches out to [domains] worker domains
    ({!Runner.run_batch}). Reports are byte-identical for any value —
    scenarios are built before submission, results are joined back into
    submission order, and all printing happens after the join. *)

val run_all : domains:int -> bool
(** Runs every experiment; [true] iff all passed. *)
