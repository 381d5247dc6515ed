(** The experiment suite: one entry per paper artefact (figures, theorems,
    quantitative lemma claims), as indexed in DESIGN.md §3. [EXPERIMENTS.md]
    records the reference output.

    The work is split between one driver and the experiments. An experiment
    prints its report body (tables included) to stdout and states each
    claim with the failure message to print if it does not hold. The
    driver prints the [=== title ===] header before the body and the
    [RESULT: PASS] or [RESULT: FAIL] verdict after it, listing every failed
    claim, and returns [true] when all of them held. *)

val find_opt : string -> (domains:int -> bool) option
(** The runner for the experiment with the given id ([e1] … [e16]), or
    [None] for an unknown id. [run ~domains] fans the experiment's
    independent scenario batches out to [domains] worker domains
    ({!Runner.run_batch}). Reports are byte-identical for any value —
    scenarios are built before submission, results are joined back into
    submission order, and all printing happens after the join. *)

val run_all : domains:int -> bool
(** Runs every experiment; [true] iff all passed. *)
