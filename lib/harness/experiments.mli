(** The experiment suite: one entry per paper artefact (figures, theorems,
    quantitative lemma claims), as indexed in DESIGN.md §3. Each experiment
    prints a self-contained report (tables included) to stdout and returns
    [true] when every checked property held. [EXPERIMENTS.md] records the
    reference output. *)

val set_domains : int -> unit
(** Worker-domain count for the independent scenario batches inside the
    experiments (they go through {!Runner.run_batch}). Default [1]
    (sequential). Reports are byte-identical for any value — scenarios are
    built before submission, results are joined back into submission
    order, and all printing happens after the join. *)

val all : (string * string * (unit -> bool)) list
(** [(id, title, run)] for e1 … e16, in order. *)

val find_opt : string -> (unit -> bool) option
(** The runner for the experiment with the given id ([e1] … [e16]), or
    [None] for an unknown id. *)

val run_one : string -> bool
(** Runs the experiment with the given id ([e1] … [e16]).
    @raise Not_found for an unknown id (prefer {!find_opt}). *)

val run_all : unit -> bool
(** Runs every experiment; [true] iff all passed. *)
