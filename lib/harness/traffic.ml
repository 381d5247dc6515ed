type klass =
  | Init_rbc
  | Iteration_rbc
  | Halt_rbc
  | Obc_reports
  | Witness_sets
  | Baseline
  | Junk
  | Batched_rbc
  | Ew
  | Step_init
  | Step_echo
  | Step_ready

let klass_of = function
  | Message.Rbc ({ tag = Message.Init_value | Message.Init_report; _ }, _, _) ->
      Init_rbc
  | Message.Rbc ({ tag = Message.Obc_value _; _ }, _, _) -> Iteration_rbc
  | Message.Rbc ({ tag = Message.Halt _; _ }, _, _) -> Halt_rbc
  | Message.Rbc ({ tag = Message.Async_value _ | Message.Async_report _; _ }, _, _)
  | Message.Sync_round _ ->
      Baseline
  | Message.Rbc_batch _ -> Batched_rbc
  | Message.Ew_value _ | Message.Ew_echo _ | Message.Ew_report _ -> Ew
  | Message.Obc_report _ -> Obc_reports
  | Message.Witness_set _ -> Witness_sets
  | Message.Junk _ -> Junk

let klass_name = function
  | Init_rbc -> "Pi_init rBC"
  | Iteration_rbc -> "iteration rBC"
  | Halt_rbc -> "halt rBC"
  | Obc_reports -> "oBC reports"
  | Witness_sets -> "witness sets"
  | Baseline -> "baseline"
  | Junk -> "junk"
  | Batched_rbc -> "batched rBC"
  | Ew -> "EW direct"
  | Step_init -> "rBC step: init"
  | Step_echo -> "rBC step: echo"
  | Step_ready -> "rBC step: ready"

let all_klasses =
  [
    Init_rbc;
    Iteration_rbc;
    Halt_rbc;
    Obc_reports;
    Witness_sets;
    Baseline;
    Junk;
    Batched_rbc;
    Ew;
    Step_init;
    Step_echo;
    Step_ready;
  ]

let index = function
  | Init_rbc -> 0
  | Iteration_rbc -> 1
  | Halt_rbc -> 2
  | Obc_reports -> 3
  | Witness_sets -> 4
  | Baseline -> 5
  | Junk -> 6
  | Batched_rbc -> 7
  | Ew -> 8
  | Step_init -> 9
  | Step_echo -> 10
  | Step_ready -> 11

let num_klasses = 12

let step_index = function
  | Message.Init -> index Step_init
  | Message.Echo -> index Step_echo
  | Message.Ready -> index Step_ready

(* The accounting fold behind the engine's send-path counters. Physical classes (0..8) partition the messages;
   the step classes (9..11) additionally attribute every logical rBC
   vote — whether it travelled standalone or inside a batch — to its
   Bracha step, so the two groupings overlap by design. *)
let classify_into msg emit =
  match msg with
  | Message.Rbc (_, step, _) as m ->
      let sz = Message.size_of m in
      emit (index (klass_of m)) sz;
      emit (step_index step) sz
  | Message.Rbc_batch entries as m ->
      emit (index Batched_rbc) (Message.size_of m);
      List.iter
        (fun ((_, step, _) as e) ->
          emit (step_index step) (Message.size_of_entry e))
        entries
  | m -> emit (index (klass_of m)) (Message.size_of m)

type t = { counts : int array; byte_counts : int array }

let of_engine engine =
  { counts = Engine.class_messages engine; byte_counts = Engine.class_bytes engine }

let count t k = t.counts.(index k)
let bytes t k = t.byte_counts.(index k)

(* Total over the physical classes only — the step rows re-count rBC
   votes in a second grouping and must not inflate the sum. *)
let total t =
  let acc = ref 0 in
  for i = 0 to index Ew do
    acc := !acc + t.counts.(i)
  done;
  !acc

let to_rows t =
  List.map (fun k -> (klass_name k, count t k, bytes t k)) all_klasses
