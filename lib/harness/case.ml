type verdict = Violates of string list | Incomplete

type t = {
  spec : string;
  plan : Fault_plan.t;
  schedule : int list;
  verdict : verdict;
  shrunk_plan : Fault_plan.t;
  shrunk_schedule : int list;
  tries : int;
  minimal : bool;
}

(* -- running one case -- *)

exception Cut

type run = { result : Runner.result option; answers : int list; points : int }

let run ?tracer ?beyond scen ~plan ~schedule =
  let left = ref schedule and answers = ref [] and points = ref 0 in
  let chooser engine (cands : Message.t Engine.choice array) =
    incr points;
    let i =
      match !left with
      | i :: rest ->
          left := rest;
          (* a prefix recorded against this very scenario always fits; an
             answer out of range means a stale case file *)
          if i >= Array.length cands then raise Cut;
          i
      | [] -> (
          match beyond with Some f -> f engine cands !answers | None -> 0)
    in
    answers := i :: !answers;
    i
  in
  (* an always-0 chooser is byte-identical to none, so a plain replay
     installs none *)
  let on_engine =
    if schedule = [] && beyond = None then None
    else Some (fun engine -> Engine.set_chooser engine (chooser engine))
  in
  let scen =
    { scen with Scenario.chaos = (if plan = [] then None else Some plan) }
  in
  let result =
    try Some (Runner.run ~monitor:true ?tracer ?on_engine scen)
    with Cut -> None
  in
  { result; answers = List.rev !answers; points = !points }

let violated (result : Runner.result) =
  let from_monitor =
    match result.Runner.monitor with
    | None -> []
    | Some s ->
        List.map
          (fun v -> Monitor.invariant_name v.Monitor.invariant)
          s.Monitor.violations
  in
  let flags =
    if result.Runner.termination = Runner.Completed then
      (if not result.Runner.live then [ "liveness" ] else [])
      @ (if result.Runner.live && not result.Runner.valid then [ "validity" ]
         else [])
      @
      if result.Runner.live && not result.Runner.agreement then [ "agreement" ]
      else []
    else []
  in
  List.sort_uniq compare (from_monitor @ flags)

let reproduces scen verdict ~plan ~schedule =
  match ((run scen ~plan ~schedule).result, verdict) with
  | None, _ -> false
  | Some r, Violates invs ->
      let got = violated r in
      List.for_all (fun i -> List.mem i got) invs
  | Some r, Incomplete -> r.Runner.termination <> Runner.Completed

let shrink ~spec scen verdict ~plan ~schedule =
  let o =
    Fault_shrink.shrink ~schedule
      ~reproduces:(fun plan schedule -> reproduces scen verdict ~plan ~schedule)
      plan
  in
  {
    spec;
    plan;
    schedule = Fault_shrink.canonical schedule;
    verdict;
    shrunk_plan = o.Fault_shrink.plan;
    shrunk_schedule = o.Fault_shrink.schedule;
    tries = o.Fault_shrink.tries;
    minimal = o.Fault_shrink.minimal;
  }

(* -- the line codec -- *)

let schema = "maaa-case/1"

type fields = (string * string) list

let ( let* ) = Result.bind

let line tag fields =
  String.concat "\t"
    ((tag :: List.map (fun (k, v) -> k ^ "=" ^ Scenario.Spec.encode v) fields)
    @ [ "." ])

(* [key=value] tokens; [value] decodes each value *)
let key_values ~value tokens =
  List.fold_right
    (fun kv acc ->
      let* acc = acc in
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "%S is not key=value" kv)
      | Some i ->
          let* v = value (String.sub kv (i + 1) (String.length kv - i - 1)) in
          Ok ((String.sub kv 0 i, v) :: acc))
    tokens (Ok [])

let parse_line s =
  match List.rev (String.split_on_char '\t' s) with
  | "." :: rev -> (
      match List.rev rev with
      | tag :: kvs ->
          let* fields = key_values ~value:Scenario.Spec.decode kvs in
          Ok (tag, fields)
      | [] -> Error "empty line")
  | _ -> Error "not a case-file line (no \".\" sentinel)"

let field fields key parse =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing field %s" key)
  | Some v -> (
      match parse v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad %s %S" key v))

let ints l = String.concat "," (List.map string_of_int l)

let ints_of = function
  | "" -> Some []
  | s ->
      List.fold_right
        (fun p acc ->
          match (acc, int_of_string_opt p) with
          | Some tl, Some i when i >= 0 -> Some (i :: tl)
          | _ -> None)
        (String.split_on_char ',' s) (Some [])

let verdict_repr = function
  | Incomplete -> "incomplete"
  | Violates invs -> "violates:" ^ String.concat "," invs

let verdict_of = function
  | "incomplete" -> Some Incomplete
  | s when String.starts_with ~prefix:"violates:" s ->
      let invs = String.sub s 9 (String.length s - 9) in
      Some (Violates (List.filter (( <> ) "") (String.split_on_char ',' invs)))
  | _ -> None

let plan_of s = Result.to_option (Fault_plan.of_repr s)

let to_fields c =
  [
    ("spec", c.spec);
    ("plan", Fault_plan.to_repr c.plan);
    ("schedule", ints c.schedule);
    ("verdict", verdict_repr c.verdict);
    ("shrunk-plan", Fault_plan.to_repr c.shrunk_plan);
    ("shrunk-schedule", ints c.shrunk_schedule);
    ("tries", string_of_int c.tries);
    ("minimal", string_of_bool c.minimal);
  ]

let of_fields fields =
  let f key parse = field fields key parse in
  let* spec = f "spec" Option.some in
  let* plan = f "plan" plan_of in
  let* schedule = f "schedule" ints_of in
  let* verdict = f "verdict" verdict_of in
  let* shrunk_plan = f "shrunk-plan" plan_of in
  let* shrunk_schedule = f "shrunk-schedule" ints_of in
  let* tries = f "tries" int_of_string_opt in
  let* minimal = f "minimal" bool_of_string_opt in
  Ok { spec; plan; schedule; verdict; shrunk_plan; shrunk_schedule; tries; minimal }

(* -- spec lines -- *)

let spec kind keys =
  String.concat " " (kind :: List.map (fun (k, v) -> k ^ "=" ^ v) keys)

let spec_fields s =
  match String.split_on_char ' ' s with
  | kind :: keys ->
      let* keys = key_values ~value:Result.ok keys in
      Ok (kind, keys)
  | [] -> Error "empty spec"
