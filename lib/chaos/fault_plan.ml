type atom =
  | Corrupt_at of { tick : int; party : int; behavior : Behavior.t }
  | Partition of { from_tick : int; until_tick : int; group_of : int array }
  | Delay_spike of { from_tick : int; until_tick : int; factor : int }
  | Duplicate of { from_tick : int; until_tick : int; percent : int }
  | Reorder of { from_tick : int; until_tick : int; window : int }

type t = atom list

let corrupted plan =
  List.filter_map
    (function Corrupt_at { party; _ } -> Some party | _ -> None)
    plan
  |> List.sort_uniq compare

let validate ~cfg ~sync ~existing plan =
  let n = cfg.Config.n in
  let budget =
    (if sync then cfg.Config.ts else cfg.Config.ta) - List.length existing
  in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_window ~from_tick ~until_tick what =
    if from_tick < 0 || until_tick < from_tick then
      err "%s: bad window [%d, %d)" what from_tick until_tick
    else Ok ()
  in
  let rec go = function
    | [] ->
        if List.length (corrupted plan) > budget then
          err "corruption budget exceeded: %d adaptive targets, %d allowed"
            (List.length (corrupted plan))
            (max 0 budget)
        else Ok ()
    | Corrupt_at { tick; party; _ } :: rest ->
        if tick < 0 then err "corrupt_at: negative tick %d" tick
        else if party < 0 || party >= n then
          err "corrupt_at: party %d out of range" party
        else if List.mem party existing then
          err "corrupt_at: party %d already statically corrupted" party
        else go rest
    | Partition { from_tick; until_tick; group_of } :: rest -> (
        match check_window ~from_tick ~until_tick "partition" with
        | Error _ as e -> e
        | Ok () ->
            if Array.length group_of <> n then
              err "partition: group array has %d entries, want %d"
                (Array.length group_of) n
            else go rest)
    | Delay_spike { from_tick; until_tick; factor } :: rest -> (
        match check_window ~from_tick ~until_tick "delay_spike" with
        | Error _ as e -> e
        | Ok () -> if factor < 1 then err "delay_spike: factor < 1" else go rest)
    | Duplicate { from_tick; until_tick; percent } :: rest -> (
        match check_window ~from_tick ~until_tick "duplicate" with
        | Error _ as e -> e
        | Ok () ->
            if percent < 0 || percent > 100 then
              err "duplicate: percent %d outside [0, 100]" percent
            else go rest)
    | Reorder { from_tick; until_tick; window } :: rest -> (
        match check_window ~from_tick ~until_tick "reorder" with
        | Error _ as e -> e
        | Ok () -> if window < 0 then err "reorder: negative window" else go rest)
  in
  go plan

let in_window ~from_tick ~until_tick now = now >= from_tick && now < until_tick

let compile ~sync ~delta ~base plan ~rng ~now ~src ~dst =
  let d0 = base ~rng ~now ~src ~dst in
  let d =
    List.fold_left
      (fun d atom ->
        match atom with
        | Corrupt_at _ | Duplicate _ -> d
        | Partition { from_tick; until_tick; group_of } ->
            if
              in_window ~from_tick ~until_tick now
              && src < Array.length group_of
              && dst < Array.length group_of
              && group_of.(src) <> group_of.(dst)
            then max d (until_tick - now + 1)
            else d
        | Delay_spike { from_tick; until_tick; factor } ->
            if in_window ~from_tick ~until_tick now then d * factor else d
        | Reorder { from_tick; until_tick; window } ->
            if in_window ~from_tick ~until_tick now then
              d + Rng.int rng (window + 1)
            else d)
      d0 plan
  in
  if sync then max 1 (min d delta) else max 1 d

let install engine ~cfg ~inputs plan =
  (* Duplicate wrappers go on first: a later adaptive corruption replaces
     the victim's whole handler chain, which is fine — duplicates towards a
     corrupted party cannot affect safety. *)
  List.iter
    (function
      | Duplicate { from_tick; until_tick; percent } ->
          for i = 0 to Engine.n engine - 1 do
            let rng = Rng.split (Engine.rng engine) in
            Engine.wrap_party engine i (fun inner ev ->
                (match ev with
                | Engine.Deliver _ ->
                    if
                      in_window ~from_tick ~until_tick (Engine.now engine)
                      && Rng.int rng 100 < percent
                    then inner ev
                | Engine.Timer _ -> ());
                inner ev)
          done
      | _ -> ())
    plan;
  List.iter
    (function
      | Corrupt_at { tick; party; behavior } ->
          Engine.wrap_party engine party (fun inner ->
              let corrupted = ref false in
              fun ev ->
                if !corrupted then inner ev
                else if Engine.now engine >= tick then begin
                  corrupted := true;
                  (* the triggering event is absorbed: from this instant the
                     party is the adversary's *)
                  Behavior.install engine ~cfg ~me:party ~input:inputs.(party)
                    behavior
                end
                else inner ev);
          Engine.set_timer engine ~party ~at:tick ~tag:0
      | _ -> ())
    plan

let behavior_to_string = function
  | Behavior.Silent -> "silent"
  | Behavior.Crash_at t -> Printf.sprintf "crash@%d" t
  | Behavior.Honest_with_input v -> Printf.sprintf "poison%s" (Vec.to_string v)
  | Behavior.Equivocate (a, b) ->
      Printf.sprintf "equivocate%s/%s" (Vec.to_string a) (Vec.to_string b)
  | Behavior.Equivocate_split { values = a, b; assign } ->
      Printf.sprintf "equivocate-split%s/%s->%s" (Vec.to_string a)
        (Vec.to_string b)
        (String.concat ""
           (Array.to_list
              (Array.map (fun x -> if x <> 0 then "1" else "0") assign)))
  | Behavior.Halt_liar it -> Printf.sprintf "halt-liar:%d" it
  | Behavior.Spam { period; payload_bytes; until } ->
      Printf.sprintf "spam:period=%d,bytes=%d,until=%d" period payload_bytes until
  | Behavior.Garbage at -> Printf.sprintf "garbage@%d" at
  | Behavior.Lagger d -> Printf.sprintf "lagger:%d" d

let atom_to_string = function
  | Corrupt_at { tick; party; behavior } ->
      Printf.sprintf "corrupt_at{tick=%d;party=%d;behavior=%s}" tick party
        (behavior_to_string behavior)
  | Partition { from_tick; until_tick; group_of } ->
      Printf.sprintf "partition{[%d,%d);groups=%s}" from_tick until_tick
        (String.concat ""
           (Array.to_list (Array.map string_of_int group_of)))
  | Delay_spike { from_tick; until_tick; factor } ->
      Printf.sprintf "delay_spike{[%d,%d);x%d}" from_tick until_tick factor
  | Duplicate { from_tick; until_tick; percent } ->
      Printf.sprintf "duplicate{[%d,%d);%d%%}" from_tick until_tick percent
  | Reorder { from_tick; until_tick; window } ->
      Printf.sprintf "reorder{[%d,%d);window=%d}" from_tick until_tick window

let to_strings = List.map atom_to_string

(* -- Machine-readable round-trip encoding -------------------------------

   [atom_to_string] above is for humans; the explorer's quarantine files
   need plans that parse back. The grammar is deliberately tiny: atoms
   join with ';', fields with ',', behaviour sub-fields with ':', vector
   coordinates with '/' rendered as hex floats (bit-exact round trip),
   and 0/1 arrays as digit strings. No field ever contains a tab, so a
   repr embeds directly in a case-file line (Case). *)

let vec_to_repr v =
  String.concat "/"
    (List.map (fun x -> Printf.sprintf "%h" x) (Vec.to_list v))

let vec_of_repr s =
  match
    List.map float_of_string_opt (String.split_on_char '/' s)
  with
  | floats when List.for_all Option.is_some floats && floats <> [] ->
      Ok (Vec.of_list (List.map Option.get floats))
  | _ -> Error (Printf.sprintf "bad vector %S" s)

let digits_to_array s =
  let ok = ref true in
  let a =
    Array.init (String.length s) (fun i ->
        match s.[i] with '0' -> 0 | '1' -> 1 | _ -> ok := false; 0)
  in
  if !ok && Array.length a > 0 then Ok a
  else Error (Printf.sprintf "bad 0/1 array %S" s)

let behavior_to_repr = function
  | Behavior.Silent -> "s"
  | Behavior.Crash_at t -> Printf.sprintf "c:%d" t
  | Behavior.Honest_with_input v -> Printf.sprintf "h:%s" (vec_to_repr v)
  | Behavior.Equivocate (a, b) ->
      Printf.sprintf "e:%s:%s" (vec_to_repr a) (vec_to_repr b)
  | Behavior.Equivocate_split { values = a, b; assign } ->
      Printf.sprintf "x:%s:%s:%s" (vec_to_repr a) (vec_to_repr b)
        (String.concat ""
           (Array.to_list
              (Array.map (fun x -> if x <> 0 then "1" else "0") assign)))
  | Behavior.Halt_liar it -> Printf.sprintf "l:%d" it
  | Behavior.Spam { period; payload_bytes; until } ->
      Printf.sprintf "m:%d:%d:%d" period payload_bytes until
  | Behavior.Garbage at -> Printf.sprintf "g:%d" at
  | Behavior.Lagger d -> Printf.sprintf "w:%d" d

let ( let* ) = Result.bind

let int_of_repr s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad int %S" s)

let behavior_of_repr s =
  match String.split_on_char ':' s with
  | [ "s" ] -> Ok Behavior.Silent
  | [ "c"; t ] ->
      let* t = int_of_repr t in
      Ok (Behavior.Crash_at t)
  | [ "h"; v ] ->
      let* v = vec_of_repr v in
      Ok (Behavior.Honest_with_input v)
  | [ "e"; a; b ] ->
      let* a = vec_of_repr a in
      let* b = vec_of_repr b in
      Ok (Behavior.Equivocate (a, b))
  | [ "x"; a; b; assign ] ->
      let* a = vec_of_repr a in
      let* b = vec_of_repr b in
      let* assign = digits_to_array assign in
      Ok (Behavior.Equivocate_split { values = (a, b); assign })
  | [ "l"; it ] ->
      let* it = int_of_repr it in
      Ok (Behavior.Halt_liar it)
  | [ "m"; period; bytes; until ] ->
      let* period = int_of_repr period in
      let* payload_bytes = int_of_repr bytes in
      let* until = int_of_repr until in
      Ok (Behavior.Spam { period; payload_bytes; until })
  | [ "g"; at ] ->
      let* at = int_of_repr at in
      Ok (Behavior.Garbage at)
  | [ "w"; d ] ->
      let* d = int_of_repr d in
      Ok (Behavior.Lagger d)
  | _ -> Error (Printf.sprintf "bad behavior %S" s)

let atom_to_repr = function
  | Corrupt_at { tick; party; behavior } ->
      Printf.sprintf "C,%d,%d,%s" tick party (behavior_to_repr behavior)
  | Partition { from_tick; until_tick; group_of } ->
      Printf.sprintf "P,%d,%d,%s" from_tick until_tick
        (String.concat "."
           (Array.to_list (Array.map string_of_int group_of)))
  | Delay_spike { from_tick; until_tick; factor } ->
      Printf.sprintf "D,%d,%d,%d" from_tick until_tick factor
  | Duplicate { from_tick; until_tick; percent } ->
      Printf.sprintf "U,%d,%d,%d" from_tick until_tick percent
  | Reorder { from_tick; until_tick; window } ->
      Printf.sprintf "R,%d,%d,%d" from_tick until_tick window

let atom_of_repr s =
  match String.split_on_char ',' s with
  | [ "C"; tick; party; behavior ] ->
      let* tick = int_of_repr tick in
      let* party = int_of_repr party in
      let* behavior = behavior_of_repr behavior in
      Ok (Corrupt_at { tick; party; behavior })
  | [ "P"; from_tick; until_tick; groups ] ->
      let* from_tick = int_of_repr from_tick in
      let* until_tick = int_of_repr until_tick in
      let* group_of =
        List.fold_left
          (fun acc g ->
            let* acc = acc in
            let* g = int_of_repr g in
            Ok (g :: acc))
          (Ok [])
          (String.split_on_char '.' groups)
      in
      Ok
        (Partition
           { from_tick; until_tick; group_of = Array.of_list (List.rev group_of) })
  | [ "D"; from_tick; until_tick; factor ] ->
      let* from_tick = int_of_repr from_tick in
      let* until_tick = int_of_repr until_tick in
      let* factor = int_of_repr factor in
      Ok (Delay_spike { from_tick; until_tick; factor })
  | [ "U"; from_tick; until_tick; percent ] ->
      let* from_tick = int_of_repr from_tick in
      let* until_tick = int_of_repr until_tick in
      let* percent = int_of_repr percent in
      Ok (Duplicate { from_tick; until_tick; percent })
  | [ "R"; from_tick; until_tick; window ] ->
      let* from_tick = int_of_repr from_tick in
      let* until_tick = int_of_repr until_tick in
      let* window = int_of_repr window in
      Ok (Reorder { from_tick; until_tick; window })
  | _ -> Error (Printf.sprintf "bad atom %S" s)

let to_repr plan = String.concat ";" (List.map atom_to_repr plan)

let of_repr = function
  | "" -> Ok []
  | s ->
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* atom = atom_of_repr a in
          Ok (atom :: acc))
        (Ok [])
        (String.split_on_char ';' s)
      |> Result.map List.rev
