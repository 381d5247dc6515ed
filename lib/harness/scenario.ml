type budget = { max_events : int option; wall_seconds : float option }

let no_budget = { max_events = None; wall_seconds = None }

type protocol =
  | Maaa of Party.opts
  | Ew
  | Pure_sync of { rounds : int }
  | Pure_async of { iters : int }

let maaa = Maaa Party.default_opts

type t = {
  name : string;
  cfg : Config.t;
  seed : int64;
  policy : Engine.delay_policy;
  sync_network : bool;
  inputs : Vec.t list;
  corruptions : (int * Behavior.t) list;
  chaos : Fault_plan.t option;
  isolate : bool;
  protocol : protocol;
  transport : [ `Sim | `Net ];
  wire_chaos : Wire_chaos.plan option;
  budget : budget;
}

let make ?(name = "scenario") ?(seed = 1L) ?policy ?(sync_network = true)
    ?(corruptions = []) ?chaos ?(isolate = false) ?(protocol = maaa)
    ?(transport = `Sim)
    ?wire_chaos ?(budget = no_budget) ~cfg ~inputs () =
  if List.length inputs <> cfg.Config.n then
    invalid_arg "Scenario.make: need one input per party";
  List.iter
    (fun v ->
      if Vec.dim v <> cfg.Config.d then
        invalid_arg "Scenario.make: input dimension mismatch")
    inputs;
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= cfg.Config.n then
        invalid_arg "Scenario.make: corrupted party out of range")
    corruptions;
  let ids = List.map fst corruptions in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Scenario.make: duplicate corruption";
  (* Outside ΠAA a static corruption must be protocol-free (it wraps the
     scenario's own protocol on the endpoint) and a fault-plan one must be
     [Silent]: Fault_plan.install runs every other one through
     Behavior.install, which starts ΠAA code. *)
  (match protocol with
  | Maaa _ -> ()
  | Ew | Pure_sync _ | Pure_async _ ->
      let reject where b =
        invalid_arg
          (Printf.sprintf "Scenario.make: %s behaviour %s needs protocol maaa"
             where
             (Fault_plan.behavior_to_string b))
      in
      List.iter
        (fun (_, b) -> if Behavior.needs_maaa b then reject "static" b)
        corruptions;
      List.iter
        (function
          | Fault_plan.Corrupt_at { behavior = Behavior.Silent; _ } -> ()
          | Fault_plan.Corrupt_at { behavior; _ } -> reject "fault-plan" behavior
          | _ -> ())
        (Option.value chaos ~default:[]));
  (match chaos with
  | None -> ()
  | Some plan -> (
      match Fault_plan.validate ~cfg ~sync:sync_network ~existing:ids plan with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Scenario.make: bad fault plan: " ^ msg)));
  (match (wire_chaos, transport) with
  | Some _, `Sim ->
      invalid_arg "Scenario.make: wire_chaos requires the `Net transport"
  | _ -> ());
  if transport = `Net && cfg.Config.n > 255 then
    invalid_arg "Scenario.make: `Net transport frames party ids in one byte";
  (match budget.max_events with
  | Some e when e <= 0 -> invalid_arg "Scenario.make: budget.max_events <= 0"
  | _ -> ());
  (match budget.wall_seconds with
  | Some w when not (w > 0.) ->
      invalid_arg "Scenario.make: budget.wall_seconds <= 0"
  | _ -> ());
  let policy =
    match policy with
    | Some p -> p
    | None -> Network.lockstep ~delta:cfg.Config.delta
  in
  {
    name;
    cfg;
    seed;
    policy;
    sync_network;
    inputs;
    corruptions;
    chaos;
    isolate;
    protocol;
    transport;
    wire_chaos;
    budget;
  }

let replicate ~seeds t =
  List.map
    (fun seed ->
      { t with seed; name = Printf.sprintf "%s@%Ld" t.name seed })
    seeds

let honest t =
  List.filter
    (fun i -> not (List.mem_assoc i t.corruptions))
    (List.init t.cfg.Config.n Fun.id)

let chaos_corrupted t =
  match t.chaos with None -> [] | Some plan -> Fault_plan.corrupted plan

let graded_honest t =
  let adaptive = chaos_corrupted t in
  List.filter (fun i -> not (List.mem i adaptive)) (honest t)

let honest_inputs t =
  let inputs = Array.of_list t.inputs in
  List.map (fun i -> inputs.(i)) (graded_honest t)

module Spec = struct
  type 'a key = { what : string; spellings : (string * 'a) list }

  let ( let* ) = Result.bind

  let of_string k s =
    match List.assoc_opt s k.spellings with
    | Some v -> Ok v
    | None ->
        Error
          (Printf.sprintf "unknown %s %S (expected %s)" k.what s
             (String.concat "|" (List.map fst k.spellings)))

  (* every key spells each of its values *)
  let to_string k v = fst (List.find (fun (_, x) -> x = v) k.spellings)

  let values k = List.map snd k.spellings
  let key what spellings = { what; spellings }
  let protocol_tag = key "protocol" [ ("maaa", `Maaa); ("ew", `Ew) ]

  let mutant =
    key "mutant"
      [
        ("none", None);
        ("non-contracting", Some Party.Non_contracting_update);
        ("premature-output", Some Party.Premature_output);
      ]

  let layer =
    key "message layer"
      [
        ("interned", Party.Interned);
        ("batched", Party.Batched);
      ]

  let transport = key "transport" [ ("sim", `Sim); ("net", `Net) ]

  let protocol_fields p =
    let tag, (o : Party.opts) =
      match p with
      | Maaa o -> (`Maaa, o)
      | Ew -> (`Ew, Party.default_opts)
      | Pure_sync _ | Pure_async _ ->
          invalid_arg "Scenario.Spec: no spelling for the E12 baselines"
    in
    if o.mode <> Party.Estimate then
      invalid_arg "Scenario.Spec: no spelling for the Fixed_t mode";
    [
      ("protocol", to_string protocol_tag tag);
      ("mutant", to_string mutant o.mutant);
      ("layer", to_string layer o.layer);
    ]

  let protocol_of_fields fields =
    let d = Party.default_opts in
    let get name k default =
      match List.assoc_opt name fields with
      | None -> Ok default
      | Some s -> of_string k s
    in
    let only k v =
      Error
        (Printf.sprintf "%s %s applies only to protocol maaa" k.what
           (to_string k v))
    in
    let* tag = get "protocol" protocol_tag `Maaa in
    let* mutant_v = get "mutant" mutant d.mutant in
    let* layer_v = get "layer" layer d.layer in
    match tag with
    | `Maaa ->
        Ok (Maaa { d with mutant = mutant_v; layer = layer_v })
    (* under EW a ΠAA key may only be absent or at its default *)
    | `Ew when mutant_v <> d.mutant -> only mutant mutant_v
    | `Ew when layer_v <> d.layer -> only layer layer_v
    | `Ew -> Ok Ew

  let encode s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | ('%' | '\t' | '~' | '\x00' .. '\x1f' | '\x7f') as c ->
            Printf.bprintf b "%%%02x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let decode s =
    let n = String.length s in
    let b = Buffer.create n in
    let hex i =
      i < n && match s.[i] with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
    in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else if s.[i] <> '%' then (
        Buffer.add_char b s.[i];
        go (i + 1))
      else if hex (i + 1) && hex (i + 2) then (
        Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3))
      else Error (Printf.sprintf "bad %%-escape in %S" s)
    in
    go 0

  type request = {
    d : int;
    eps : float;
    delta : int;
    ts : int;
    ta : int;
    transport : [ `Sim | `Net ];
    seed : int64;
    inputs : Vec.t list;
  }

  let keys = [ "v"; "d"; "eps"; "delta"; "ts"; "ta"; "transport"; "seed"; "inputs" ]
  let split_nonempty c s = List.filter (( <> ) "") (String.split_on_char c s)

  let parse_vec ~d s =
    let parts = String.split_on_char ',' s in
    if List.length parts <> d then
      Error
        (Printf.sprintf "input %S has %d coordinates (d=%d)" s
           (List.length parts) d)
    else
      try Ok (Vec.of_list (List.map float_of_string parts))
      with _ -> Error (Printf.sprintf "input %S: bad float" s)

  let parse_inputs ~d s =
    match split_nonempty ';' s with
    | [] -> Error "inputs= is empty"
    | parts ->
        let* rev =
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              let* v = parse_vec ~d p in
              Ok (v :: acc))
            (Ok []) parts
        in
        Ok (List.rev rev)

  (* [key=value] pairs; the first token that is not a pair, names a key
     outside [keys] or repeats one is the error *)
  let rec fields_of acc = function
    | [] -> Ok acc
    | f :: rest -> (
        match String.index_opt f '=' with
        | None -> Error (Printf.sprintf "malformed field %S (want key=value)" f)
        | Some i ->
            let k = String.sub f 0 i in
            if not (List.mem k keys) then
              Error
                (Printf.sprintf "unknown field %S (expected %s)" k
                   (String.concat "|" keys))
            else if List.mem_assoc k acc then
              Error (Printf.sprintf "duplicate field %s=" k)
            else
              let v = String.sub f (i + 1) (String.length f - i - 1) in
              fields_of ((k, v) :: acc) rest)

  let of_line line =
    let line =
      (* tolerate CRLF clients *)
      if String.ends_with ~suffix:"\r" line then
        String.sub line 0 (String.length line - 1)
      else line
    in
    match split_nonempty ' ' line with
    | [] -> Error "empty request"
    | "agree" :: tokens ->
        let* kv = fields_of [] tokens in
        let req k =
          match List.assoc_opt k kv with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "missing required field %s=" k)
        in
        let num k parse what =
          let* v = req k in
          match parse v with
          | Some x -> Ok x
          | None -> Error (Printf.sprintf "%s expects %s (got %S)" k what v)
        in
        let int k = num k int_of_string_opt "an integer" in
        let* v = req "v" in
        let* () =
          if v = "1" then Ok ()
          else Error (Printf.sprintf "unsupported protocol version %S" v)
        in
        let* d = int "d" in
        let* eps = num "eps" float_of_string_opt "a float" in
        let* delta = int "delta" in
        let* ts = int "ts" in
        let* ta = int "ta" in
        let* transport =
          Option.fold ~none:(Ok `Sim) ~some:(of_string transport)
            (List.assoc_opt "transport" kv)
        in
        let* seed =
          if List.mem_assoc "seed" kv then
            num "seed" Int64.of_string_opt "a 64-bit integer"
          else Ok 1L
        in
        let* raw = req "inputs" in
        let* () =
          if d >= 1 then Ok ()
          else Error (Printf.sprintf "d must be >= 1 (got %d)" d)
        in
        let* inputs = parse_inputs ~d raw in
        Ok { d; eps; delta; ts; ta; transport; seed; inputs }
    | verb :: _ -> Error (Printf.sprintf "unknown verb %S (expected agree)" verb)

  let to_line r =
    let g = Printf.sprintf "%.17g" in
    let vec v = String.concat "," (List.map g (Vec.to_list v)) in
    Printf.sprintf
      "agree v=1 d=%d eps=%s delta=%d ts=%d ta=%d transport=%s seed=%Ld inputs=%s"
      r.d (g r.eps) r.delta r.ts r.ta (to_string transport r.transport) r.seed
      (String.concat ";" (List.map vec r.inputs))
end
