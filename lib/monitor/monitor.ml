type invariant =
  | Validity
  | Agreement
  | Contraction
  | Double_output
  | Malformed_message

let invariant_name = function
  | Validity -> "validity"
  | Agreement -> "agreement"
  | Contraction -> "contraction"
  | Double_output -> "double-output"
  | Malformed_message -> "malformed-message"

let all_invariants =
  [ Validity; Agreement; Contraction; Double_output; Malformed_message ]

type violation = {
  invariant : invariant;
  party : int;
  time : int;
  detail : string;
}

type t = {
  cfg : Config.t;
  honest : bool array;
  honest_inputs : Vec.t list;
  (* iter -> (party, value) in arrival order *)
  iter_values : (int, (int * Vec.t) list ref) Hashtbl.t;
  outputs : (int, Vec.t * int * int) Hashtbl.t;  (* party -> v, iter, time *)
  mutable pending : (int * int * Vec.t * int) list;  (* party, iter, v, time *)
  mutable violations : violation list;  (* reverse detection order *)
  mutable checks : int;
}

(* Same LP tolerance the harness grades Validity with. *)
let hull_eps = 1e-6

let create ~cfg ~honest ~honest_inputs =
  let h = Array.make cfg.Config.n false in
  List.iter (fun i -> if i >= 0 && i < cfg.Config.n then h.(i) <- true) honest;
  {
    cfg;
    honest = h;
    honest_inputs;
    iter_values = Hashtbl.create 16;
    outputs = Hashtbl.create 8;
    pending = [];
    violations = [];
    checks = 0;
  }

let flag t invariant ~party ~time detail =
  t.violations <- { invariant; party; time; detail } :: t.violations

let values_at t iter =
  match Hashtbl.find_opt t.iter_values iter with
  | Some l -> List.rev !l
  | None -> []

let record_value t ~party ~iter v =
  match Hashtbl.find_opt t.iter_values iter with
  | Some l -> l := (party, v) :: !l
  | None -> Hashtbl.add t.iter_values iter (ref [ (party, v) ])

let check_validity t ~party ~now ~what v =
  t.checks <- t.checks + 1;
  if not (Membership.in_hull ~eps:hull_eps t.honest_inputs v) then
    flag t Validity ~party ~time:now
      (Printf.sprintf "%s %s outside hull of honest inputs" what
         (Vec.to_string v))

let on_iteration t ~party ~now ~iter v =
  if party >= 0 && party < t.cfg.Config.n && t.honest.(party) then begin
    record_value t ~party ~iter v;
    if iter = 0 then check_validity t ~party ~now ~what:"Pi_init output" v
    else begin
      t.checks <- t.checks + 1;
      let prev = List.map snd (values_at t (iter - 1)) in
      (* The hull of I_{iter-1} only grows as stragglers report, so "inside
         the partial hull" is conclusive; "outside" is decided at summary
         time against the complete table. *)
      if prev = [] || not (Membership.in_hull ~eps:hull_eps prev v) then
        t.pending <- (party, iter, v, now) :: t.pending
    end
  end

let on_output t ~party ~now ~iter v =
  if party >= 0 && party < t.cfg.Config.n && t.honest.(party) then begin
    t.checks <- t.checks + 1;
    if Hashtbl.mem t.outputs party then
      flag t Double_output ~party ~time:now
        (Printf.sprintf "second output at iteration %d" iter)
    else begin
      Hashtbl.add t.outputs party (v, iter, now);
      check_validity t ~party ~now ~what:"output" v
    end
  end

(* -- honest-message well-formedness ------------------------------------- *)

let ok_party t p = p >= 0 && p < t.cfg.Config.n

let ok_pairs t pairs =
  List.for_all (fun (p, v) -> ok_party t p && Vec.dim v = t.cfg.Config.d) pairs

(* One rBC vote — standalone packet or batch entry, same rules. *)
let malformed_rbc t id payload : string option =
  if not (ok_party t id.Message.origin) then
    Some (Printf.sprintf "rBC origin %d out of range" id.Message.origin)
  else
    let tag_ok =
      match id.Message.tag with
      | Message.Init_value | Message.Init_report -> true
      | Message.Obc_value it
      | Message.Async_value it
      | Message.Async_report it ->
          it >= 1
      | Message.Halt it -> (
          it >= 1 && match payload with Message.Pint j -> j = it | _ -> false)
    in
    if not tag_ok then Some "rBC tag/payload mismatch"
    else
      match payload with
      | Message.Pvec v ->
          if Vec.dim v = t.cfg.Config.d then None
          else Some "rBC value dimension mismatch"
      | Message.Ppairs pairs ->
          if ok_pairs t pairs then None else Some "rBC pairs invalid"
      | Message.Pint i -> if i >= 0 then None else Some "negative rBC int"
      | Message.Pparties ps ->
          if List.for_all (ok_party t) ps then None
          else Some "rBC party list out of range"

let malformed t (msg : Message.t) : string option =
  match msg with
  | Message.Junk _ -> Some "honest party sent junk"
  | Message.Witness_set { parties = ws; _ } ->
      if List.for_all (ok_party t) ws then None
      else Some "witness set names out-of-range party"
  | Message.Obc_report { iter; pairs; _ } ->
      if iter < 1 then Some (Printf.sprintf "oBC report for iteration %d" iter)
      else if not (ok_pairs t pairs) then Some "oBC report with invalid pairs"
      else None
  | Message.Sync_round { round; value } ->
      if round < 0 then Some "negative baseline round"
      else if Vec.dim value <> t.cfg.Config.d then
        Some "baseline value dimension mismatch"
      else None
  | Message.Ew_value { iter; value; _ } ->
      if iter < 1 then Some (Printf.sprintf "EW value for iteration %d" iter)
      else if Vec.dim value <> t.cfg.Config.d then
        Some "EW value dimension mismatch"
      else None
  | Message.Ew_echo { iter; pairs; _ } ->
      if iter < 1 then Some (Printf.sprintf "EW echo for iteration %d" iter)
      else if not (ok_pairs t pairs) then Some "EW echo with invalid pairs"
      else None
  | Message.Ew_report { iter; pairs; _ } ->
      if iter < 1 then Some (Printf.sprintf "EW report for iteration %d" iter)
      else if not (ok_pairs t pairs) then Some "EW report with invalid pairs"
      else None
  | Message.Rbc_batch entries ->
      if entries = [] then Some "empty rBC batch"
      else
        List.find_map
          (fun (id, _step, payload) -> malformed_rbc t id payload)
          entries
  | Message.Rbc (id, _step, payload) -> malformed_rbc t id payload

let on_trace t (ev : Message.t Engine.trace_event) =
  match ev with
  | Engine.Sent { src; at; msg; _ } when ok_party t src && t.honest.(src) -> (
      t.checks <- t.checks + 1;
      match malformed t msg with
      | Some detail -> flag t Malformed_message ~party:src ~time:at detail
      | None -> ())
  | _ -> ()

(* -- end-of-run --------------------------------------------------------- *)

type summary = {
  checks : int;
  violations : violation list;
  counts : (string * int) list;
  final_diameter : float;
  eps : float;
  honest_outputs : int;
  honest_expected : int;
}

let total_violations s = List.length s.violations

let summary t =
  let extra = ref [] in
  let extra_checks = ref 0 in
  (* Deferred containment checks, now against the complete tables. *)
  List.iter
    (fun (party, iter, v, time) ->
      incr extra_checks;
      let prev = List.map snd (values_at t (iter - 1)) in
      let inside = prev <> [] && Membership.in_hull ~eps:hull_eps prev v in
      if not inside then
        extra :=
          {
            invariant = Contraction;
            party;
            time;
            detail =
              Printf.sprintf
                "iteration-%d value %s outside hull of %d honest \
                 iteration-%d values"
                iter (Vec.to_string v) (List.length prev) (iter - 1);
          }
          :: !extra)
    (List.rev t.pending);
  (* ε-agreement over every pair of honest outputs. *)
  let outs =
    Hashtbl.fold (fun p (v, _, time) acc -> (p, v, time) :: acc) t.outputs []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let eps = t.cfg.Config.eps in
  let diameter = ref 0. in
  let rec pairs = function
    | [] -> ()
    | (p, v, _) :: rest ->
        List.iter
          (fun (q, w, time_q) ->
            incr extra_checks;
            let d = Vec.dist v w in
            if d > !diameter then diameter := d;
            if d > eps +. 1e-9 then
              extra :=
                {
                  invariant = Agreement;
                  party = -1;
                  time = time_q;
                  detail =
                    Printf.sprintf
                      "outputs of %d and %d are %.6g apart (eps = %g)" p q d
                      eps;
                }
                :: !extra)
          rest;
        pairs rest
  in
  pairs outs;
  let violations = List.rev t.violations @ List.rev !extra in
  let counts =
    List.map
      (fun inv ->
        ( invariant_name inv,
          List.length (List.filter (fun v -> v.invariant = inv) violations) ))
      all_invariants
  in
  {
    checks = t.checks + !extra_checks;
    violations;
    counts;
    final_diameter = !diameter;
    eps;
    honest_outputs = List.length outs;
    honest_expected = Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 t.honest;
  }
