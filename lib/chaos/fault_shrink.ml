type outcome = {
  plan : Fault_plan.t;
  schedule : int list;
  tries : int;
  minimal : bool;
}

(* Simpler variants of one atom, strongest simplification first. Variants
   must stay valid whenever the original was (ticks only move toward 0,
   windows only shrink, magnitudes only weaken). *)
let candidates (atom : Fault_plan.atom) : Fault_plan.atom list =
  match atom with
  | Fault_plan.Corrupt_at { tick; party; behavior } ->
      (match behavior with
      | Behavior.Silent -> []
      | _ -> [ Fault_plan.Corrupt_at { tick; party; behavior = Behavior.Silent } ])
      @
      if tick > 0 then
        [
          Fault_plan.Corrupt_at { tick = 0; party; behavior };
          Fault_plan.Corrupt_at { tick = tick / 2; party; behavior };
        ]
      else []
  | Fault_plan.Partition { from_tick; until_tick; group_of } ->
      let len = until_tick - from_tick in
      (if from_tick > 0 then
         [
           Fault_plan.Partition { from_tick = 0; until_tick = len; group_of };
           Fault_plan.Partition
             {
               from_tick = from_tick / 2;
               until_tick = (from_tick / 2) + len;
               group_of;
             };
         ]
       else [])
      @
      if len > 1 then
        [
          Fault_plan.Partition
            { from_tick; until_tick = from_tick + max 1 (len / 2); group_of };
        ]
      else []
  | Fault_plan.Delay_spike { from_tick; until_tick; factor } ->
      let len = until_tick - from_tick in
      (if factor > 2 then
         [ Fault_plan.Delay_spike { from_tick; until_tick; factor = max 2 (factor / 2) } ]
       else [])
      @ (if from_tick > 0 then
           [ Fault_plan.Delay_spike { from_tick = 0; until_tick = len; factor } ]
         else [])
      @
      if len > 1 then
        [
          Fault_plan.Delay_spike
            { from_tick; until_tick = from_tick + max 1 (len / 2); factor };
        ]
      else []
  | Fault_plan.Duplicate { from_tick; until_tick; percent } ->
      let len = until_tick - from_tick in
      (if percent > 10 then
         [ Fault_plan.Duplicate { from_tick; until_tick; percent = max 10 (percent / 2) } ]
       else [])
      @ (if from_tick > 0 then
           [ Fault_plan.Duplicate { from_tick = 0; until_tick = len; percent } ]
         else [])
      @
      if len > 1 then
        [
          Fault_plan.Duplicate
            { from_tick; until_tick = from_tick + max 1 (len / 2); percent };
        ]
      else []
  | Fault_plan.Reorder { from_tick; until_tick; window } ->
      let len = until_tick - from_tick in
      (if window > 1 then
         [ Fault_plan.Reorder { from_tick; until_tick; window = max 1 (window / 2) } ]
       else [])
      @ (if from_tick > 0 then
           [ Fault_plan.Reorder { from_tick = 0; until_tick = len; window } ]
         else [])
      @
      if len > 1 then
        [
          Fault_plan.Reorder
            { from_tick; until_tick = from_tick + max 1 (len / 2); window };
        ]
      else []

(* The plan half: removal and numeric passes to a joint fixpoint, with
   [max_tries] oracle calls; [minimal] is false when the budget ran out. *)
let shrink_plan ~max_tries ~reproduces plan =
  let tries = ref 0 in
  let exhausted = ref false in
  let check p =
    if !tries >= max_tries then begin
      exhausted := true;
      false
    end
    else begin
      incr tries;
      reproduces p
    end
  in
  (* Phase 1: drop whole atoms to a fixpoint (1-minimality). *)
  let rec removal plan =
    let len = List.length plan in
    let rec try_drop i =
      if i >= len || !exhausted then None
      else
        let cand = List.filteri (fun j _ -> j <> i) plan in
        if check cand then Some cand else try_drop (i + 1)
    in
    match try_drop 0 with Some smaller -> removal smaller | None -> plan
  in
  (* Phase 2: per-atom numeric shrinking. Every candidate is tested against
     the current (already partially shrunk) plan, so the returned plan as a
     whole is known to reproduce. *)
  let numeric plan0 =
    let plan = ref plan0 in
    for i = 0 to List.length plan0 - 1 do
      let rec go () =
        let atom = List.nth !plan i in
        let rec try_cand = function
          | [] -> ()
          | cand :: rest ->
              let replaced =
                List.mapi (fun j a -> if j = i then cand else a) !plan
              in
              if (not !exhausted) && check replaced then begin
                plan := replaced;
                go ()
              end
              else try_cand rest
        in
        try_cand (candidates atom)
      in
      go ()
    done;
    !plan
  in
  (* Removal and numeric shrinking feed each other: a weakened atom may
     become removable, and a removal may make a previously-rejected
     weakening of another atom reproduce. Iterating both passes to a
     joint fixpoint is what makes the result 1-minimal in the strong
     sense (dropping any atom or applying any single candidate weakening
     stops reproducing) — a single removal pass after the numeric pass,
     as earlier versions did, can leave reachable weakenings behind.
     Termination: every accepted step strictly shrinks the atom count or
     some atom's numeric measure, both well-founded. *)
  let rec fix plan =
    let plan' = numeric (removal plan) in
    if !exhausted || plan' = plan then plan' else fix plan'
  in
  let plan = fix plan in
  (plan, not !exhausted)

(* Trailing default answers are behaviourally void: beyond the recorded
   prefix the chooser answers 0 anyway. *)
let canonical schedule =
  let rec drop = function 0 :: tl -> drop tl | s -> s in
  List.rev (drop (List.rev schedule))

(* Greedy left-to-right zeroing of schedule answers to a fixpoint. *)
let shrink_schedule ~check schedule =
  let rec zero_pass sched i =
    if i >= List.length sched then sched
    else if List.nth sched i = 0 then zero_pass sched (i + 1)
    else
      let cand = List.mapi (fun j x -> if j = i then 0 else x) sched in
      if check cand then zero_pass cand (i + 1) else zero_pass sched (i + 1)
  in
  let rec fix sched =
    let sched' = canonical (zero_pass sched 0) in
    if sched' = sched then sched else fix sched'
  in
  fix (canonical schedule)

let shrink ?(max_tries = 200) ~reproduces ?(schedule = []) plan =
  let tries = ref 0 in
  let reproduces p s =
    incr tries;
    reproduces p s
  in
  let schedule = shrink_schedule ~check:(reproduces plan) schedule in
  let plan, minimal =
    shrink_plan ~max_tries ~reproduces:(fun p -> reproduces p schedule) plan
  in
  let schedule = shrink_schedule ~check:(reproduces plan) schedule in
  { plan; schedule; tries = !tries; minimal }
