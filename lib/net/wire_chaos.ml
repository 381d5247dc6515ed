(* Wire-level chaos: frame-layer faults the perfect link must mask.

   The shapes deliberately mirror lib/harness's Fault_plan atoms, one
   layer down: where Fault_plan perturbs logical message delivery inside
   the simulator, these atoms perturb physical frames between the link
   state machines and the socket — drop, duplicate, reorder, delay
   spikes, and link flaps that kill the TCP connection outright. A
   correct perfect link hides all of it: the differential harness
   demands byte-identical logical results under any of these plans.

   Decisions are drawn from a per-directed-link RNG stream seeded from
   (master seed, src, dst), so a plan is reproducible for a fixed seed
   regardless of how many links exist or which order frames flow.
   HELLO frames are exempt — chaos models a lossy wire, not a broken
   handshake; flaps cover connection-level failure.

   Verdicts are sender-side, pre-write: [Deliver delays] sends one copy
   per list element, each after that many wire ticks (0 = now); [Drop]
   sends nothing (the sender's retransmission timer recovers). *)

type atom =
  | Drop of { percent : int }
  | Duplicate of { percent : int }
  | Reorder of { percent : int; hold : int }
  | Delay_spike of { from_tick : int; until_tick : int; hold : int }
  | Link_flap of { at_tick : int; down_for : int }

type plan = src:int -> dst:int -> atom list

type link_state = { atoms : atom list; rng : Rng.t }

type t = {
  links : link_state array array;  (* [src].[dst] *)
  n : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable held : int;
}

let create ~seed ~n (plan : plan) =
  let links =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            let rng =
              Rng.create
                (Int64.add seed (Int64.of_int ((src * 257) + dst + 1)))
            in
            { atoms = plan ~src ~dst; rng }))
  in
  { links; n; dropped = 0; duplicated = 0; held = 0 }

let dropped t = t.dropped
let duplicated t = t.duplicated
let held t = t.held

let hit rng percent = percent > 0 && Rng.int rng 100 < percent

type verdict = Deliver of int list | Drop_frame

(* Atoms compose left to right over a working copy-list of delays. *)
let on_frame t ~src ~dst ~ftype ~tick =
  match ftype with
  | Wire.Hello -> Deliver [ 0 ]
  | Wire.Data | Wire.Ack ->
      let ls = t.links.(src).(dst) in
      let verdict =
        List.fold_left
          (fun v atom ->
            match v with
            | Drop_frame -> Drop_frame
            | Deliver delays -> (
                match atom with
                | Drop { percent } ->
                    if hit ls.rng percent then begin
                      t.dropped <- t.dropped + 1;
                      Drop_frame
                    end
                    else Deliver delays
                | Duplicate { percent } ->
                    if hit ls.rng percent then begin
                      t.duplicated <- t.duplicated + 1;
                      Deliver (delays @ [ 0 ])
                    end
                    else Deliver delays
                | Reorder { percent; hold } ->
                    if hit ls.rng percent then begin
                      t.held <- t.held + 1;
                      (* hold the first copy back so later frames of the
                         same link overtake it *)
                      match delays with
                      | d :: rest -> Deliver ((d + hold) :: rest)
                      | [] -> Deliver [ hold ]
                    end
                    else Deliver delays
                | Delay_spike { from_tick; until_tick; hold } ->
                    if tick >= from_tick && tick < until_tick then begin
                      t.held <- t.held + 1;
                      Deliver (List.map (fun d -> d + hold) delays)
                    end
                    else Deliver delays
                | Link_flap _ -> Deliver delays))
          (Deliver [ 0 ]) ls.atoms
      in
      verdict

(* Flaps are connection-level, polled by the runtime each wire tick:
   [(src, dst, down_for)] for every flap whose trigger tick is [tick].
   The runtime force-closes the connection carrying that directed link
   and refuses to re-dial for [down_for] ticks. *)
let flaps_due t ~tick =
  let out = ref [] in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      List.iter
        (function
          | Link_flap { at_tick; down_for } when at_tick = tick ->
              out := (src, dst, down_for) :: !out
          | _ -> ())
        t.links.(src).(dst).atoms
    done
  done;
  !out

(* The earliest flap trigger strictly after [after], so a runtime that
   skips idle ticks can still land on every flap exactly. *)
let next_flap t ~after =
  let next = ref max_int in
  Array.iter
    (Array.iter (fun ls ->
         List.iter
           (function
             | Link_flap { at_tick; _ } when at_tick > after ->
                 next := min !next at_tick
             | _ -> ())
           ls.atoms))
    t.links;
  if !next = max_int then None else Some !next
