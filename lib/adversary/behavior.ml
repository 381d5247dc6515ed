type t =
  | Silent
  | Crash_at of int
  | Honest_with_input of Vec.t
  | Equivocate of Vec.t * Vec.t
  | Equivocate_split of { values : Vec.t * Vec.t; assign : int array }
  | Halt_liar of int
  | Spam of { period : int; payload_bytes : int; until : int }
  | Garbage of int
  | Lagger of int

let equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to =
  let p = Party.attach ~cfg ~me engine in
  Party.start p va;
  List.iter
    (fun tag ->
      for dst = 0 to cfg.Config.n - 1 do
        if lied_to dst then
          Engine.send engine ~src:me ~dst
            (Message.Rbc
               ( { Message.tag; origin = me },
                 Message.Init,
                 Message.Pvec vb ))
      done)
    [ Message.Init_value; Message.Obc_value 1 ]

(* The behaviours that need ΠAA internals; every other one acts on the
   party's endpoint alone and so applies to any protocol. *)
let needs_maaa = function
  | Equivocate _ | Equivocate_split _ | Halt_liar _ | Garbage _ -> true
  | Silent | Honest_with_input _ | Crash_at _ | Spam _ | Lagger _ -> false

(* The lag gate's timer tag: negative, which no protocol arms, so the
   gate never fires a protocol's own timer. *)
let gate = -1

let on_endpoint (ep : Message.t Transport.endpoint) ~input ~honest b =
  match b with
  | Silent -> ()
  | Honest_with_input v -> honest ep v
  | Crash_at tick ->
      honest
        {
          ep with
          set_handler =
            (fun h ->
              ep.set_handler (fun ev -> if ep.now () <= tick then h ev));
        }
        input
  | Lagger delay ->
      (* Deliveries before [delay] queue up, as on a real socket; the
         first event at or after it starts the party and replays the
         queue. The gate timer itself never reaches the party. *)
      let handler = ref ignore in
      let started = ref false in
      let backlog = ref [] in
      let start () =
        started := true;
        honest { ep with set_handler = (fun h -> handler := h) } input;
        List.iter !handler (List.rev !backlog)
      in
      ep.set_handler (fun ev ->
          match ev with
          | Transport.Timer tag when tag = gate ->
              if not !started then start ()
          | _ when !started -> !handler ev
          | Transport.Deliver _ when ep.now () >= delay ->
              start ();
              !handler ev
          | Transport.Deliver _ -> backlog := ev :: !backlog
          | Transport.Timer _ -> ());
      ep.set_timer ~at:delay ~tag:gate
  | Spam { period; payload_bytes; until } ->
      (* Periodic junk to every party, bounded by [until] so that the
         run's event queue still drains. *)
      ep.set_handler (function
        | Transport.Timer _ ->
            ep.send_all (Message.Junk payload_bytes);
            let next = ep.now () + period in
            if next <= until then ep.set_timer ~at:next ~tag:0
        | Transport.Deliver _ -> ());
      ep.set_timer ~at:period ~tag:0
  | Equivocate _ | Equivocate_split _ | Halt_liar _ | Garbage _ ->
      invalid_arg "Behavior.on_endpoint: this behaviour needs ΠAA internals"

let install engine ~cfg ~me ~input behavior =
  match behavior with
  | Silent -> Engine.clear_party engine me
  | Honest_with_input _ | Crash_at _ | Spam _ | Lagger _ ->
      on_endpoint (Engine.endpoint engine ~me) ~input
        ~honest:(fun ep v -> Party.start (Party.attach_endpoint ~cfg ep) v)
        behavior
  | Equivocate (va, vb) ->
      (* Honest machinery runs on [va]; at the same instant, conflicting
         Init messages carrying [vb] go to the upper half for the two
         broadcasts of our own where equivocation matters most: the Πinit
         input and the first iteration's ΠoBC value. *)
      equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to:(fun dst ->
          dst >= cfg.Config.n / 2)
  | Equivocate_split { values = va, vb; assign } ->
      (* [Equivocate] with the receiver split chosen per party instead of
         hard-wired to the upper half — the enumerable form the explorer
         sweeps: [assign.(dst) = 1] marks the receivers that get the
         conflicting [vb] Init messages. (The all-zero assignment degrades
         to plain honest-on-[va].) *)
      equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to:(fun dst ->
          dst < Array.length assign && assign.(dst) <> 0)
  | Halt_liar it ->
      let p = Party.attach ~cfg ~me engine in
      Party.start p input;
      Engine.broadcast engine ~src:me
        (Message.Rbc
           ( { Message.tag = Message.Halt it; origin = me },
             Message.Init,
             Message.Pint it ))
  | Garbage at ->
      let p = Party.attach ~cfg ~me engine in
      Party.start p input;
      let n = cfg.Config.n in
      let bogus_pairs =
        [ (-1, input); (n + 5, input); (0, input); (0, Vec.scale 2. input) ]
      in
      let shoot () =
        List.iter
          (fun msg -> Engine.broadcast engine ~src:me msg)
          [
            (* report naming out-of-range and duplicate parties *)
            Message.Obc_report
              { iter = 1; pairs = bogus_pairs };
            (* report for an iteration far in the future *)
            Message.Obc_report
              { iter = 10_000; pairs = bogus_pairs };
            (* witness set full of bogus identifiers *)
            Message.Witness_set
              { parties = [ -3; n; n + 1; 0; 0 ] };
            (* a reliably-broadcast report with junk content *)
            Message.Rbc
              ( { Message.tag = Message.Init_report; origin = me },
                Message.Init,
                Message.Ppairs bogus_pairs );
            (* halt for a negative iteration *)
            Message.Rbc
              ( { Message.tag = Message.Halt (-2); origin = me },
                Message.Init,
                Message.Pint (-2) );
            (* mismatched payload kinds *)
            Message.Rbc
              ( { Message.tag = Message.Obc_value 1; origin = me },
                Message.Init,
                Message.Pparties [ 1; 2 ] );
          ]
      in
      (* fire once via a timer so the flood lands mid-protocol; the honest
         machinery of this party keeps its own timers flowing *)
      let base_handler = Party.handle p in
      Engine.set_party engine me (fun ev ->
          (match ev with
          | Engine.Timer 99 -> shoot ()
          | _ -> ());
          base_handler ev);
      Engine.set_timer engine ~party:me ~at:at ~tag:99
