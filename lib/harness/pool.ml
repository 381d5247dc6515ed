(* Workers claim item indices from an atomic counter and each writes its
   own result slot; the only other shared state is the completion queue,
   used only when the caller passes [on_done]. Jobs run in an arbitrary
   interleaving, so anything a job mutates must be private to it, and
   nothing may print from inside a job. *)

type 'b outcome =
  | Done of 'b
  | Crashed of { attempts : int; exn : exn; backtrace : Printexc.raw_backtrace }

let get = function
  | Done v -> v
  | Crashed { exn; backtrace; _ } -> Printexc.raise_with_backtrace exn backtrace

(* Spawned-minus-joined across all sweeps; a test probe for "no leaked
   domains", independent of Domain.recommended_domain_count. *)
let live = Atomic.make 0

let active_domains () = Atomic.get live

let map ~domains ?(max_retries = 0) ?on_done job xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let rec attempt i tries =
    match job items.(i) with
    | v -> Done v
    | exception exn ->
        let backtrace = Printexc.get_raw_backtrace () in
        if tries > max_retries then Crashed { attempts = tries; exn; backtrace }
        else attempt i (tries + 1)
  in
  if min domains n <= 1 then
    Array.to_list
      (Array.init n (fun i ->
           let o = attempt i 1 in
           Option.iter (fun f -> f i o) on_done;
           o))
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let lock = Mutex.create () and ready = Condition.create () in
    let finished = Queue.create () in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let o = attempt i 1 in
        slots.(i) <- Some o;
        if Option.is_some on_done then
          Mutex.protect lock (fun () ->
              Queue.add (i, o) finished;
              Condition.signal ready);
        work ()
      end
    in
    let spawn _ =
      let d = Domain.spawn work in
      Atomic.incr live;
      d
    in
    let join d =
      Domain.join d;
      Atomic.decr live
    in
    let workers = List.init (min domains n) spawn in
    let pop () =
      while Queue.is_empty finished do
        Condition.wait ready lock
      done;
      Queue.pop finished
    in
    Fun.protect
      ~finally:(fun () -> List.iter join workers)
      (fun () ->
        Option.iter
          (fun f ->
            for _ = 1 to n do
              let i, o = Mutex.protect lock pop in
              f i o
            done)
          on_done);
    Array.to_list (Array.map Option.get slots)
  end
