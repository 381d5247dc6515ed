(* A fixed-size domain pool over stdlib Domain/Mutex/Condition (no
   dependencies beyond OCaml 5). Workers block on a shared job queue;
   [map] fans a list out and reassembles results in submission order.

   Determinism contract: the pool never shares mutable protocol state
   between jobs — each job closes over its own data. Jobs run in an
   arbitrary interleaving, so anything a job mutates must be private to
   it, and callers must not print from inside a job (emit from the
   ordered result list after [map] returns instead). *)

type job = Job of (unit -> unit) | Stop

type t = {
  lock : Mutex.t;
  pending : Condition.t;  (* signalled when a job (or Stop) is queued *)
  jobs : job Queue.t;
  mutable workers : unit Domain.t list;
  mutable waiting : int;  (* workers currently blocked in Condition.wait *)
  mutable stopped : bool;
}

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.jobs do
    pool.waiting <- pool.waiting + 1;
    Condition.wait pool.pending pool.lock;
    pool.waiting <- pool.waiting - 1
  done;
  let job = Queue.pop pool.jobs in
  Mutex.unlock pool.lock;
  match job with
  | Stop -> ()
  | Job f ->
      f ();
      worker_loop pool

let create ?domains () =
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let size = max 1 requested in
  let pool =
    {
      lock = Mutex.create ();
      pending = Condition.create ();
      jobs = Queue.create ();
      workers = [];
      waiting = 0;
      stopped = false;
    }
  in
  pool.workers <-
    List.init size (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = List.length pool.workers

let submit pool f =
  Mutex.lock pool.lock;
  if pool.stopped then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add (Job f) pool.jobs;
  (* Signal exactly one sleeper, and only when someone is actually asleep:
     a busy worker re-checks the queue on its own, so an unconditional
     signal would just burn a futex syscall per job on a saturated pool. *)
  if pool.waiting > 0 then Condition.signal pool.pending;
  Mutex.unlock pool.lock

let shutdown pool =
  Mutex.lock pool.lock;
  if not pool.stopped then begin
    pool.stopped <- true;
    List.iter (fun _ -> Queue.add Stop pool.jobs) pool.workers;
    Condition.broadcast pool.pending;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers
  end
  else Mutex.unlock pool.lock

(* One queued job per contiguous chunk of ⌈n/size⌉ items, i.e. one chunk
   per worker: for protocol-run sized jobs the per-item dispatch (queue
   lock + wakeup + done-counter lock) would be the dominant pool overhead
   once items outnumber workers. A job that raises is recorded as [Error]
   in its own slot, the rest of its chunk still runs, and the first
   failure (by submission index) is re-raised only after every chunk has
   finished — one bad task cannot wedge the pool or abandon its siblings'
   results. *)
let map pool f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let chunk = (n + size pool - 1) / size pool in
    let out = Array.make n None in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let chunks = (n + chunk - 1) / chunk in
    let remaining = ref chunks in
    for c = 0 to chunks - 1 do
      let lo = c * chunk in
      let hi = min n (lo + chunk) - 1 in
      submit pool (fun () ->
          for i = lo to hi do
            out.(i) <-
              Some
                (match f items.(i) with
                | v -> Ok v
                | exception e ->
                    let bt = Printexc.get_raw_backtrace () in
                    Error (e, bt))
          done;
          Mutex.lock done_lock;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock done_lock)
    done;
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false (* every chunk fills its whole range *))
         out)
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* -- Supervised sweeps: worker-domain crash recovery -----------------

   [map] captures job exceptions in-slot, which is right for
   programming errors in cheap jobs — but a soak sweep must also survive
   *fatal* worker failures (Out_of_memory, Stack_overflow, a crashed
   runtime invariant) without losing the rest of the sweep or the results
   already collected. [Supervised.map] therefore treats ANY exception
   escaping a job as the death of its worker domain: the worker unwinds
   and exits, the supervisor (the calling domain) joins the corpse, spawns
   a replacement, and requeues the in-flight item with a bounded retry
   count — after [max_retries] requeues the item is reported as [Crashed]
   instead of aborting the sweep.

   The supervisor is also the only domain that runs [on_done], so callers
   can journal per-case progress (file IO) without violating the pool's
   no-IO-in-workers rule. Outcomes keep submission order; jobs must not
   share mutable state, exactly as with [map]. *)
module Supervised = struct
  type 'b outcome = Done of 'b | Crashed of { attempts : int; last_error : string }

  (* Spawned-minus-joined across all Supervised sweeps; a test probe for
     "no leaked domains", independent of Domain.recommended_domain_count. *)
  let live = Atomic.make 0

  let active_domains () = Atomic.get live

  let map ?domains ?(max_retries = 1) ?on_done job xs =
    let items = Array.of_list xs in
    let n = Array.length items in
    if n = 0 then []
    else begin
      let requested =
        match domains with
        | Some d -> max 1 d
        | None -> Domain.recommended_domain_count ()
      in
      let size = min requested n in
      let lock = Mutex.create () in
      let wake_workers = Condition.create () in
      let wake_super = Condition.create () in
      let pending = Queue.create () in
      (* (item index, prior crash count) *)
      Array.iteri (fun i _ -> Queue.add (i, 0) pending) items;
      let results = Array.make n None in
      let completed = ref 0 in
      let notify = Queue.create () in (* fresh outcomes for on_done *)
      let dead = Queue.create () in (* (worker id, item, crashes, error) *)
      let stop = ref false in
      let workers = Hashtbl.create (size * 2) in
      let next_wid = ref 0 in
      let record i o =
        (* lock held *)
        results.(i) <- Some o;
        incr completed;
        Queue.add i notify;
        Condition.signal wake_super
      in
      let worker_body wid =
        let rec loop () =
          Mutex.lock lock;
          while Queue.is_empty pending && not !stop do
            Condition.wait wake_workers lock
          done;
          if Queue.is_empty pending then Mutex.unlock lock
          else begin
            let i, crashes = Queue.pop pending in
            Mutex.unlock lock;
            match job items.(i) with
            | v ->
                Mutex.lock lock;
                record i (Done v);
                Mutex.unlock lock;
                loop ()
            | exception e ->
                (* The crash path: report the death and fall off the end of
                   the domain — the supervisor joins us and respawns. *)
                let msg = Printexc.to_string e in
                Mutex.lock lock;
                Queue.add (wid, i, crashes + 1, msg) dead;
                Condition.signal wake_super;
                Mutex.unlock lock
          end
        in
        loop ()
      in
      let spawn () =
        (* lock held; the new domain blocks on [lock] until we release *)
        let wid = !next_wid in
        incr next_wid;
        Atomic.incr live;
        Hashtbl.replace workers wid (Domain.spawn (fun () -> worker_body wid))
      in
      let join_worker wid =
        (* lock held; released around the join so live workers keep going *)
        let d = Hashtbl.find workers wid in
        Hashtbl.remove workers wid;
        Mutex.unlock lock;
        Domain.join d;
        Atomic.decr live;
        Mutex.lock lock
      in
      Mutex.lock lock;
      for _ = 1 to size do
        spawn ()
      done;
      while !completed < n do
        while not (Queue.is_empty notify) do
          let i = Queue.pop notify in
          match on_done with
          | None -> ()
          | Some f ->
              let o = Option.get results.(i) in
              Mutex.unlock lock;
              f i o;
              Mutex.lock lock
        done;
        while not (Queue.is_empty dead) do
          let wid, i, crashes, msg = Queue.pop dead in
          join_worker wid;
          if crashes > max_retries then
            record i (Crashed { attempts = crashes; last_error = msg })
          else begin
            Queue.add (i, crashes) pending;
            Condition.signal wake_workers
          end;
          if (not (Queue.is_empty pending)) && Hashtbl.length workers < size
          then spawn ()
        done;
        if
          !completed < n
          && Queue.is_empty notify
          && Queue.is_empty dead
        then Condition.wait wake_super lock
      done;
      stop := true;
      Condition.broadcast wake_workers;
      let rest = Hashtbl.fold (fun wid _ acc -> wid :: acc) workers [] in
      List.iter join_worker rest;
      Mutex.unlock lock;
      (* drain outcomes recorded after the last in-loop notify sweep *)
      (match on_done with
      | None -> ()
      | Some f ->
          Queue.iter (fun i -> f i (Option.get results.(i))) notify);
      Array.to_list (Array.map Option.get results)
    end
end
