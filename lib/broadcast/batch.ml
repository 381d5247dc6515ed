(* Egress buffer for the batched message layer.

   A party routes every outgoing rBC vote here instead of broadcasting it
   immediately; the engine's end-of-tick flusher then emits the buffered
   votes as one combined [Rbc_batch] packet per receiver (the buffer sits
   in front of the party's broadcast primitive, so "one packet per
   receiver" falls out of broadcasting the combined packet once).

   Under a delay policy that ignores the RNG — lockstep, instant, rushing,
   targeted-slow — this is behaviour-preserving, not just equivalent in
   distribution: a vote buffered at tick T is flushed at tick T, and its
   per-receiver delay depends only on (src, dst, T), so every logical vote
   is delivered at exactly the tick the unbatched layer would have chosen.
   Randomised policies draw one delay per packet instead of one per vote,
   so schedules diverge (while the protocol stays correct); the
   differential tests therefore pin deterministic policies. *)

type t = {
  mutable buf : (Message.rbc_id * Message.step * Message.payload) list;
      (* reverse emission order *)
  mutable buffered : int;  (* lifetime votes buffered *)
  mutable flushes : int;  (* non-empty flushes *)
  send_all : Message.t -> unit;
}

let create ~send_all = { buf = []; buffered = 0; flushes = 0; send_all }

let add t id step payload =
  t.buffered <- t.buffered + 1;
  t.buf <- (id, step, payload) :: t.buf

let flush t =
  match t.buf with
  | [] -> ()
  | [ (id, step, p) ] ->
      (* a lone vote gains nothing from the batch framing — send it
         plain, so receivers and byte accounting see the familiar shape *)
      t.buf <- [];
      t.flushes <- t.flushes + 1;
      t.send_all (Message.Rbc (id, step, p))
  | entries ->
      t.buf <- [];
      t.flushes <- t.flushes + 1;
      t.send_all (Message.Rbc_batch (List.rev entries))

let pending t = List.length t.buf
let buffered t = t.buffered
let flushes t = t.flushes
