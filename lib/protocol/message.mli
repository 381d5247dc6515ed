(** The on-the-wire message type shared by every protocol in this
    repository.

    Sub-protocol instances are identified by an {!rbc_id}: a {!tag} naming
    the purpose (and, where applicable, the iteration) plus the [origin] —
    the designated sender of that reliable-broadcast instance. This plays
    the role of the "identification numbers" the paper attaches to messages
    and then omits for presentation. *)

type tag =
  | Init_value  (** Πinit: input distribution *)
  | Init_report  (** Πinit: reliably-broadcast report sets *)
  | Obc_value of int  (** ΠoBC value distribution in iteration [it] *)
  | Halt of int  (** ΠAA: [(halt, it)] messages *)
  | Async_value of int  (** pure-async baseline: iteration values *)
  | Async_report of int  (** pure-async baseline: witness reports *)

type rbc_id = { tag : tag; origin : int }

type payload =
  | Pvec of Vec.t
  | Ppairs of (int * Vec.t) list  (** value–party pairs, by party id *)
  | Pint of int
  | Pparties of int list

type step = Init | Echo | Ready
(** Bracha's three message kinds. *)

type t =
  | Rbc of rbc_id * step * payload
  | Rbc_batch of (rbc_id * step * payload) list
      (** batched message layer: every rBC vote a party emits within one
          delivery tick, across all concurrent rBC instances, packed into one
          packet per (sender, receiver). Entries are in emission order. *)
  | Obc_report of { iter : int; pairs : (int * Vec.t) list }
      (** ΠoBC's best-effort report (line 6 of the protocol) *)
  | Witness_set of { parties : int list }
      (** Πinit line 13: best-effort witness sets *)
  | Sync_round of { round : int; value : Vec.t }
      (** pure-synchronous baseline: round-[r] value exchange *)
  | Ew_value of { iter : int; value : Vec.t }
      (** Erbes–Wattenhofer quadratic AA: direct iteration-[iter] value *)
  | Ew_echo of { iter : int; pairs : (int * Vec.t) list }
      (** Erbes–Wattenhofer quadratic AA, echo confirmation: the sender
          vouches that it received value [v] directly from party [p], for
          each listed pair. A pair enters a receiver's value set only once
          [n − t] distinct parties echo the same [(p, v)] — the
          echo-confirmation quorum that replaces per-value reliable
          broadcast (see {!Ew_aa}). *)
  | Ew_report of { iter : int; pairs : (int * Vec.t) list }
      (** Erbes–Wattenhofer quadratic AA: direct witness report *)
  | Junk of int  (** adversarial noise *)

val size_of : t -> int
(** Approximate serialised size in bytes, for traffic accounting: a
    fixed 16-byte header plus the payload. This is the traffic model
    behind E14/E15's byte columns, not the {!Codec} encoding's length. *)

val size_of_entry : rbc_id * step * payload -> int
(** Wire cost of one {!Rbc_batch} entry: an 8-byte (tag, origin, step)
    descriptor plus the payload — the 16-byte packet header is paid once
    per batch, which is the point of batching. *)

val pp : Format.formatter -> t -> unit
