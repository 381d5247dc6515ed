(** Byzantine party behaviours.

    A corrupted party may deviate arbitrarily; the strategies here cover
    the capabilities the paper's proofs attribute to the adversary, from
    simple omission to active equivocation. Channels remain authenticated:
    a Byzantine party can lie about content but not about its identity.

    [Equivocate], [Equivocate_split], [Halt_liar] and [Garbage] forge ΠAA
    messages, so they apply to ΠAA scenarios only ({!needs_maaa}). The
    others act on the party's transport endpoint alone and apply to every
    protocol ({!on_endpoint}). *)

type t =
  | Silent
      (** never sends anything: the classic omission/crash corruption used
          in the Theorem 3.2 lower-bound scenario *)
  | Crash_at of int
      (** behaves honestly until the given tick, then stops completely —
          exercises adaptive corruption mid-protocol *)
  | Honest_with_input of Vec.t
      (** follows the protocol with an adversarially-chosen input (value
          poisoning — the strongest attack that stays inside the protocol;
          this is the adversary of the Theorem 3.1 scenario) *)
  | Equivocate of Vec.t * Vec.t
      (** runs honestly with the first value but concurrently initiates
          its own broadcasts with the second value towards the upper half
          of the parties — rBC consistency is what must contain this *)
  | Equivocate_split of { values : Vec.t * Vec.t; assign : int array }
      (** [Equivocate] with an explicit per-receiver split: parties [dst]
          with [assign.(dst) <> 0] receive the conflicting second-value
          Init messages, everyone else sees the honest first value. This
          is the enumerable form of equivocation the exhaustive explorer
          sweeps (all [2^n] assignments at small [n]); the all-zero
          assignment degrades to honest behaviour on the first value *)
  | Halt_liar of int
      (** honest, but immediately reliably-broadcasts a [(halt, it)]
          message for the given iteration, trying to trick parties into
          outputting early *)
  | Spam of { period : int; payload_bytes : int; until : int }
      (** floods junk messages; exercises robustness of dispatch *)
  | Garbage of int
      (** honest, but additionally floods structurally-invalid protocol
          messages at the given tick: reports naming out-of-range parties,
          witness sets with bogus identifiers, oversized report sets, and
          halt messages for negative iterations — every validation path in
          the honest message handlers gets exercised *)
  | Lagger of int
      (** honest, but joins the protocol only after the given tick —
          breaking the synchronous "everyone starts at the same time"
          assumption. Messages arriving before the start are queued and
          replayed, as a real socket would. Creates genuine information
          asymmetry across honest parties, so Πinit estimations (and hence
          iteration counts) spread out. *)

val needs_maaa : t -> bool
(** [true] for [Equivocate], [Equivocate_split], [Halt_liar] and
    [Garbage]: the behaviours that need ΠAA internals. The one place that
    decides which behaviours a non-ΠAA scenario may hold. *)

val on_endpoint :
  Message.t Transport.endpoint ->
  input:Vec.t ->
  honest:(Message.t Transport.endpoint -> Vec.t -> unit) ->
  t ->
  unit
(** Runs a protocol-free behaviour on the party's endpoint, where
    [honest ep v] attaches an honest party of the run's protocol to [ep]
    and starts it on [v]. [Silent] attaches nothing; [Honest_with_input v]
    starts the honest party on [v]; [Crash_at tick] starts it on [input]
    and drops every event after [tick]; [Lagger delay] queues deliveries
    until [delay], then starts it on [input] and replays the queue (its
    gate timer carries a negative tag and never reaches the party);
    [Spam] arms a timer that [send_all]s junk. Raises [Invalid_argument]
    when {!needs_maaa}. *)

val install :
  Message.t Engine.t -> cfg:Config.t -> me:int -> input:Vec.t -> t -> unit
(** Installs the behaviour as party [me]'s ΠAA handler and starts it:
    [Silent] clears the party's handler, the other protocol-free
    behaviours run {!on_endpoint} around {!Party.attach_endpoint}.
    [input] is the value the behaviour bases honest-looking traffic on
    (ignored by [Silent], [Spam] and [Honest_with_input]). *)
