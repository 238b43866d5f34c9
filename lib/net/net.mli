(** Synchronous network of [n] players with private point-to-point
    channels — the paper's communication model (Section 2).

    A protocol round is: every player deposits its outgoing messages with
    {!send} (or {!send_to_all}), then the round barrier {!deliver}
    advances time and hands every player its inbox. Synchrony means a
    message sent in round [r] arrives at the start of round [r+1] and a
    missing message is detectable — faulty players simply do not call
    {!send}.

    Channels are private: the simulator only ever exposes an inbox to its
    addressee (there is no eavesdropping API), which models the paper's
    secrecy assumption for shares in transit.

    Byzantine behaviour is expressed by the code driving a faulty
    player's sends — nothing here restricts what a player may send, to
    whom, or how inconsistently (equivocation is just [send]ing different
    values to different destinations).

    Every send ticks {!Metrics.tick_message} with the message's wire
    size and every barrier ticks {!Metrics.tick_round}, which is how the
    paper's per-protocol message/bit/round counts are measured.

    {b Degraded networks.} The paper assumes reliable channels; real
    deployments do not. A {!Plan} describes a degraded network — per-link
    message drop, delay, duplication, reordering, byte-level corruption,
    and whole-player crash/recovery windows — and is installed ambiently
    with {!with_plan}, mirroring how {!Metrics.with_counting} scopes a
    measurement.
    Networks created inside [with_plan] apply the plan's faults; the
    {!exchange} retransmit envelope then absorbs omission faults within a
    bounded budget so protocol drivers survive them without miscounting
    silence as Byzantine behaviour. *)

(** {1 Fault plans} *)

module Plan : sig
  type t
  (** One degraded-network schedule: probabilistic link faults, a crash
      schedule, and a retransmit budget, all driven by a private
      deterministic PRNG so a run replays exactly from its seed. The
      plan owns a global round clock shared by every network created
      under it (crash windows are expressed on that clock). *)

  val make :
    ?drop:float ->
    ?delay:float ->
    ?max_delay:int ->
    ?duplicate:float ->
    ?corrupt:float ->
    ?reorder:float ->
    ?crashes:(int * int * int option) list ->
    ?retransmits:int ->
    ?bounded:bool ->
    seed:int ->
    unit ->
    t
  (** [make ~seed ()] builds a plan. [drop], [delay], [duplicate],
      [corrupt] are per-message fault probabilities in [[0, 1]] (sampled
      in that priority order, at most one fault per message); [reorder]
      is a per-inbox-per-round shuffle probability. A delayed message
      arrives [d] rounds late with [d] uniform in [[1, max_delay]].
      [crashes] lists [(player, from_round, recovery_round)] windows on
      the plan's global round clock (1-based; [None] means crash-stop,
      never recovering): while down, a player's sends vanish and its
      inbox is voided. [retransmits] is the per-{!exchange} resend
      budget. With [bounded] (default), the final attempt of a
      multi-attempt {!exchange} is exempt from link faults — the
      real-world assumption that omission bursts are shorter than the
      timeout budget — so retransmission absorbs faults {e
      deterministically}; crashes are never exempt.

      @raise Invalid_argument on probabilities outside [[0, 1]],
      [max_delay < 1], [retransmits < 0], or malformed crash windows. *)

  val retransmits : t -> int
  val rounds_elapsed : t -> int
  (** Rounds elapsed on the plan's global clock (every {!deliver} under
      the plan advances it). *)

  val down : t -> int -> bool
  (** Is this player crashed in the upcoming round? *)

  (** {2 Supervised real failures}

      The transport supervision layer (DESIGN.md section 16) converts a
      {e physical} peer failure — killed process, poisoned domain,
      stream past its read deadline — into a tolerated crash-stop fault
      by marking the peer here. A marked peer behaves exactly like a
      static [crashes] entry starting at the round the failure was
      detected in: its sends vanish (fresh sends already queued this
      round are voided and counted at the barrier), its inbox is
      voided, and it never recovers. *)

  val mark_crashed : t -> player:int -> bool
  (** Mark [player] crash-stopped from the round currently being formed
      (the upcoming round during a send phase, the in-progress round
      during a {!Net.deliver} barrier). Returns [false] — and changes
      nothing — if the player is already down this round. *)

  val forming_round : t -> int
  (** The round whose messages are currently in flight on the plan's
      global clock (1-based): where {!mark_crashed} pins a failure. *)

  val real_crashes : t -> (int * int) list
  (** Supervised [(player, from_round)] crash marks, sorted. *)

  val real_crash_count : t -> int

  type stats = {
    dropped : int;
    delayed : int;
    duplicated : int;
    corrupted : int;
    reordered : int;  (** inboxes shuffled *)
    crashed_msgs : int;  (** messages lost to crashed senders/receivers *)
    rounds : int;
  }

  val stats : t -> stats
  val pp_stats : Format.formatter -> stats -> unit

  (** {2 Hooks for broadcast-channel layers}

      Point-to-point faults are applied inside {!send}/{!deliver}; a
      layer that models an abstract broadcast channel (one announcement,
      one metric tick) instead samples its own per-receiver fates with
      these. *)

  val advance_round : t -> unit

  val broadcast_fate : t -> [ `Deliver | `Drop | `Corrupt ]
  (** Sample a per-announcement fate for one broadcast delivery
      (respects the bounded-envelope exemption like point-to-point
      links; a broadcast channel fails whole announcements, never
      equivocates). *)

  val corrupt_bytes : t -> bytes -> bytes
  (** Flip one uniformly random bit of a copy of the wire encoding. *)

  val note_crashed_msg : t -> unit

  val enter_envelope : t -> attempt:int -> attempts:int -> unit
  (** Mark that the caller is inside attempt [attempt] of an
      [attempts]-attempt retransmit envelope, enabling the bounded
      final-attempt exemption. {!Net.exchange} does this itself. *)

  val exit_envelope : t -> unit
end

val with_plan : Plan.t -> (unit -> 'a) -> 'a
(** [with_plan plan f] runs [f] with [plan] installed as the ambient
    fault plan: every {!create} inside captures it. Nesting restores the
    previous plan on exit. *)

val current_plan : unit -> Plan.t option

(** {1 Carriers}

    The network separates {e deciding} what happens to a message (fault
    sampling, ordering, metrics — all in the coordinator, in one
    deterministic order) from {e moving} it. A carrier is the pluggable
    moving layer: every message that survives the fault decision is
    [post]ed under a fresh per-network uid, and the round barrier
    [collect]s the physically-delivered frames and materializes each
    inbox entry from the value that actually traversed the backend,
    matched by uid. With no carrier (the default) the network is the
    pure in-memory simulator and behaves bit-identically to before the
    carrier layer existed. The [Transport] library builds its domains
    and socket backends as carriers. *)

module Carrier : sig
  type 'msg t = {
    name : string;  (** backend tag, e.g. ["domains"] or ["socket"] *)
    post : src:int -> dst:int -> uid:int -> 'msg -> unit;
    collect : unit -> (int * 'msg) list array;
        (** per-destination [(uid, msg)] frames since the last collect *)
  }
end

exception Desync of string
(** Raised by {!deliver} when the carrier failed to return a frame the
    coordinator accounted for — a transport-layer bug, never a simulated
    fault (simulated faults are decided before posting). *)

(** {1 Networks} *)

val observed_size : counted:bool -> ('msg -> int) -> 'msg -> int
(** The one sizing rule shared by {!send}, {!deliver}'s receive events
    and the broadcast channel in [Transport]: [observed_size ~counted
    byte_size msg] is [byte_size msg] while a {!Metrics} measurement is
    open and [counted] holds, or while a {!Trace} collector is
    installed; otherwise it is [-1] and [byte_size] is not called.
    [counted] says the message is communication the counters charge
    (not a self-message). *)

type 'msg t

val create :
  ?carrier:'msg Carrier.t ->
  ?codec:(('msg -> bytes) * (bytes -> 'msg)) ->
  n:int ->
  byte_size:('msg -> int) ->
  unit ->
  'msg t
(** A fresh network for one protocol execution. It is {e pristine} when
    created with no ambient fault plan and no [carrier]: nothing can be
    dropped, delayed, duplicated or reordered, so its rounds are held in
    a dense per-network store — per (receiver, sender), the message, a
    presence mark and the send-time size, built on the first send and
    reused by every round — instead of per-message queue entries. A
    second send on one link in one round moves that round to the
    queues. Inboxes, metrics and trace events are the same either way.

    [byte_size] gives the wire size of each message for communication
    accounting and trace events. It runs only while someone reads the
    size (see {!observed_size}), at most once per message, so it must be
    pure: an untraced, unmeasured run never calls it. The network
    captures the ambient fault plan, if any. [codec] is the wire
    encoding used for byte-level corruption faults: a corrupted message
    is re-encoded, has one bit flipped, and is re-decoded — if the
    strict decoder rejects the mangled bytes the message is dropped
    (a detected corruption), otherwise the mangled value is delivered.
    Without a [codec], corruption degrades to a drop. [carrier] attaches
    a physical message-moving backend; omitted, the network is the
    in-memory simulator. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue a message for delivery at the next {!deliver}. Sending to
    oneself is allowed (and free: self-messages are not counted as
    communication, and are exempt from link faults — only a crash loses
    them).

    @raise Invalid_argument if [src] or [dst] is out of range. *)

val send_to_all : 'msg t -> src:int -> (int -> 'msg) -> unit
(** [send_to_all net ~src f] sends [f dst] to every player [dst]
    (including [src] itself, uncounted). With a constant [f] this is the
    point-to-point "announce" the paper uses in place of broadcast; a
    faulty player equivocates by varying [f]. While nothing observes the
    round (no {!Metrics} measurement open, no {!Trace} collector) a
    pristine net (see {!create}) stores the row without the per-message
    observation checks of {!send}; [f] must leave that state as it found
    it, as every scoped {!Metrics} and {!Trace} call does.

    @raise Invalid_argument if [src] is out of range. *)

val deliver : 'msg t -> (int * 'msg) list array
(** Round barrier: returns [inbox] where [inbox.(i)] lists
    [(sender, msg)] pairs in sender order (at most one slot per sender
    per round is typical, but multiple sends are preserved in send
    order). All queues are emptied. Under a fault plan, delayed
    messages sent in earlier rounds mature here, a crashed receiver's
    inbox is voided, and a reorder fault shuffles an inbox out of
    sender order. *)

val exchange : 'msg t -> send:(unit -> unit) -> (int * 'msg) list array
(** [exchange net ~send] is the bounded timeout-and-retransmit
    envelope: it runs the synchronous round [send (); deliver net] once
    per attempt — [Plan.retransmits + 1] attempts under the ambient
    plan — and merges the inboxes, keeping the {e latest} copy received
    per (receiver, sender) pair, sorted by sender. Honest senders
    re-deposit identical messages on every attempt (sends must be
    deterministic — sample randomness {e outside} the closure), so
    omission faults within the budget are absorbed rather than
    surfacing as missing messages. With no plan or a zero budget this
    is exactly [send (); deliver net] — same inbox shape, same metrics
    — so fault-free runs are bit-identical to the unhardened protocol.
    Each attempt costs one round and re-sends every message, which is
    the round/message cost multiplier of hardening. *)

(** {1 Reading a round in place} *)

module Inbox : sig
  type 'msg t
  (** The inboxes of one delivered round, as {!exchange_inbox} returns
      them. A round of a pristine net (see {!create}) that sent at most
      once per link is read in place from the net's store, with no list
      built; any other round holds the lists {!exchange} returns. Either
      way every reader below sees exactly those lists. A view of the
      store is valid until the next send on its net: reading it later
      raises [Invalid_argument]. *)

  val fold : 'msg t -> dst:int -> (int -> 'msg -> 'a -> 'a) -> 'a -> 'a
  (** [fold inbox ~dst f init] applies [f sender msg] along [dst]'s
      inbox in inbox order, threading the accumulator. *)

  val max_length : _ t -> int
  (** A bound on every inbox's length: [n] for a round read in place
      (one message per link), the longest list otherwise. *)

  val to_lists : 'msg t -> (int * 'msg) list array
  (** The inboxes as {!exchange} returns them. *)

  val silent : _ t -> at_least:int -> int list
  (** [silent inbox ~at_least] lists, ascending, the senders that at
      least [at_least] receivers got {e no} copy from in this round
      (for {!exchange}, in its merged inboxes). A round read in place
      that delivered all [n * n] messages answers [[]] with no walk and
      no allocation; any other round is walked once. Drivers pass
      [t + 1] and feed the answer to the sentinel ledger as [Silent]
      evidence: with a retransmit budget the envelope delivers every
      honest live sender's final copy, so only crashed receivers — at
      most [t] — can miss it, and absence at [t + 1] receivers is
      attributable to the sender rather than to link noise. Pure
      integer bookkeeping (no field ops, no randomness).

      @raise Invalid_argument if [at_least < 1]. *)
end

val exchange_inbox : 'msg t -> send:(unit -> unit) -> 'msg Inbox.t
(** {!exchange}, returning the round as an {!Inbox.t}; on a pristine net
    this builds no list at all. [exchange net ~send] is
    [Inbox.to_lists (exchange_inbox net ~send)]. *)

val rounds_elapsed : _ t -> int

(** {1 Fault sets} *)

module Faults : sig
  type t
  (** Which players are Byzantine in one execution. The set is fixed for
      the run, matching the paper's "fixed for a constant number of
      rounds" assumption; the proactive-refresh example models mobility
      by using a different set per epoch. *)

  val none : n:int -> t
  val make : n:int -> faulty:int list -> t
  (** @raise Invalid_argument on out-of-range or duplicate ids. *)

  val random : Prng.t -> n:int -> t:int -> t
  (** [t] faulty players chosen uniformly. *)

  val n : t -> int
  val count : t -> int
  val is_faulty : t -> int -> bool
  val is_honest : t -> int -> bool
  val faulty : t -> int list
  val honest : t -> int list
  val pp : Format.formatter -> t -> unit
end
