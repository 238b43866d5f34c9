(** The bootstrap coin pool (Fig. 1 and Section 1.2).

    "An initial distributed seed is generated via some known, not
    necessarily fast protocol. Then the generator is run to produce as
    many coins as the current execution of the application needs, plus
    another (distributed) seed. [...] Once the number of remaining coins
    drops beneath a certain level, a new batch is generated exploiting
    the (small amount of) remaining coins."

    The pool holds sealed coins. Setup obtains [initial_seed] coins from
    the trusted dealer (used {e once}, the paper's contrast with [Rab83]
    where the dealer must keep supplying coins). Every draw exposes one
    coin via {!Coin_expose}; when availability drops to the refill
    threshold, the pool runs {!Coin_gen} — whose seed-coin oracle draws
    from the pool itself — and deposits the fresh batch. The mechanism is
    self-sufficient from then on: an adaptive, demand-driven generator of
    unboundedly many shared coins.

    Proactive settings ("intruders are allowed to move over time",
    Section 1.2) are supported by supplying a per-refill adversary: each
    batch generation can face a different corrupted set. *)

module Make (F : Field_intf.S) : sig
  module C : module type of Sealed_coin.Make (F)
  module CG : module type of Coin_gen.Make (F)
  module CE : module type of Coin_expose.Make (F)

  type t

  exception Starved of string
  (** Raised when a refill cannot complete (the pool ran out of seed
      coins mid-generation, or the retry budget of
      [max_refill_attempts] Coin-Gen runs — with exponential backoff
      between them — was exhausted) — with a sane [refill_threshold]
      this is a probability-negligible event. The message embeds a
      stats snapshot ([refills], [refill_attempts], [backoff_rounds],
      coins remaining) so post-mortems don't need a debugger. *)

  exception Corrupt_snapshot of string
  (** Raised by {!load} on bytes that are not an intact snapshot:
      truncated, bit-flipped (checksum mismatch), wrong magic or
      version, or an undecodable payload. Distinct from
      [Invalid_argument], which {!load} reserves for bad {e parameters}
      passed alongside intact bytes. Messages embed what is known at
      the failing stage: the byte count for header-level rejections,
      and the decoded stats counters once the payload has been read. *)

  exception Safe_mode of string
  (** Raised by {!draw_kary}/{!draw_bit} when the sentinel ledger's
      evidence implies more than [t] corrupted players — the fault
      assumption underpinning reconstruction is void, so the pool
      refuses to vend possibly-biased randomness. The message carries
      the full per-player suspicion table as a diagnostic report. Only
      an {e active} ledger config ({!Sentinel.active}) can trigger
      this. *)

  type stats = {
    refills : int;
    refreshes : int;  (** pro-active share-refresh epochs performed *)
    dealer_coins : int;  (** coins obtained from the trusted dealer (setup only) *)
    generated_coins : int;  (** sealed coins produced by Coin-Gen runs *)
    seed_coins_consumed : int;  (** coins spent to fuel Coin-Gen runs *)
    coins_exposed : int;  (** coins consumed by the application *)
    ba_iterations : int;
    unanimity_failures : int;
        (** exposures where honest players decoded differently or failed
            (bounded by [M n 2^-k]); the majority value is still
            returned. *)
    refill_attempts : int;
        (** Coin-Gen runs attempted across all refills (>= [refills]:
            failed runs are retried after a backoff). *)
    backoff_rounds : int;
        (** idle rounds spent backing off between failed refill
            attempts (1, 2, 4, ... per refill). *)
  }

  val create :
    ?adversary:(int -> CG.adversary) ->
    ?expose_behavior:(int -> int -> CE.sender_behavior) ->
    ?max_ba_iterations:int ->
    ?ba_flavor:[ `Phase_king | `Common_coin ] ->
    ?max_refill_attempts:int ->
    ?sentinel:Sentinel.config option ->
    prng:Prng.t ->
    n:int ->
    t:int ->
    batch_size:int ->
    refill_threshold:int ->
    initial_seed:int ->
    unit ->
    t
  (** [adversary refill_number] gives the Byzantine strategy faced by
      the [refill_number]-th Coin-Gen run (default: all honest) — the
      hook for mobile/proactive fault experiments. [expose_behavior
      refill_epoch player] shapes exposure-time lying. Requires
      [initial_seed > refill_threshold >= 2] and [batch_size] at least
      twice the threshold so each batch strictly grows the pool.

      [ba_flavor] selects the agreement protocol inside Coin-Gen runs.
      The default [`Phase_king] is the paper's simplifying assumption
      ("we shall assume in this presentation that deterministic BA is
      carried out"). [`Common_coin] implements the alternative the paper
      sketches in Section 1.2: a randomized BA whose common coins are
      drawn {e from this very pool} ("the coins needed by the BA
      protocol must be taken into consideration when setting the level
      of coins needed for the bootstrapping mechanism") — the extra
      draws come out of the seed reserve, so pick [refill_threshold]
      one or two coins higher. A faulty player's BA strategy maps from
      its phase-king behaviour (Arbitrary degrades to Silent).

      [max_refill_attempts] (default 5) bounds the Coin-Gen retries per
      refill: a failed run is retried after an exponentially growing
      idle backoff (1, 2, 4, ... rounds, charged to the ambient round
      counter) before {!Starved} is raised.

      [sentinel] configures the fault-attribution ledger installed
      around every protocol run the pool drives (exposures, refills,
      refreshes). The default [Some Sentinel.passive] records evidence
      without ever acting on it — runs are bit-identical to
      [~sentinel:None], which disables the ledger entirely. An active
      config ([Some (Sentinel.active ())]) quarantines players whose
      suspicion score crosses the threshold: they are dropped from
      Coin-Expose subset selection and Coin-Gen leader rotation, a
      rising quarantine count triggers an early proactive {!refresh},
      and more than [t] quarantined players puts draws into
      {!Safe_mode}. *)

  val available : t -> int
  (** Sealed coins currently in the pool. O(1): the stock is a FIFO
      that keeps its length. *)

  val refill_threshold : t -> int
  (** The refill watermark this pool was created/loaded with. *)

  val headroom : t -> int
  (** [available - refill_threshold]: how many draws the pool can serve
      before a draw pays a Coin-Gen refill inline. The beacon's
      admission control treats [headroom <= 0] as pool pressure and
      reads it on every request, so it is O(1) like {!available}: a
      larger batch does not make admission slower. *)

  val prefetch : t -> upcoming:int -> unit
  (** Pending-demand signal: refill (possibly repeatedly) until
      {!headroom} covers the next [upcoming] draws, so a long-running
      consumer can pay refill latency between vends instead of inside
      one. No-op when the headroom already suffices.
      @raise Starved as {!draw_kary} would, if a refill fails.
      @raise Safe_mode as {!draw_kary} would. *)

  val draw_kary : t -> F.t
  (** Expose the next coin; triggers a refill first when the pool is at
      the threshold. The returned value is what the honest players
      jointly reconstructed. *)

  val tally : F.t option array -> (int * F.t) option
  (** How a draw reads the players' reconstructions: the most frequent
      value with its count ([None] when nobody reconstructed). A
      unanimous array is answered in one {!Field_intf.S.equal} scan;
      any other goes through a tally keyed by [F.to_string], whose
      ties resolve in hash-table order. Exposed for the differential
      test against that tally alone. *)

  val draw_bit : t -> bool
  (** One binary coin. A single k-ary coin funds [k_bits] of these
      (Section 3.1: "each coin generates in fact 'k' random coins"), so
      bits are buffered and only occasionally consume a sealed coin. *)

  val refresh : t -> unit
  (** Pro-active epoch boundary: re-randomize the shares of every
      sealed coin in stock (see {!Refresh}), so shares an intruder
      stole before this point cannot be combined with shares stolen
      after it. A small seed reserve ([refill_threshold] coins) fuels
      the refresh batch and skips this round's re-randomization; the
      refresh run faces [adversary] just like a refill.
      @raise Starved if the reserve runs out mid-refresh. *)

  val stats : t -> stats

  val ledger : t -> Sentinel.Ledger.t option
  (** The pool's sentinel ledger, if one was configured — the
      suspicion/quarantine table behind [dprbg pool --suspects]. *)

  val save : t -> bytes
  (** Serialize the pool's durable state — the sealed coins and the
      ledger counters. The PRNG position, adversary hooks and bit buffer
      are {e not} saved: a restored pool continues with the randomness
      and behaviours given to {!load}. (In a deployment each player
      persists only its own shares; the simulator saves the global
      state.) *)

  val load :
    ?adversary:(int -> CG.adversary) ->
    ?expose_behavior:(int -> int -> CE.sender_behavior) ->
    ?max_ba_iterations:int ->
    ?ba_flavor:[ `Phase_king | `Common_coin ] ->
    ?max_refill_attempts:int ->
    ?sentinel:Sentinel.config option ->
    prng:Prng.t ->
    batch_size:int ->
    refill_threshold:int ->
    bytes ->
    t
  (** Rebuild a pool from {!save}d state — how a crashed player
      recovers, and how the service restarts, without a new
      trusted-dealer setup. The snapshot carries a version header and a
      CRC-32 of its payload; verification happens before any decoding.
      Current snapshots are v3 (they carry the sentinel ledger's
      evidence counts); v2 snapshots are still read and restore with a
      fresh ledger. The persisted counts rehydrate whatever [sentinel]
      config the caller passes — quarantine flags are recomputed from
      the scores — and are discarded under [~sentinel:None].
      @raise Corrupt_snapshot on bytes that are not an intact snapshot
      (any single bit flip or truncation is detected).
      @raise Invalid_argument on bad parameters ([refill_threshold],
      [batch_size], [max_refill_attempts]) accompanying intact bytes. *)
end
