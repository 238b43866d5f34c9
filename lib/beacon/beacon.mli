(** A long-running randomness-beacon service over the bootstrap {!Pool}.

    The paper's headline result is amortization: one Coin-Expose spread
    over many consumers. This module turns the library {!Pool} into a
    {e service} that demonstrates it under sustained load. Consumers
    submit requests and get back a request id (the VRF-coordinator
    pattern: requests are queued, fulfillment arrives through the
    registered callback); at each epoch close the beacon exposes {e one}
    pool coin and vends every pending request from a per-request stream
    derived from that coin — the draws-per-coin ratio is exactly the
    number of requests amortized onto the exposure.

    Every epoch close emits a sequenced, hash-chained, MAC'd epoch
    record, so the output stream is publicly verifiable: anyone holding
    the transcript can recompute the chain ({!verify_chain}), and anyone
    holding the key can authenticate each record. Admission control
    sheds or queues new requests with explicit backpressure signals as
    the pool approaches [Starved], and sentinel quarantine /
    [Safe_mode] events surface as degraded/halted beacon {e states}
    instead of crashes.

    Property checklist (SoK on randomness beacons): {e liveness} — every
    admitted request is fulfilled at the next epoch close; {e
    bias-resistance} — outputs are exposed pool coins, which the paper's
    protocols already guarantee unbiased within the fault bound, and the
    beacon refuses to vend (halts) when the evidence voids that bound;
    {e public verifiability} — the hash chain plus per-record MACs. *)

module Make (F : Field_intf.S) : sig
  module P : module type of Pool.Make (F)

  exception Corrupt_snapshot of string
  (** Raised by {!load} on bytes that are not an intact beacon snapshot,
      or whose chain head does not match the caller's expectation. *)

  (** {1 States and backpressure} *)

  type state =
    | Serving  (** pool headroom positive, no quarantine evidence *)
    | Degraded of string
        (** still vending, but shedding above the soft cap: the pool is
            at its refill watermark, a refill just failed, or the
            sentinel has quarantined players (diagnostic attached) *)
    | Halted of string
        (** the pool refused to vend ([Pool.Safe_mode]): evidence
            implies more than [t] corrupted players, so the beacon
            stops emitting epochs rather than serve biased randomness.
            Sticky — a halted beacon must be rebuilt or restored. *)

  type reject =
    | Queue_full  (** hard queue bound [max_pending] hit *)
    | Pool_pressure
        (** degraded state: admission above the soft cap is shed until
            the pool recovers headroom *)
    | Beacon_halted of string  (** no admission in a halted beacon *)

  val reject_name : reject -> string
  val state_label : state -> string

  (** {1 Epoch records} *)

  type epoch = {
    seq : int;  (** 0-based, gapless *)
    prev : Beacon_hash.t;  (** digest of epoch [seq - 1]; zero at 0 *)
    coin : F.t;  (** the exposed pool coin seeding this epoch's vends *)
    vended : int;  (** requests fulfilled at this close *)
    shed : int;  (** requests shed since the previous close *)
    flags : string;  (** beacon state label at close *)
    digest : Beacon_hash.t;  (** hash of all fields above *)
    mac : Beacon_hash.t;  (** keyed MAC of [digest] *)
  }

  val verify_chain :
    ?key:string -> epoch list -> (unit, string) result
  (** Check a transcript slice (ascending [seq] order): gapless
      sequence, [prev] linkage, every digest recomputes from its
      fields, every MAC verifies under [key], and a slice starting at
      epoch 0 starts from the zero link. The error names the first
      offending sequence number. *)

  val epoch_to_json : epoch -> string
  (** One transcript line (schema [dprbg-beacon-epoch/1], no newline). *)

  val epoch_of_json : string -> (epoch, string) result
  (** Strict inverse of {!epoch_to_json}. *)

  (** {1 The service} *)

  type fulfillment = {
    request_id : int;
    epoch : int;  (** the epoch that vended it *)
    bits : bool array;  (** the requested number of derived bits *)
  }

  type t

  val create :
    ?key:string ->
    ?max_pending:int ->
    ?prefetch:int ->
    pool:P.t ->
    unit ->
    t
  (** A beacon over [pool] (which the beacon now owns: drawing from it
      elsewhere desynchronizes the demand accounting, not the chain).
      [key] (default ["dprbg-beacon"]) keys the record MACs.
      [max_pending] (default 4096, must be >= 2) bounds the request
      queue; the degraded-state soft cap is half of it. [prefetch]
      (default 1) is the pending-demand signal forwarded to
      {!P.prefetch} after each close, so refills run between epochs
      instead of inside one. *)

  val pool : t -> P.t
  val state : t -> state
  (** Recomputed from pool headroom and ledger evidence on every call;
      [Halted] is sticky. *)

  val pending : t -> int
  val next_seq : t -> int
  val head : t -> Beacon_hash.t
  (** Digest of the last emitted epoch ([Beacon_hash.zero] before the
      first). *)

  val chain : t -> epoch list
  (** All epochs emitted by this instance, ascending. A restored beacon
      starts with an empty in-memory chain but a non-zero {!head}. *)

  val request :
    t -> ?id:int -> ?nbits:int -> callback:(fulfillment -> unit) -> unit ->
    (int, reject) result
  (** Admit one consumer request for [nbits] derived bits (default
      [F.k_bits], must be >= 1). [Ok id] means the request is queued
      and [callback] will fire exactly once, at the next successful
      {!close_epoch}; [Error] is the explicit backpressure signal and
      the callback will never fire. [id] lets a client resubmit under
      its own request id: a resubmission of an id already queued is
      idempotent (the first registration's callback fires, once), and
      fresh auto-assigned ids never collide with explicitly used ones.
      Ids are u32 in the vend derivation, the journal and the snapshot.
      @raise Invalid_argument before any state changes when [nbits < 1],
      when [id] is outside [1..0xFFFF_FFFF], or when no [id] is given
      and the next auto-assigned id would pass [0xFFFF_FFFF]. *)

  val close_epoch : t -> (epoch, string) result
  (** Close the current epoch: expose one pool coin, seal the chained
      record, vend every pending request from it (callbacks fire in
      admission order, inside the [beacon.epoch] trace span, one
      [Trace.Vend] event each — strictly {e after} the record is
      sealed, which is what lets {!Durable} journal it first), then
      forward the demand signal to the pool. [Pool.Safe_mode] halts
      the beacon (pending requests are shed as [Beacon_halted]);
      [Pool.Starved] leaves the queue intact and the beacon degraded,
      so the caller may retry. Neither escapes as an exception. *)

  type stats = {
    epochs : int;
    vended : int;
    shed_queue_full : int;
    shed_pool_pressure : int;
    shed_halted : int;
  }

  val stats : t -> stats

  (** {1 Persistence} *)

  val save : t -> bytes
  (** Snapshot the beacon's durable state: the chain position
      ([next_seq], {!head}), the lifetime counters, and the wrapped
      pool snapshot ({!P.save}). The pending queue is deliberately not
      persisted — callbacks are not serializable; a restart sheds
      in-flight requests and consumers re-submit. *)

  val load :
    ?key:string ->
    ?max_pending:int ->
    ?prefetch:int ->
    ?expect_head:Beacon_hash.t ->
    ?adversary:(int -> P.CG.adversary) ->
    ?expose_behavior:(int -> int -> P.CE.sender_behavior) ->
    ?sentinel:Sentinel.config option ->
    prng:Prng.t ->
    batch_size:int ->
    refill_threshold:int ->
    bytes ->
    t
  (** Rebuild a beacon from {!save}d bytes; the epoch sequence resumes
      exactly where the snapshot left it (no sequence number is reused
      or skipped). [expect_head] is the chain head the operator trusts
      (e.g. the digest of the last transcript line); a snapshot whose
      head differs is rejected. The pool pass-throughs mirror
      {!P.load}. Snapshots are v2 (v1 still loads); v2 additionally
      carries the request-id counter so ids stay unique for the
      chain's lifetime.
      @raise Corrupt_snapshot on damaged bytes, an undecodable wrapped
      pool snapshot, or an [expect_head] mismatch. *)

  (** {1 Crash-consistent durability}

      A {!Durable.d} wraps a beacon in a write-ahead epoch journal
      ({!Beacon_journal}): every epoch is appended and flushed {e
      before} any vend callback fires, so an acknowledged vend can
      always be recovered. Recovery = snapshot + journal replay with
      torn-tail truncation; replayed records re-verify the chain
      (digest, MAC, prev linkage) rather than being re-trusted, and
      the request ids they acknowledged form a dedup window: a client
      resubmitting an acked id gets its original bits back verbatim.

      Restart determinism caveat: a restored pool's refill randomness
      is a fresh stream, so coins drawn {e after} a recovery differ
      from what the crashed process would have drawn — the journal
      guarantees the {e published} chain, not the counterfactual one.
      Replay therefore advances the pool by position (one discarded
      draw per replayed epoch), never by value. *)

  module Durable : sig
    type d

    type recovery_stats = {
      replayed : epoch list;
          (** journal epochs applied on top of the snapshot state *)
      torn_bytes : int;  (** trailing journal bytes dropped as torn *)
      deduped : int;  (** request ids recovered into the dedup window *)
    }

    val attach :
      journal:string ->
      ?snapshot:string ->
      ?sync:Beacon_journal.sync_policy ->
      t ->
      d * recovery_stats
    (** Wrap [t] — freshly created, or {!load}ed from [snapshot] — and
        replay the journal at [journal] on top of it: the torn tail is
        truncated, records at or below the snapshot's seq contribute
        only dedup entries, and records above it must link and verify
        or the attach fails. A stale [<snapshot>.tmp] from a crashed
        rotation is removed. [sync] (default [Fsync]) governs every
        subsequent append and rotation.
        @raise Beacon_journal.Corrupt_journal on mid-journal damage, a
        record that does not decode/verify, or a snapshot/journal pair
        that does not fit together. *)

    val beacon : d -> t

    val request :
      d -> ?id:int -> ?nbits:int -> callback:(fulfillment -> unit) ->
      unit -> (int, reject) result
    (** {!request} with restart-safe dedup: if [id] was already
        acknowledged in the journal window, the original fulfillment
        is re-derived and [callback] fires immediately (the recorded
        [nbits] wins over the argument — the replay is verbatim). *)

    val replay : d -> id:int -> fulfillment option
    (** The fulfillment [id] received, if it is in the dedup window. *)

    val close_epoch : d -> (epoch, string) result
    (** {!close_epoch} with the write-ahead step: the sealed record and
        its acked request ids are journaled (and synced, under
        [Fsync]) before any callback fires. Outstanding replay debt
        (a pool that could not advance during recovery) is paid first;
        while it cannot be, the close fails without vending. *)

    val snapshot : d -> unit
    (** Atomic snapshot rotation: {!save} to [<snapshot>.tmp], fsync,
        rename, and only then truncate the journal (itself an atomic
        header swap). Requires [snapshot] to have been given to
        {!attach}. The on-disk dedup window resets with the journal;
        in-memory entries survive until the process exits. *)

    val close : d -> unit
    (** Release the journal file descriptor. Never writes. *)
  end

  (** {1 Synthetic consumer arrivals (loadgen)} *)

  module Arrival : sig
    type t
    (** A seeded open-loop arrival process: how many requests arrive in
        each successive epoch window. *)

    val poisson : rate:float -> seed:int -> t
    (** I.i.d. Poisson([rate]) arrivals per epoch. *)

    val bursty : ?burst:float -> rate:float -> seed:int -> unit -> t
    (** Two-state Markov-modulated Poisson arrivals: a high state at
        [burst * rate] and a low state at [(2 - burst) * rate]
        (default [burst = 1.8]), switching with probability 0.2 per
        epoch — long-run mean [rate], strongly correlated bursts. *)

    val next : t -> int
    val name : t -> string
  end
end
