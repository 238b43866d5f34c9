(** Protocol [Bit-Gen] (Fig. 4): a dealer shares [M] secrets at once,
    verifiably, over point-to-point channels only.

    The dealer deals [M] degree-[t] polynomials (one message of [M] field
    elements to each player); after the check coin [r] is exposed, every
    player sends the single Horner-combined value
    [gamma_i = r^M a_iM + ... + r a_i1] to everyone; each player then
    decodes the [gamma]s it received (one interpolation when none is
    missing or wrong, the Berlekamp–Welch decoder otherwise) and
    accepts the dealer iff some degree-[<= t] polynomial [F] agrees with
    at least [n - t] of them, outputting [(F, S)] where [S] is the
    agreeing set (Fig. 4 step 5).

    Because there is no broadcast, players may disagree about a faulty
    dealer (each player only reaches a local verdict) — reconciling the
    views is exactly what [Coin-Gen]'s clique/gradecast/BA machinery is
    for. Soundness is Lemma 5 ([<= M/p] for a bad sharing to survive);
    costs are Lemma 6 / Corollary 2. *)

module Make (F : Field_intf.S) : sig
  module P : module type of Poly.Make (F)

  type dealer_behavior =
    | Honest_dealer
    | Honest_zero_dealer
        (** Honest dealing of [M] sharings of {e zero}: random degree-[t]
            polynomials with constant term 0 — the building block of the
            pro-active share {!Refresh}. The combined check polynomial
            then satisfies [F(0) = 0], which verifiers can demand. *)
    | Silent_dealer
    | Bad_degree of int list
        (** These secret indices get degree-[t+1] polynomials. *)
    | Inconsistent_to of int list
        (** Honest polynomials, but uniformly-random garbage share
            vectors sent to these players. *)
    | Matrix of F.t array array
        (** Fully explicit dealing: [m.(player).(secret)] — the most
            general Byzantine dealer (e.g. the Lemma-3-style targeted
            attack whose combined check collapses to degree [t] on a
            guessed coin). Dimensions must be [n x m]. *)

  type gamma_behavior =
    | Honest_gamma
    | Silent_gamma
    | Fixed_gamma of F.t
    | Gamma_per_dst of (int -> F.t option)

  type player_view = {
    received : F.t array option;
        (** The [M] shares this player got from the dealer. *)
    check_poly : P.t option;
        (** [F] — [None] is Fig. 4's [(⊥, S)] outcome. *)
    support : bool array;
        (** [S]: players whose [gamma] (as seen by this player) lies on
            [F]; all-[false] when [check_poly] is [None]. *)
    gammas : F.t option array;
        (** The raw [gamma_k] this player received, for [Coin-Gen]'s
            graph building. *)
  }

  val run :
    ?dealer_behavior:dealer_behavior ->
    ?gamma_behavior:(int -> gamma_behavior) ->
    prng:Prng.t ->
    n:int ->
    t:int ->
    m:int ->
    dealer:int ->
    r:F.t ->
    unit ->
    player_view array * F.t array array option
  (** One standalone execution. Also returns the dealer's true share
      matrix [shares.(player).(secret)] when the dealer dealt anything
      ([None] for a silent dealer) so callers can build coins from it.
      [r] must be drawn {e after} dealing (the caller owns that
      sequencing; {!Coin_gen} does it with a real coin). *)

  val decode_check :
    n:int -> t:int -> F.t option array -> P.t option * bool array
  (** Fig. 4 step 5 in isolation over one player's received [gamma]s
      (one per player, [None] when missing), requiring [n - t] support.
      Fast path first: when all [n] gammas are present and lie on one
      degree-[<= t] polynomial, that polynomial is returned with full
      support after one {!Grid.Make.interpolate_checked} (one
      interpolation tick, no inversion). Otherwise Berlekamp–Welch
      decodes the present gammas with [e = (m - t - 1) / 2] errors; its
      answer is the same polynomial whenever the fast path applies,
      because [n >= t + 1 + 2e] makes the decode unique. A vector that
      is complete but off its polynomial ticks two interpolations (the
      check and the decoder). Exposed for [Coin-Gen], which decodes one
      check polynomial per dealer and reads its support as the graph
      edges. *)

  type decoder
  (** {!decode_check}'s per-session state for one [(n, t)]: the grid
      plan, looked up once, and a scratch vector that every decode
      gathers its gammas into. Not re-entrant. *)

  val decoder : n:int -> t:int -> decoder

  val decode : decoder -> F.t option array -> P.t option * bool array
  (** [decode (decoder ~n ~t) gammas] is [decode_check ~n ~t gammas]
      with no per-call lookup or gather allocation: Coin-Gen decodes
      its [n^2] vectors through one decoder. Every fast-path answer
      shares the decoder's one all-[true] support array, so a support
      must be read, never written. *)

  val deal_matrix :
    dealer_behavior -> Prng.t -> n:int -> t:int -> m:int -> F.t array array option
  (** Fig. 4 step 1 in isolation: the share matrix
      [shares.(player).(secret)] a dealer with the given behaviour
      produces ([None] for a silent dealer). Exposed for [Coin-Gen]'s
      batched parallel dealing round. *)
end
