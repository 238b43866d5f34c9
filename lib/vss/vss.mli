(** The paper's verifiable-secret-sharing protocols (Section 3).

    Both protocols run in the broadcast model ([n >= 3t + 1], an ideal
    broadcast channel, and access to a secret random k-ary coin that can
    be exposed after the dealer commits its shares):

    {ul
    {- {b Protocol VSS} (Fig. 2) checks a single sharing: the dealer
       deals a masking polynomial [g]; the coin [r] is exposed; every
       player broadcasts [gamma_i = alpha_i + r * beta_i]; everyone
       interpolates one polynomial through the [gamma]s and accepts iff
       its degree is [<= t]. A cheating dealer passes with probability
       [<= 1/p] (Lemma 1) at the cost of one extra interpolation
       (Lemma 2).}
    {- {b Protocol Batch-VSS} (Fig. 3) checks [M] sharings at once:
       [r] is exposed, every player broadcasts the Horner combination
       [gamma_i = r^M alpha_iM + ... + r alpha_i1], and a single
       interpolation decides all [M] sharings together. Soundness error
       [<= M/p] (Lemma 3); amortized cost per secret [2k log k]
       additions and [O(1)] messages (Corollary 1).}}

    Dealings are represented as raw share vectors so that arbitrarily
    malformed dealers (shares on no polynomial at all) are expressible;
    helpers construct the honest dealing and the {e optimal} cheating
    dealings whose acceptance probabilities meet the lemma bounds with
    equality. *)

module Make (F : Field_intf.S) : sig
  module P : module type of Poly.Make (F)
  module S : module type of Shamir.Make (F)

  type verdict = Accept | Reject

  type player_behavior =
    | Honest
    | Silent  (** Broadcasts nothing; its point is skipped. *)
    | Broadcast of F.t  (** Broadcasts this instead of the true gamma. *)

  (** {1 Dealings} *)

  val honest_dealing : Prng.t -> n:int -> t:int -> secret:F.t -> F.t array
  (** Shares of a proper degree-[<= t] sharing. *)

  val cheating_dealing :
    Prng.t -> n:int -> t:int -> degree:int -> F.t array
  (** Shares of a polynomial of exact degree [degree] (> t for a cheat):
      the generic bad dealer. *)

  val targeted_cheating_dealing :
    Prng.t -> n:int -> t:int -> guess:F.t -> F.t array * F.t array
  (** Lemma 1's optimal attack: returns [(alpha, beta)] where [alpha]
      sits on a degree-[t+1] polynomial and [beta] is rigged so that the
      combined check polynomial has degree [<= t] {e exactly when} the
      exposed coin equals [guess] — acceptance probability exactly
      [1/p]. Requires [guess <> 0]. *)

  (** {1 Protocol VSS (Fig. 2)} *)

  val run :
    ?dealer:int ->
    ?player_behavior:(int -> player_behavior) ->
    n:int ->
    t:int ->
    alpha:F.t array ->
    beta:F.t array ->
    r:F.t ->
    unit ->
    verdict
  (** One execution given the dealer's two share vectors and the exposed
      coin. When [?dealer] names the dealing player, a [Reject] verdict
      feeds [Rejected_dealing] evidence to the ambient sentinel ledger
      (all [n] players concur — the verdict is a function of broadcast
      values). All run variants below take the same optional id. Fig. 2 faithfully: the verdict interpolates through {e all}
      broadcast values, so even one silent/lying player forces [Reject]
      — the paper's remark that without complaint rounds "it would be
      impossible to grant that all the n players' shares will satisfy
      the polynomial". Use {!run_robust} for the [n - t] variant. *)

  val run_robust :
    ?dealer:int ->
    ?player_behavior:(int -> player_behavior) ->
    n:int ->
    t:int ->
    alpha:F.t array ->
    beta:F.t array ->
    r:F.t ->
    unit ->
    verdict
  (** Accepts iff a degree-[<= t] polynomial agrees with at least
      [n - t] broadcast values (Berlekamp–Welch) — the fault-tolerant
      acceptance rule Bit-Gen uses (Section 4). *)

  (** {1 Protocol Batch-VSS (Fig. 3)} *)

  val combine : r:F.t -> F.t array -> F.t
  (** [combine ~r [|a1; ...; aM|]] is [r^M aM + ... + r a1], computed by
      the Horner chain of Fig. 3 step 2: [M] multiplications and
      [M - 1] additions (none for [M = 0], whose value is zero). One
      row of {!combine_rows}. *)

  val combine_rows : r:F.t -> F.t array array -> F.t array -> unit
  (** [combine_rows ~r rows out] writes [combine ~r rows.(j)] into
      [out.(j)] for every row, with the same values and ticks: one
      {!Poly.Make.eval_rows} call over all the rows at [r], then one
      multiplication by [r] per non-empty row. Coin-Gen step 3 combines
      every dealer's shares at the shared check coin in one call. *)

  val combine_naive : r:F.t -> F.t array -> F.t
  (** The same value computed the obvious way — an independent power
      [r^j] per term (~2M multiplications). Exists as the ablation
      baseline for the paper's "this can be efficiently computed"
      remark; never used by the protocols. *)

  val batch_honest_dealing :
    Prng.t -> n:int -> t:int -> secrets:F.t array -> F.t array array
  (** [m] proper sharings; result indexed [player, secret]. *)

  val batch_cheating_dealing :
    Prng.t -> n:int -> t:int -> m:int -> bad:int list -> F.t array array
  (** Proper sharings except the [bad] indices get degree-[t+1]
      polynomials — the generic batch cheat. *)

  val batch_targeted_cheating_dealing :
    Prng.t -> n:int -> t:int -> roots:F.t array -> F.t array array
  (** Lemma 3's optimal attack with [m = length roots] sharings: the
      combined check polynomial's offending coefficient is [H(r)] for a
      degree-[m] polynomial [H] with no constant term, whose root set is
      [{0} ∪ {roots_0 .. roots_(m-2)}] — [m] distinct values, so the
      batch check accepts iff the coin lands in that set: acceptance
      probability exactly [m/p]. The [roots] must be distinct and
      non-zero. *)

  val run_batch :
    ?dealer:int ->
    ?player_behavior:(int -> player_behavior) ->
    n:int ->
    t:int ->
    shares:F.t array array ->
    r:F.t ->
    unit ->
    verdict
  (** Fig. 3: one broadcast of the combined share per player, one
      interpolation for all [M] secrets. *)

  val run_batch_robust :
    ?dealer:int ->
    ?player_behavior:(int -> player_behavior) ->
    n:int ->
    t:int ->
    shares:F.t array array ->
    r:F.t ->
    unit ->
    verdict
  (** Batch check with the [n - t] Berlekamp–Welch acceptance rule. *)

  val run_batch_on :
    ?dealer:int ->
    ?player_behavior:(int -> player_behavior) ->
    n:int ->
    t:int ->
    players:int list ->
    shares:F.t array array ->
    r:F.t ->
    unit ->
    verdict
  (** The paper's [Batch-VSS(l)] variant ("The protocol of Figure 3 can
      be easily modified to 'accept' if there is a polynomial F(x) of
      degree at most t, which for some given l, satisfies that for
      values i_1, ..., i_l we have F(i_j) = gamma_{i_j}"): everyone
      still broadcasts, but the degree check runs only through the
      [players] subset's values. Accepts iff all of them announced and
      a degree-[<= t] polynomial fits them. Requires [players] to be
      distinct valid ids with [length players >= t + 1]. *)
end
