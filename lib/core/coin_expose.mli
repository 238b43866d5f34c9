(** Protocol [Coin-Expose] (Fig. 6): reveal a sealed coin to everyone.

    Every player sends its share of the coin to all players over the
    point-to-point channels; each player then interpolates a degree-[t]
    polynomial through the shares it trusts for this coin, using the
    Berlekamp–Welch decoder to ride out lies, and reads the coin off as
    [F(0)] (its low bit for a binary coin, Fig. 6 step 3).

    Decoding uses only senders in the coin's per-player trusted set (the
    paper's [S], "subset of clique members which satisfied condition iii
    in [the] previous run of Coin-Gen"): among trusted senders, at least
    [2t + 1] are honest with correct shares (Lemma 7.3) and each faulty
    trusted sender both adds a point and an error, so the decoding
    condition [m >= t + 1 + 2e] always holds and every honest player
    recovers the same [F(0)] — unanimity. *)

module Make (F : Field_intf.S) : sig
  module C : module type of Sealed_coin.Make (F)

  type sender_behavior =
    | Honest
    | Silent
    | Send of F.t  (** Send this instead of the true share. *)
    | Equivocate of (int -> F.t option)  (** Per-destination lies. *)

  val run :
    ?sender_behavior:(int -> sender_behavior) ->
    C.t ->
    F.t option array
  (** One exposure round ([n^2] share messages, Section-4 model). Entry
      [i] is player [i]'s decoded coin, [None] if its decoding failed
      (impossible for honest players when the coin's trust guarantee
      holds).

      On a pristine [Sim] net the round is read in place
      ({!Transport.Inbox}); trusted shares are gathered into flat
      scratch arrays by one loop for every backend and reconstructed
      through the plan's arena
      ({!Grid.Make.reconstruct_zero_checked_into}); attribution is
      tallied only under a {!Sentinel} ledger. An honest, untraced
      exposure at [n = 13] allocates about 650 minor words, most of them
      the net's [n^2] store. The tests pin it to a list-based reference
      twin ([test/reference/]). *)

  val expose_bit : ?sender_behavior:(int -> sender_behavior) -> C.t -> bool option array
  (** [Fig. 6 step 3]: the binary coin [F(0) mod 2]. *)

  val run_lagrange :
    ?sender_behavior:(int -> sender_behavior) -> C.t -> F.t option array
  (** Ablation variant: the same round and gather as {!run}, but each
      player interpolates plainly through the first [t + 1] trusted
      shares it receives instead of running the Berlekamp–Welch
      decoder. Cheaper — and wrong under faults: a
      single lying trusted sender silently corrupts the coin and breaks
      unanimity. Exists for the DESIGN.md §5 ablation bench; the real
      protocol never uses it. *)
end
