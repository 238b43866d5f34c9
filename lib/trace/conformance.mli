(** The paper's cost formulas as a machine-checked oracle.

    Lemmas 2, 4 and 6 and Theorem 2 of Bellare-Garay-Rabin give
    closed-form per-protocol costs in field operations, interpolations,
    messages, bits and rounds as functions of [(n, t, M, k)]. This
    module runs each protocol honestly on a pristine network, measures
    its cost vector from the protocol's {!Trace} span snapshot, and
    checks it against the formulas: {e exact equality} for quantities
    the implementation determines combinatorially (interpolation counts,
    rounds, messages, bytes, grade-casts, BA runs) and
    {e asymptotic-constant ceilings} for field-op counts, whose exact
    value depends on decoder internals (Gaussian elimination inside
    Berlekamp-Welch) but whose growth order the paper pins down.

    The derived expectations, with the repo's accounting convention
    (counters are totals across all [n] players; per-player work runs
    once per player — DESIGN.md section 7):

    - {b Lemma 2} (VSS, Fig. 2): 2 rounds, [2n] messages ([n] private
      deals + [n] broadcast gammas), [2nk] bits, [n] interpolations (one
      strict degree check per player); mults/adds [O(n^2 t)].
    - {b Lemma 4} (Batch-VSS, Fig. 3, dealing excluded): 1 round, [n]
      messages, [nk] bits, [n] interpolations; mults [<= 2n(M +
      (n-t)(t+1))] — the Horner combination is [M] mults per player and
      the degree check [(n-t-1)(t+1)].
    - {b Lemma 6} (Bit-Gen, Fig. 4): 2 rounds, [n^2 - 1] messages
      ([n-1] dealing + [n(n-1)] gammas), [n] interpolations (one
      decode per player); mults [<= n(M + 4n^3)]; [0] inversions, since
      an honest gamma vector passes the grid check and never reaches
      Berlekamp-Welch.
    - {b Theorem 2} (Coin-Gen, Fig. 5, honest run, shared check coin):
      [5 + 2(t+1)] rounds (deal, gamma, 3 grade-cast rounds, one
      [2(t+1)]-round phase-king BA), [5n(n-1) + (t+1)(n^2-1)] messages,
      [n^2] interpolations (each player decodes each dealer), [0]
      inversions, [n] grade-casts, [1] BA run; amortized over the batch the message
      count is [<= nM + 6n^3], i.e. [n + O(n^3/M)] per coin.

    Coin-Gen requires [n >= 6t+1]; {!suite} runs it at the largest
    admissible fault bound [(n-1)/6] when the requested [t] is above
    that, and the other protocols (which need [n >= 3t+1]) at the
    requested [t]. *)

type bound = Exact of int | At_most of int

type check = {
  lemma : string;  (** e.g. ["Lemma 2"] *)
  protocol : string;  (** trace span name, e.g. ["vss"] *)
  n : int;
  t : int;
  m : int;  (** batch size; [1] for single VSS *)
  quantity : string;  (** e.g. ["rounds"] *)
  formula : string;  (** human-readable expected-cost formula *)
  bound : bound;
  measured : int;
}

val passed : check -> bool

val vss_checks : n:int -> t:int -> check list
(** Lemma 2: runs Fig. 2 honestly at [(n, t)] and checks its vector. *)

val batch_vss_checks : n:int -> t:int -> m:int -> check list
(** Lemma 4: Fig. 3 on an [M]-secret honest batch (dealing excluded, as
    in the lemma). *)

val bit_gen_checks : n:int -> t:int -> m:int -> check list
(** Lemma 6: Fig. 4 with an honest dealer. *)

val coin_gen_checks : n:int -> t:int -> m:int -> check list
(** Theorem 2: Fig. 5 honest run.
    @raise Invalid_argument when [n < 6t + 1]. *)

val suite : n:int -> t:int -> m:int -> check list
(** All four blocks; Coin-Gen at [min t ((n-1)/6)]. *)

val pp_check : Format.formatter -> check -> unit

val report : Format.formatter -> check list -> bool
(** Print one line per check and a summary; true iff all passed. *)
