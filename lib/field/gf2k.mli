(** [GF(2^k)] for [1 <= k <= 61], one machine word per element.

    This is the paper's default field (Section 2): elements are degree
    [< k] polynomials over [GF(2)] packed into the low [k] bits of an
    [int]; the reference multiplication is the naive shift-and-xor
    schoolbook method, i.e. [O(k)] word operations realizing the
    [O(k^2)] bit-operation bound the paper quotes for naive
    multiplication. The paper remarks that at small [k] the constants of
    the method decide the cost, so {!Make} picks one of three by [k]:
    - [k <= 16]: exp/log tables, one lookup per product;
    - [17 <= k <= 32]: a carry-less product built from 16 integer
      multiplies of masked bit classes, then two folds of the sparse
      modulus. It has no branch and no loop, so its running time does
      not depend on the operands;
    - [33 <= k <= 61]: a branch-free shift-and-xor loop over the operand
      with fewer significant bits, because the unreduced product no
      longer fits a word.

    {!S.mul_naive} and {!Make_untabled} keep the plain loop as the
    reference. Experiment E13 measures these constants against the
    asymptotically faster {!Fft_field}.

    The reduction polynomial is found at functor-application time: the
    lexicographically smallest irreducible polynomial of degree [k] over
    [GF(2)], certified by Rabin's irreducibility test. *)

module type PARAM = sig
  val k : int
  (** Field extension degree; [1 <= k <= 61]. *)
end

val table_threshold : int
(** Largest [k] (16) for which {!Make} builds exp/log multiplication
    tables. Beyond it {!Make} multiplies without tables: up to [k = 32]
    with the constant-time carry-less product, above that with the
    shift-and-xor loop whose step count is the bit length of the smaller
    operand. {!S.mul_naive} remains the reference loop. *)

module type S = sig
  include Field_intf.S

  val modulus : int
  (** The reduction polynomial, bit [i] = coefficient of [x^i]; bit
      [P.k] is always set. *)

  val of_repr : int -> t
  (** Unsafe view of a bit pattern as an element; must be [< 2^k]. *)

  val repr : t -> int
  (** The underlying bit pattern, [< 2^k]. *)

  val tabled : bool
  (** Whether {!mul} runs off exp/log tables (true in {!Make} for
      [k <= table_threshold]). *)

  val mul_naive : t -> t -> t
  (** The shift-and-xor reference multiplication, regardless of
      {!tabled}. Ticks one {!Metrics} mult exactly like {!mul}, so the
      paper's cost accounting is identical on both paths. *)
end

module Make (P : PARAM) : S
(** Tabled multiplication when [P.k <= table_threshold]: [mul a b] is
    [exp.(log a + log b)] over a doubled exp table of the cyclic
    multiplicative group (the {!Zq_table} trick), with [inv] a single
    lookup too. Above the threshold [inv] is extended Euclid and [mul]
    is the carry-less product for [P.k <= 32], the word loop above.
    The carry-less product relies on the modulus [x^k + r] having [r]
    of degree [<= 7] with two or four terms, which holds for every [k]
    in [17..32] and is checked at instantiation. Each operation still
    ticks exactly one mult/inv. For [17 <= k <= 32] the
    {!Field_intf.S.dot} kernel sums products raw, as the xor of the
    unreduced carry-less products folded once (carry-less
    multiplication is linear, so one reduction of the sum equals the
    sum of the reductions). The same regime has the
    {!Field_intf.S.horner} kernel: one loop runs every row's Horner
    chain interleaved, degree by degree, so no step waits on the one
    before. It branches on the point [x] only, never on a share: for
    [x < 16] (every player point up to [n = 15]) a step is four masked
    shifts of the accumulator and one fold; otherwise it is the
    carry-less product with [x]'s bit classes hoisted out of the loop,
    and two folds. The other regimes have neither kernel. *)

module Make_untabled (P : PARAM) : S
(** Identical field, always on the naive shift-and-xor path — the
    pre-optimization baseline, kept instantiable for benchmarks. It has
    no [dot] and no [horner] kernel. *)

(** {1 Ready-made instances} *)

module GF8 : S
module GF16 : S
module GF32 : S
module GF61 : S

(** {1 Polynomial arithmetic over GF(2) on word-packed representations}

    Exposed for tests and for {!Gf2_wide}'s modulus search. *)

val degree : int -> int
(** Degree of the packed polynomial; [-1] for the zero polynomial. *)

val mul_mod : modulus:int -> int -> int -> int
(** Carryless multiply-and-reduce; [modulus] must have its top set bit at
    position [<= 61]. *)

val poly_mod : int -> int -> int
(** [poly_mod a b] is the remainder of carryless division; [b <> 0]. *)

val poly_gcd : int -> int -> int

val is_irreducible : int -> bool
(** Rabin's irreducibility test for a packed [GF(2)] polynomial of
    degree [>= 1]. *)

val smallest_irreducible : int -> int
(** [smallest_irreducible k] is the lexicographically smallest
    irreducible polynomial of degree [k], packed. *)
