(** [GF(2^k)] for arbitrary [k >= 1], limb-array representation.

    Complements {!Gf2k} (which is limited to one machine word) so the
    security-parameter sweeps in the benchmarks can reach the paper's
    regime of cryptographic [k] (64, 128, 256). Two multiplication
    kernels coexist:

    - {!S.mul_schoolbook}: the schoolbook carryless method — [O(k^2)]
      bit operations, the "naive" cost the paper quotes and what
      experiment E13's naive rows measure;
    - {!S.mul_karatsuba}: the three-way split ([O(k^1.585)] bit
      operations). {!S.mul} dispatches to it above a measured limb
      threshold (4 limbs, i.e. [k >= 97]) and stays schoolbook below.

    Elements are immutable; all arithmetic allocates fresh limb arrays. *)

module type PARAM = sig
  val k : int
  (** Field extension degree, [k >= 1]. *)
end

module type S = sig
  include Field_intf.S

  val modulus_bits : int list
  (** Exponents with non-zero coefficient in the reduction polynomial,
      decreasing; head is [k_bits]. *)

  val of_repr : int array -> t
  (** Unsafe view of little-endian 32-bit limbs as an element. *)

  val repr : t -> int array

  val mul_schoolbook : t -> t -> t
  (** The paper's naive [O(k^2)] product — the reference kernel every
      other multiplication path is tested against. *)

  val mul_karatsuba : t -> t -> t
  (** Same product via Karatsuba's three-way split on the limb array.
      {!mul} uses this automatically for [k >= 97]. *)
end

module Make (P : PARAM) : S
module GF64 : S
module GF128 : S
module GF256 : S
