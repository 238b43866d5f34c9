(** The field abstraction every protocol in this repository is generic
    over.

    The paper works over a finite field of size [p ~ 2^k] where [k] is the
    security parameter: either [GF(2^k)] with naive [O(k^2)]-bit-operation
    multiplication, or the special Section-2 field [GF(q^l)] in which
    multiplication costs [O(k log k)] via discrete Fourier transforms.
    Both are provided (see {!Gf2k}, {!Gf2_wide}, {!Fft_field}), as well as
    prime fields used by the Feldman-VSS baseline and by the NTT.

    Protocol costs are stated in field operations, so every built-in
    implementation ticks {!Metrics} on each arithmetic operation; the
    ticks compile to a single branch when no measurement is active. *)

module type S = sig
  type t
  (** A field element. Values are immutable. *)

  val name : string
  (** Human-readable description, e.g. ["GF(2^32)"] or ["GF(97^16)"]. *)

  val k_bits : int
  (** Security parameter: [floor(log2 |F|)]. A uniformly random element
      carries at least [k_bits] bits of entropy. *)

  val byte_size : int
  (** Wire size of one serialized element, used for communication
      accounting. *)

  val zero : t
  val one : t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t

  val inv : t -> t
  (** Multiplicative inverse. @raise Division_by_zero on {!zero}. *)

  val div : t -> t -> t
  (** [div a b = mul a (inv b)]. @raise Division_by_zero when [b] is
      {!zero}. *)

  val pow : t -> int -> t
  (** [pow x e] for [e >= 0] by square-and-multiply. *)

  val of_int : int -> t
  (** Canonical embedding of small non-negative integers. Injective on
      [0, 2^k_bits); in particular [of_int 1 .. of_int n] give the [n]
      distinct non-zero evaluation points used for player ids. *)

  val random : Prng.t -> t
  (** Uniformly random element. *)

  val random_nonzero : Prng.t -> t

  val lsb : t -> int
  (** The "mod 2" of an element (Fig. 6 step 3 derives the binary coin as
      [F(0) mod 2]). For [GF(2^k)] this is the constant bit; for
      [GF(q^l)] the parity of the constant coefficient. *)

  val to_bits : t -> bool array
  (** [k_bits] near-uniform bits extracted from a uniform element (a
      [k]-ary coin yields [k] binary coins, Section 3.1 of the paper). *)

  val to_bytes : t -> bytes
  (** Canonical wire encoding, exactly {!byte_size} bytes
      (little-endian). [to_bytes] / {!of_bytes} round-trip. *)

  val of_bytes : bytes -> t
  (** Decode a canonical encoding.
      @raise Invalid_argument on wrong length or a non-canonical value
      (e.g. a residue [>= p]). *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  val dot : (t array -> t array -> int -> t) option
  (** Optional dot-product kernel. When [Some dot],
      [dot a b len] is [a.(0) b.(0) + ... + a.(len - 1) b.(len - 1)]
      ({!zero} at [len = 0]), bit-identical to accumulating {!mul}
      products with {!add} from {!zero}. It performs no {!Metrics} ticks:
      callers tick [len] mults and [len] adds in bulk, what that loop
      ticks. [None] means callers run the loop. *)

  val horner : (t array array -> t -> t array -> unit) option
  (** Optional Horner kernel. When [Some horner], [horner rows x out]
      writes into [out.(r)] the polynomial whose coefficients are
      [rows.(r)], lowest degree first, evaluated at [x], for every row
      ([out] must be at least as long as [rows]). Rows may have any
      length; an empty row evaluates to {!zero}. The results are
      bit-identical to the Horner loop [acc := add (mul acc x) c] from
      the top coefficient down, and it performs no {!Metrics} ticks:
      callers tick [max (len - 1) 0] mults and adds per row in bulk,
      what that loop ticks ({!Poly.Make.eval_rows}). The rows' chains
      are independent, so a kernel may interleave them. [None] means
      callers run the loop. *)
end
