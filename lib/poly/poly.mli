(** Dense univariate polynomials over an abstract field.

    Everything in the paper is polynomial manipulation: Shamir sharing
    evaluates a random degree-[t] polynomial at player ids, verification
    interpolates one polynomial through broadcast values (Figs. 2-3), and
    coin exposure interpolates through a set of shares (Fig. 6). This
    module provides those operations generically over {!Field_intf.S};
    full interpolations additionally tick
    {!Metrics.tick_interpolation} because the paper counts them as a
    separate cost unit ("the bottleneck for distributed coin generation
    [...] is the final interpolation", Section 5). *)

module Make (F : Field_intf.S) : sig
  type t = private F.t array
  (** A polynomial with coefficients in [F], lowest degree first. The
      representation is normalized: the leading coefficient is non-zero
      (the zero polynomial has no coefficients). It is readable as its
      coefficient array ([(p :> F.t array)], never to be mutated), so
      {!eval_rows} takes polynomials without a copy. *)

  val zero : t
  val one : t
  val constant : F.t -> t
  val monomial : F.t -> int -> t
  (** [monomial c d] is [c * x^d]. *)

  val of_coeffs : F.t array -> t
  (** Coefficients in increasing degree order; trailing zeros are
      stripped. The array is not retained. *)

  val coeffs : t -> F.t array
  (** Increasing degree order; empty for the zero polynomial. *)

  val coeff : t -> int -> F.t
  (** [coeff p d] is the coefficient of [x^d] (zero beyond the
      degree). *)

  val degree : t -> int
  (** [-1] for the zero polynomial. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val eval : t -> F.t -> F.t
  (** Horner evaluation: [degree p] multiplications and additions. *)

  val eval_rows : F.t array array -> F.t -> F.t array -> unit
  (** [eval_rows rows x out] writes into [out.(r)] the coefficient row
      [rows.(r)] (lowest degree first, any length, trailing zeros
      allowed; an empty row is zero) evaluated at [x], for every row.
      Values and {!Metrics} ticks are those of {!eval} row by row:
      [max (len - 1) 0] multiplications and additions per row. With
      the field's {!Field_intf.S.horner} kernel the rows run interleaved
      and the ticks are paid in bulk; without one this is that loop.
      Every dealing ({!Grid.Make.deal}) and every gamma combine
      ({!Vss.Make.combine_rows}) evaluates here.
      @raise Invalid_argument if [out] is shorter than [rows]. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : F.t -> t -> t
  val mul : t -> t -> t
  (** Schoolbook product. *)

  val divmod : t -> t -> t * t
  (** [divmod a b = (q, r)] with [a = q*b + r] and
      [degree r < degree b]. @raise Division_by_zero if [b] is zero. *)

  val random : Prng.t -> degree:int -> t
  (** Uniform polynomial of degree [<= degree] (each coefficient
      uniform). *)

  val random_with_c0 : Prng.t -> degree:int -> c0:F.t -> t
  (** Uniform polynomial of degree [<= degree] with fixed constant term —
    the Shamir dealing shape: [f(0)] is the secret. *)

  val interpolate : (F.t * F.t) list -> t
  (** Lagrange interpolation through the given [(x, y)] points; the [x]s
      must be pairwise distinct. Result degree is [< length points].
      Ticks one {!Metrics.tick_interpolation}. *)

  val interpolate_at : (F.t * F.t) list -> F.t -> F.t
  (** [interpolate_at points x0] evaluates the interpolating polynomial
      at [x0] without constructing it (direct Lagrange formula) — the
      cheap path for secret reconstruction at [x = 0]. Also ticks one
      interpolation. *)

  val interpolate_at_arrays :
    ?len:int -> xs:F.t array -> ys:F.t array -> F.t -> F.t
  (** {!interpolate_at} on parallel coordinate arrays — the
      allocation-free variant for hot reconstruction paths that already
      hold arrays. [?len] restricts to a prefix so callers can thread
      one reusable scratch arena through many reconstructions (the
      arrays are only read). Ticks one interpolation. *)

  val fits_degree : (F.t * F.t) list -> max_degree:int -> bool
  (** [fits_degree points ~max_degree]: does some polynomial of degree
      [<= max_degree] pass through all points? This is the paper's
      Problem 1 check: interpolate and test the degree. *)
end
