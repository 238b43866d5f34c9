(** Precomputed evaluation-grid kernels.

    Every protocol in this repository works over the same fixed point
    set: player [i] lives at [F.of_int (i + 1)], and a session's
    parameters [(n, t)] never change between the [deal], [verify] and
    [reconstruct] calls of a batch. The naive paths re-derive the
    Lagrange/Vandermonde setup for that grid on every call — an
    [O(n^2)] cost the paper's amortization argument never pays, because
    the setup is the same each time. A {!t} is that setup, computed
    once per [(field, n, t)] session:

    - the [n] player points themselves, at which every dealing of the
      repository is evaluated ({!eval_poly} for one polynomial,
      {!deal} for a dealer's [M] polynomials, player-major);
    - extension rows [L_j(x_i)] of the Lagrange basis over the first
      [t + 1] grid points, turning the Fig. 2/Fig. 3 degree check
      ("do all [n] broadcast values lie on one degree-[<= t]
      polynomial?") into [(n - t - 1)(t + 1)] multiplications with no
      polynomial allocation;
    - the coefficients of that same basis (the inverse Vandermonde
      matrix of the first [t + 1] points), so a vector that passes the
      check yields its polynomial in [(t + 1)^2] more multiplications —
      the Fig. 4 step 5 decode when no gamma is missing or wrong;
    - per-subset caches of Lagrange-at-zero weights and extension rows,
      keyed by the participating-index bitset, for Coin-Expose
      reconstruction under missing or faulty shares (the subset of
      trusted senders repeats across coins of a batch).

    The subset operations, list and array entry points alike, run on
    one core: points are loaded into a scratch arena inside the plan
    (every id checked), sorted and checked for duplicates there, and
    read against those caches. Not re-entrant: one at a time per plan.

    All kernels compute exactly the same field elements as the naive
    {!Poly} paths (fields are exact; only the association order
    differs, property-tested in [test/test_kernel.ml]), and tick
    {!Metrics} identically where the naive path did: one
    [tick_interpolation] per degree check or reconstruction, and
    exactly what per-share Horner evaluation ticks per dealt share. *)

module Make (F : Field_intf.S) : sig
  module P : module type of Poly.Make (F)

  type t
  (** A plan for the grid [F.of_int 1 .. F.of_int n] with degree bound
      [t]. Immutable apart from its internal append-only subset
      caches. *)

  val make : n:int -> t:int -> t
  (** Precompute the plan; [O(n t + t^3)] field operations and [t + 1]
      inversions, paid once per session. Requires [0 <= t < n] and [n]
      distinct non-zero grid points to exist in [F]. *)

  val n : t -> int
  val degree_bound : t -> int

  val dot : F.t array -> F.t array -> int -> F.t
  (** [dot a b len] is [a.(0) b.(0) + ... + a.(len - 1) b.(len - 1)]:
      the one fixed-row product behind {!fits}, {!interpolate_checked}
      and the subset operations. It ticks [len] mults and
      [len] adds, what accumulating [F.mul] products with [F.add] from
      zero ticks. With the field's {!Field_intf.S.dot} kernel the sum is
      formed raw and those ticks are paid in bulk; without one it is
      that loop. *)

  val eval_poly : t -> P.t -> F.t array
  (** [eval_poly plan f] is one polynomial's share row: [f] at every
      grid point, [(eval_poly plan f).(i) = P.eval f x_i] with
      [x_i = F.of_int (i + 1)]. Any degree (an honest dealing has
      degree [<= t], a cheating one up to [n - 1]). Values and
      {!Metrics} ticks ([degree f] mults and adds per point) are those
      of per-share {!Poly.Make.eval}: each point is one
      {!Poly.Make.eval_rows} call. No randomness is drawn. *)

  val deal : t -> P.t array -> F.t array array
  (** [deal plan polys] is a dealer's share matrix, player-major:
      [(deal plan polys).(i).(h) = P.eval polys.(h) x_i] with
      [x_i = F.of_int (i + 1)], the row player [i] receives. Each row
      is one {!Poly.Make.eval_rows} call over all the polynomials at
      [x_i], so values and ticks are those of per-share Horner; no
      transposed copy is built. *)

  val fits : t -> F.t array -> bool
  (** [fits plan values]: do the [n] grid values (indexed by player)
      lie on a single polynomial of degree [<= t]? Equivalent to
      {!Poly.Make.fits_degree} on the full grid; ticks one
      interpolation. *)

  val interpolate_checked : t -> F.t array -> F.t array option
  (** [interpolate_checked plan values]: when the [n] grid values lie on
      one polynomial [f] of degree [<= t] ({!fits}), [Some] of [f]'s
      [t + 1] coefficients in increasing degree (not normalized: a
      lower-degree [f] has trailing zeros), read off the first [t + 1]
      values through the plan's inverse Vandermonde table; [None]
      otherwise. [(n - t - 1)(t + 1) + (t + 1)^2] multiplications at
      most, no inversion, one interpolation tick. *)

  val fits_on : t -> (int * F.t) list -> bool
  (** Subset variant: the points [(player, value)] (distinct players)
      lie on a degree-[<= t] polynomial. Subsets of size [<= t + 1]
      fit trivially. Extension rows are cached per subset. Ticks one
      interpolation. @raise Invalid_argument on no points, an id out of
      range or a repeated id. *)

  val reconstruct_zero : t -> (int * F.t) list -> F.t
  (** Interpolate [f(0)] through the given [(player, value)] points
      (distinct players; no degree check — all points are used, like
      {!Poly.Make.interpolate_at} at zero). Weights are cached per
      subset. Ticks one interpolation. @raise Invalid_argument as
      {!fits_on}. *)

  val reconstruct_zero_checked : t -> (int * F.t) list -> F.t option
  (** Combined degree check and reconstruction, ticking one
      interpolation total: [Some f(0)] when all points lie on one
      degree-[<= t] polynomial [f] (at least [t + 1] points required),
      [None] otherwise — including when two points share a player id
      (degraded networks deliver duplicates). A [None] means some share
      is faulty or duplicated and an error-correcting decoder must take
      over. @raise Invalid_argument on no points or an id out of range. *)

  val reconstruct_zero_checked_into :
    t -> ids:int array -> ys:F.t array -> len:int -> F.t option
  (** {!reconstruct_zero_checked} over parallel arrays — the first
      [len] entries of [ids]/[ys], in any order, caller's arrays left
      untouched — the Coin-Expose fast path. The points are copied into
      the arena by a direct loop, so the subset-cache hit path
      allocates O(1) minor words. A full grid in id order (every player
      present: a fault-free exposure) skips the arena and reads the
      plan's own extension rows. Same result and single interpolation
      tick as the list entry point. *)
end
