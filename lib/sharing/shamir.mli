(** Shamir secret sharing [Sha79] — the sharing shape underneath every
    protocol in the paper.

    The dealer picks a uniformly random polynomial [f] of degree [<= t]
    with [f(0) = secret]; player [i] (ids [0 .. n-1]) receives the share
    [f(i+1)]. Any [t+1] shares reconstruct [f(0)] by interpolation; any
    [t] shares are statistically independent of the secret. *)

module Make (F : Field_intf.S) : sig
  module P : module type of Poly.Make (F)
  module G : module type of Grid.Make (F)

  val eval_point : int -> F.t
  (** [eval_point i] is the field point of player [i], namely
      [F.of_int (i + 1)] — non-zero so that no share is the secret
      itself. *)

  val grid : n:int -> t:int -> G.t
  (** The cached evaluation-grid plan for an [(n, t)] session,
      constructed on first use and shared by every subsequent
      plan-aware call with the same parameters. *)

  val share_poly : Prng.t -> t:int -> secret:F.t -> P.t
  (** The dealer's random degree-[<= t] polynomial with constant term
      [secret]. *)

  val deal : Prng.t -> t:int -> n:int -> secret:F.t -> F.t array
  (** [deal g ~t ~n ~secret] returns the [n] shares. Requires
      [t < n] and [n] distinct evaluation points to exist in [F].
      Evaluates through the cached {!grid} plan; draws, shares and
      {!Metrics} ticks are identical to {!deal_naive}. *)

  val deal_with : G.t -> Prng.t -> secret:F.t -> F.t array
  (** Plan-aware dealing: same polynomial draw as {!deal} with the
      session plan supplied explicitly, evaluated by
      {!Grid.Make.eval_poly}. *)

  val deal_naive : Prng.t -> t:int -> n:int -> secret:F.t -> F.t array
  (** The reference path: per-point Horner evaluation with no
      precomputation. Same PRNG draws and results as {!deal}; kept for
      equivalence tests and benchmarks. *)

  val reconstruct : (int * F.t) list -> F.t
  (** [reconstruct shares] interpolates [f(0)] from [(player, share)]
      pairs; callers supply at least [t+1] shares from distinct
      players. All supplied shares are used, so a corrupted share
      corrupts the output — use {!robust_reconstruct} against faults.
      Through a session plan, {!G.reconstruct_zero} computes the same
      value from cached weights. *)

  val robust_reconstruct :
    t:int -> (int * F.t) list -> (F.t * (int * F.t) list) option
  (** [robust_reconstruct ~t shares] decodes through up to [e] wrong
      shares where [e = (len - t - 1) / 2] (Berlekamp–Welch), returning
      the secret and the agreeing shares. [None] when decoding fails,
      i.e. more errors than the share count supports. *)
end
