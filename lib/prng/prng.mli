(** Deterministic splittable pseudo-random number generator.

    Every player in the simulated network owns an independent [Prng.t];
    the paper's model gives each player a source of perfectly random bits,
    and this module stands in for that source while keeping whole-protocol
    runs reproducible from a single integer seed.

    The implementation is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014),
    which has a 64-bit state, passes BigCrush, and supports cheap
    deterministic splitting — exactly what a simulation of [n] independent
    players needs. It is {e not} a cryptographic generator; the paper
    explicitly treats local randomness as a given primitive. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream. Used to
    give each simulated player its own source. *)

val split_n : t -> int -> t array
(** [split_n g n] returns [n] independent generators split off [g]. *)

val copy : t -> t
(** [copy g] duplicates the current state (the copy replays [g]'s
    future). Useful in tests. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits g w] returns a uniformly random non-negative int of [w] bits,
    [0 <= w <= 62]. *)

val int : t -> int -> int
(** [int g bound] returns a uniform value in [0, bound-1]. [bound] must be
    positive. Uses rejection sampling, so the result is exactly uniform. *)

val bool : t -> bool
(** Uniform random boolean. *)

val bools : t -> int -> bool array
(** [bools g n] is [Array.init n (fun _ -> bool g)], and leaves [g] in
    the same state, without allocating per draw. [n >= 0]. *)

val int64_nonneg : t -> int64
(** Uniform random non-negative int64 (top bit cleared). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct g m bound] returns [m] distinct values drawn
    uniformly from [0, bound-1], in increasing order.
    Requires [m <= bound]. *)
