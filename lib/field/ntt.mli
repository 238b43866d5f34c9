(** Number-theoretic transform (DFT over [Z_q]).

    Realizes the paper's Section-2 remark that multiplication in the
    special field uses "discrete Fourier transforms to do the
    multiplication, modulo some irreducible polynomial, in O(l log l)
    operations over Zq". Radix-2 iterative Cooley–Tukey; the transform
    size [m] must be a power of two dividing [q - 1]. *)

type plan
(** Precomputed twiddle factors for one [(q, m)] pair. *)

val plan : Zq_table.Tables.t -> m:int -> plan
(** [plan tbl ~m] requires [m] a power of two with [m | q - 1].
    @raise Invalid_argument otherwise. *)

val size : plan -> int

val transform : plan -> int array -> int array
(** Forward DFT of a coefficient vector (length [<= m]; implicitly
    zero-padded). Returns a fresh array of length [m]. *)

val inverse : plan -> int array -> int array
(** Inverse DFT; [inverse p (transform p a)] equals [a] zero-padded
    to length [m]. The input must have length [m]. *)

val convolve : plan -> int array -> int array -> int array
(** Polynomial product via pointwise multiplication in the frequency
    domain. The two inputs must satisfy
    [length a + length b - 1 <= size plan]; the result has length [m]
    (high entries zero). *)
