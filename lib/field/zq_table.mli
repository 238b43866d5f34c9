(** Small prime fields [Z_q] with exp/log table arithmetic.

    Section 2 of the paper: "We can implement operations over Zq via a
    table, so that they take O(log q) time." A discrete-log table over a
    generator [g] turns multiplication and inversion into two lookups and
    one addition. Intended for the [q = O(l)] base field of the special
    FFT field {!Fft_field}; the table size is [O(q)]. *)

module Tables : sig
  type t
  (** Shared, untick-ed raw arithmetic over [Z_q]; the building block
      for {!Ntt} and {!Fft_field} inner loops. *)

  val make : q:int -> t
  (** [q] must be prime and [3 <= q < 2^20]. *)

  val q : t -> int
  val generator : t -> int
  (** The primitive root the tables are built on. *)

  val add : t -> int -> int -> int
  val sub : t -> int -> int -> int
  val neg : t -> int -> int
  val mul : t -> int -> int -> int
  val inv : t -> int -> int
  val pow : t -> int -> int -> int
  val exp : t -> int -> int
  (** [exp tbl e] is [generator^e mod q], [0 <= e < 2(q-1)]. *)
end

module type PARAM = sig
  val q : int
end

module Make (P : PARAM) : sig
  include Field_intf.S

  val repr : t -> int
  val of_repr : int -> t
end
