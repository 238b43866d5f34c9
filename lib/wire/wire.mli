(** Wire encoding for protocol messages.

    The simulator's communication accounting charges each message its
    true serialized size; this module is where "true serialized size"
    comes from. It provides a minimal deterministic binary format —
    fixed-width little-endian integers, length-prefixed sequences,
    canonical field elements via {!Field_intf.S.to_bytes} — plus codecs
    for the message shapes the protocols exchange (share vectors, gamma
    vectors with holes, [Coin-Gen] grade-cast payloads).

    Encodings are self-delimiting, so codecs compose; decoding is strict
    and raises [Invalid_argument] on trailing garbage, truncation, or
    non-canonical field elements. *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val raw : t -> bytes -> unit
  val contents : t -> bytes
  val size : t -> int
end

module Reader : sig
  type t

  val of_bytes : bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val raw : t -> int -> bytes
  val is_exhausted : t -> bool

  val expect_end : t -> unit
  (** @raise Invalid_argument if bytes remain. *)
end

module Crc32 : sig
  val digest : bytes -> int
  (** CRC-32 (IEEE 802.3) of the whole buffer, in [[0, 2^32)]. The
      checksum {!Record} frames carry. *)
end

(** Checksummed records: the one container format behind the pool
    snapshot, the beacon snapshot and the beacon journal.

    {v
    header  offset  size  field
            0       2     magic    (names the format)
            2       1     version  (checked against an accepted range)
    frame   0       4     length   payload byte count
            4       4     CRC-32   of the payload
            8       len   payload
    v}

    A snapshot is {!seal}ed: one header followed by exactly one frame,
    and nothing else. A journal is one header followed by a run of
    frames, read one at a time with {!read_frame}; what a failed frame
    means (a torn append or fatal damage) is the journal's policy, not
    the codec's. The CRC covers the payload only: a flipped version bit
    can turn one accepted version into another, which the loader's
    per-version payload decode must then reject. *)
module Record : sig
  val header_len : int
  (** 3: u16 magic, u8 version. *)

  val header : magic:int -> version:int -> bytes
  (** The 3-byte header alone, for a format that appends its frames
      later. *)

  val check_header :
    magic:int -> versions:int * int -> bytes -> (int, string) result
  (** The version of the header that starts the buffer, when the magic
      matches and the version lies in the inclusive [versions] range;
      otherwise a diagnostic ("truncated header", "bad magic",
      "unsupported version N"). *)

  val frame : bytes -> bytes
  (** Length, CRC-32, then the payload. *)

  type frame =
    | Intact of { payload : bytes; stop : int }
        (** the checksum holds; [stop] is the offset just past it *)
    | Checksum_failed of { stop : int }
        (** the frame fits in the buffer but its payload does not match
            its CRC; [stop] is the end its length field declares *)
    | Past_end  (** the frame header or its declared payload overruns *)

  val read_frame : bytes -> int -> frame
  (** Read the frame that starts at the given offset. Total: never
      raises, whatever the bytes. *)

  val seal : magic:int -> version:int -> bytes -> bytes
  (** A header followed by one frame of the payload. *)

  val unseal :
    magic:int -> versions:int * int -> bytes -> (int * bytes, string) result
  (** Inverse of {!seal}: the version and payload, when the buffer is
      exactly one intact sealed record of an accepted version. The
      error names the first check that failed: "truncated header",
      "bad magic", "unsupported version N", "payload length mismatch"
      (the frame does not end at the end of the buffer) or "checksum
      mismatch". *)
end

module Codec (F : Field_intf.S) : sig
  val write_elt : Writer.t -> F.t -> unit
  val read_elt : Reader.t -> F.t

  val write_elt_array : Writer.t -> F.t array -> unit
  (** u16 length prefix, then canonical elements. *)

  val read_elt_array : Reader.t -> F.t array

  val write_opt_elt_array : Writer.t -> F.t option array -> unit
  (** Length prefix, presence bitmap, then the present elements — the
      gamma-vector shape ([Coin-Gen] step 3). *)

  val read_opt_elt_array : Reader.t -> F.t option array

  val encode_elt : F.t -> bytes
  val decode_elt : bytes -> F.t
  (** One-shot helpers; [decode_elt] demands the exact length. *)

  val encode_elt_array : F.t array -> bytes
  val decode_elt_array : bytes -> F.t array

  val encode_opt_elt_array : F.t option array -> bytes
  val decode_opt_elt_array : bytes -> F.t option array
  (** One-shot array helpers (strict: decoding demands exact length).
      These are the wire codecs handed to {!Net.create} so byte-level
      corruption faults operate on real encodings. *)

  val elt_array_size : int -> int
  (** Wire size of an array of the given length, without encoding it. *)

  val opt_elt_array_size : F.t option array -> int

  val payload_size : clique:int list -> poly_sizes:int list -> int
  (** Wire size of a [Coin-Gen] grade-cast payload carrying the given
      clique and check polynomials with the given coefficient counts
      (u16 ids and length prefixes). Used for exact gradecast byte
      accounting. *)
end
