(** Write-ahead epoch journal for the beacon's durability layer.

    A journal is a byte file in the {!Wire.Record} container format: a
    3-byte header (magic [0xBEA2], version 1), then a run of frames
    (u32 payload length, u32 CRC-32, payload), one per record. The
    codec owns those bytes; this module owns the policy on top. Each
    payload starts with a u32 record sequence number that must run
    contiguously from the value the file was created with. A crash
    mid-append leaves a {e torn tail} (a final frame that runs past
    end-of-file or fails its checksum exactly at end-of-file), which
    {!recover} drops. Damage anywhere {e before} the tail cannot be a
    torn write and stays fatal with a precise diagnostic — including a
    flipped length field that makes an interior record overrun
    end-of-file, which the intact record after it gives away. Damage
    confined to the final record cannot be told from a crash.

    Durability discipline is explicit in the API. Every {!append}
    pushes the framed record through [write(2)] before returning —
    under {!Fsync} (the production default for the durable beacon) it
    also [fsync]s, so an acknowledged append survives power loss; under
    {!Flush_only} the bytes are in the kernel page cache, which
    survives a process crash (SIGKILL) but not the machine. The
    crash-point harness runs [Flush_only]: process death is the failure
    model it simulates.

    The module is single-domain: the {!Crash_point} instrumentation is
    ambient global state, as is the writer's position. *)

exception Corrupt_journal of string
(** Mid-journal damage: a checksum or framing failure {e before} the
    final record, a frame that does not close although an intact record
    with the next sequence number follows it, a record-sequence gap, or
    a header that belongs to some other file format. Never raised for a
    torn tail. *)

type sync_policy =
  | Fsync  (** [fsync] after every append and metadata rotation *)
  | Flush_only
      (** stop at [write(2)]: durable across process death only *)

(** Deterministic crash injection for the crash-point harness. Every
    byte the journal (and {!write_file_atomic}) pushes to disk, plus
    every metadata operation (a rename), is one {e durability point}.
    Counting a seeded workload's points and then re-running it once per
    point with that budget kills the writer at every possible byte
    offset — the SIGKILL sweep, made deterministic. *)
module Crash_point : sig
  exception Crashed
  (** Raised by the write that exhausts an armed budget, after it has
      written the bytes that still fit — the torn write itself. *)

  val count : (unit -> 'a) -> 'a * int
  (** Run a workload with points counted instead of limited; returns
      its result and the total number of durability points. *)

  val with_budget : int -> (unit -> 'a) -> [ `Completed of 'a | `Crashed ]
  (** Run a workload allowed exactly [budget] durability points; the
      write that would exceed them completes partially and the
      resulting {!Crashed} is caught here. Nested arming is rejected
      with [Invalid_argument]. *)
end

(** {1 Appending} *)

type writer

val create : ?sync:sync_policy -> string -> writer
(** Start a fresh journal at the path (truncating anything there),
    record sequence 0. Default [sync] is {!Fsync}. *)

val append : writer -> bytes -> unit
(** Frame and write one record carrying [body]; under {!Fsync} the
    record is on stable storage when this returns. *)

val sync : writer -> unit
(** Force an [fsync] regardless of the writer's policy. *)

val close : writer -> unit
(** Close the file descriptor. Idempotent; never writes. *)

val path : writer -> string

(** {1 Recovery} *)

type recovery = {
  records : bytes list;  (** every intact record body, in append order *)
  next_record_seq : int;  (** one past the last intact record *)
  valid_len : int;  (** byte length of the intact prefix *)
  torn_bytes : int;  (** trailing bytes dropped as a torn write *)
}

val recover : string -> recovery
(** Parse the journal at the path (a missing file is an empty
    journal). A final record that does not close — frame running past
    end-of-file, or a checksum mismatch on the very last record — is
    the torn tail: dropped, reported in [torn_bytes]. Before that
    verdict the bytes after the failed frame are searched for an intact
    record carrying the next sequence number; finding one means the
    failed frame was not the last append. The file itself is not
    modified; {!open_append} is the mutating entry point.
    @raise Corrupt_journal on damage anywhere before the tail. *)

val open_append : ?sync:sync_policy -> string -> recovery * writer
(** {!recover}, then truncate the file to the intact prefix (rewriting
    the header if even that was torn or the file is new) and return a
    writer positioned after it, continuing the record sequence. *)

val reset : ?sync:sync_policy -> string -> writer
(** Atomically replace the journal with an empty one (fresh header
    written to [<path>.tmp], synced, renamed over) and return a writer
    on it, record sequence 0. This is the rotation step after a
    snapshot has made the journaled history redundant. *)

(** {1 Atomic file replacement} *)

val write_file_atomic : ?fsync:bool -> string -> bytes -> unit
(** Write [bytes] to [<path>.tmp], [fsync] it (default [true]), and
    rename over [path] — the snapshot-rotation primitive. A crash at
    any byte offset leaves either the old file intact (plus a stale
    [.tmp] that recovery ignores) or the new one complete, never a
    torn target. Writes count as {!Crash_point} durability points. *)
