(** Cost accounting for protocol executions.

    The paper measures protocols in field additions, multiplications,
    polynomial interpolations, messages, bits and communication rounds
    (Lemmas 2, 4, 6; Theorem 2). This module provides ambient counters
    that the field, polynomial and network layers tick, so any protocol
    run can be bracketed and its exact cost vector extracted.

    Counting is ambient (one set of counters) because the whole
    simulation is single-threaded; [with_counting] reads the counters
    before and after a thunk and returns the difference, so nested
    measurements compose. Outside every measurement a tick is a single
    branch, keeping benchmark overhead negligible. *)

type snapshot = {
  field_adds : int;      (** additions/subtractions in a field *)
  field_mults : int;     (** multiplications *)
  field_invs : int;      (** inversions / divisions *)
  interpolations : int;  (** full polynomial interpolations (incl. BW decodes) *)
  messages : int;        (** point-to-point messages sent *)
  bytes : int;           (** total payload bytes sent *)
  rounds : int;          (** synchronous communication rounds *)
  ba_runs : int;         (** Byzantine-agreement executions *)
  gradecasts : int;      (** grade-cast executions *)
}
(** Immutable cost vector. *)

val zero : snapshot

val add : snapshot -> snapshot -> snapshot
(** Component-wise sum. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff a b] is [a - b] component-wise. *)

val pp : Format.formatter -> snapshot -> unit

val to_row : snapshot -> (string * int) list
(** Labelled components, for table printers. *)

(** {1 Ticking (called by instrumented layers)} *)

val tick_adds : int -> unit
val tick_mults : int -> unit
val tick_invs : int -> unit
val tick_interpolation : unit -> unit
val tick_message : bytes_len:int -> unit
val tick_round : unit -> unit
val tick_ba : unit -> unit
val tick_gradecast : unit -> unit

(** {1 Measurement} *)

val with_counting : (unit -> 'a) -> 'a * snapshot
(** [with_counting f] runs [f] with counting enabled and returns
    [f ()]'s result together with the costs incurred. If [f] raises, the
    exception propagates and counting returns to its state before the
    call. Enclosing measurements also see the inner costs, so nesting
    over-counts nothing. *)

val without_counting : (unit -> 'a) -> 'a
(** [without_counting f] runs [f] with every open measurement
    suspended: nothing [f] does — not even a measurement [f] opens
    itself — is charged to them. Used by simulation
    bookkeeping that has no real-protocol counterpart (e.g. conjuring the
    pre-existing shares of a seed coin). *)

val counting_enabled : unit -> bool
(** True iff a measurement is open and not suspended. *)
