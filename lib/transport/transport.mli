(** Pluggable transport under the synchronous protocol drivers.

    Protocol code talks to {e this} module — never to {!Net} directly —
    and gets the same synchronous API ({!create}, {!send}, {!send_to_all},
    {!exchange}, {!broadcast_round}, the fault-plan surface) over one of
    three interchangeable backends:

    - [Sim] — the in-memory simulator; {!create} is exactly
      {!Net.create} and behaviour is bit-identical to the pre-transport
      code. The default when no backend is installed.
    - [Domains] — one OCaml 5 domain per player with mutex/condvar
      mailboxes; every protocol message physically crosses a domain
      boundary as a {!Frame} and is validated by the receiving player's
      domain.
    - [Socket] — one local process per player, connected by Unix domain
      sockets carrying length-prefixed, versioned {!Frame}s; the round
      barrier is a control-frame handshake with an OS-level receive
      timeout.

    {b Determinism contract.} Every observable decision — fault
    sampling, message ordering, metric ticks, PRNG draws — is made by
    the coordinator in one deterministic order; backends move bytes and
    are never allowed to influence ordering (the round barrier reads
    player hand-offs in player order, and inbox entries are matched back
    to coordinator bookkeeping by frame uid). Consequently a protocol
    run is {e byte-identical} across backends: same coin values, same
    metrics, same evidence, same trace structure (modulo the backend
    tag). The cross-backend differential suite in [test/test_transport.ml]
    pins this.

    Backends fail loudly, not silently: a lost frame raises
    {!Net.Desync}, a dead or wedged worker raises {!Backend_failure}
    (socket reads time out after [DPRBG_TRANSPORT_TIMEOUT] seconds,
    default 60; a malformed value of that variable is itself a loud
    {!Backend_failure}, never a silent fallback).

    {b Supervision.} Inside {!with_supervision} real peer failures stop
    being fatal: a dead, wedged or garbling peer is declared crashed on
    the ambient fault plan at the round where it failed, the protocol
    continues with the survivors exactly as if the plan had scheduled a
    simulated crash there, and more than [fault_bound] distinct real
    failures raise {!Safe_mode}. See DESIGN.md section 16 for the
    failure model and the crash/sim equivalence contract. *)

(** {1 Backends} *)

type backend = Sim | Domains | Socket

val backend_name : backend -> string
(** ["sim"], ["domains"], ["socket"] — also the trace backend tag. *)

val backend_of_string : string -> (backend, string) result
val all_backends : backend list

exception Backend_failure of string
(** A backend broke its delivery contract (worker died, process exited,
    receive timed out, frame failed validation at a player). Never used
    for simulated faults. *)

val with_backend : backend -> (unit -> 'a) -> 'a
(** [with_backend b f] runs [f] with [b] installed as the ambient
    transport: every {!create} and {!broadcast_round} inside uses it,
    and traces collected inside carry its {!backend_name} as their
    backend tag. Worker groups (n domains, or n player processes) are
    created lazily per player count, shared across the session, and
    shut down — domains joined, processes reaped — when [f] returns or
    raises. Nesting restores the previous backend on exit.

    Do not nest a [Socket] session inside a [Domains] session: forking
    is unsafe while worker domains are live. Sequential sessions are
    fine. *)

val current_backend : unit -> backend
(** The ambient backend; [Sim] when none is installed. *)

val set_timeout_override : float option -> unit
(** Install (or clear, with [None]) a receive-timeout override taking
    precedence over [DPRBG_TRANSPORT_TIMEOUT]. The CLI's
    [--transport-timeout] flag lands here. Raises [Invalid_argument] on
    a non-positive or NaN value. *)

val timeout : unit -> float
(** The effective receive timeout: the override if set, else
    [DPRBG_TRANSPORT_TIMEOUT], else 60 s. Raises {!Backend_failure} on
    a malformed or non-positive env value — never a silent fallback.
    Callers taking configuration can force this eagerly to fail fast. *)

(** {1 Supervision and chaos}

    Opt-in tolerance of {e real} peer failures (killed processes, dead
    worker domains, missed read deadlines, mangled streams), and the
    seeded injector that produces them on purpose. Both are ambient,
    mirroring {!with_plan}; supervision requires an ambient fault plan
    to hold its crash marks (an empty plan suffices). *)

module Supervisor = Transport_supervisor
module Chaos = Transport_chaos

exception Safe_mode of string
(** Re-export of {!Transport_supervisor.Safe_mode}: more distinct real
    peer failures than the configured fault bound. *)

val with_supervision :
  ?deadline:float ->
  ?retries:int ->
  ?backoff:float ->
  ?fault_bound:int ->
  (unit -> 'a) ->
  'a
(** [with_supervision f] runs [f] with failure supervision active:
    supervised barriers read under [deadline] seconds per attempt with
    [retries] extra attempts at [backoff]-multiplied deadlines
    (defaults 5s / 2 / 2.0); a peer that dies, exhausts the budget or
    mangles its stream is declared crashed on the ambient plan and
    skipped thereafter; strictly more than [fault_bound] such
    declarations raise {!Safe_mode} (no bound: never). *)

val with_chaos : Transport_chaos.event list -> (unit -> 'a) -> 'a
(** Install a chaos schedule for the duration of [f]: each event fires
    once, at the first physical post or barrier of its round (on the
    ambient plan's round clock). *)

val session_deaths : n:int -> (int * Transport_error.peer_failure) list
(** Peers the current session's [n]-player group has declared dead,
    with why — [[]] when unsupervised, outside a session, or nothing
    failed. *)

(** {1 Fault plans}

    Degraded-network machinery is backend-independent — faults are
    decided in the coordinator before a message reaches the physical
    layer — so this is {!Net}'s plan surface re-exported, keeping
    [Transport] the single networking entry point for protocol code. *)

module Plan = Net.Plan
module Faults = Net.Faults

val with_plan : Plan.t -> (unit -> 'a) -> 'a

(** {1 Networks}

    The synchronous API of {!Net}, dispatched over the ambient backend.
    ['msg conn] {e is} ['msg Net.t], so the cost model, fault semantics
    and inbox shapes are exactly Net's — see {!Net} for the full
    contracts. *)

type 'msg conn = 'msg Net.t

val create :
  ?codec:(('msg -> bytes) * (bytes -> 'msg)) ->
  n:int ->
  byte_size:('msg -> int) ->
  unit ->
  'msg conn
(** Like {!Net.create}, on the ambient backend. Under [Domains]/[Socket]
    every queued message is framed and physically posted to the
    addressee's worker; [codec] (when given) is the on-wire payload
    encoding, otherwise [Marshal] is used. [byte_size] runs only while
    counting or tracing ({!Net.observed_size}) and must be pure. *)

val send : 'msg conn -> src:int -> dst:int -> 'msg -> unit
val send_to_all : 'msg conn -> src:int -> (int -> 'msg) -> unit
val exchange : 'msg conn -> send:(unit -> unit) -> (int * 'msg) list array

(** {2 Reading a round in place}

    {!Net.Inbox}: the one reader of a delivered round, for its inboxes
    ({!Net.Inbox.fold}) and for its absence evidence
    ({!Net.Inbox.silent}). A round of a pristine [Sim] net is read
    straight from the net's dense store. The [Domains] and [Socket]
    carriers and fault plans always hold lists, so the same reader
    serves every backend. *)

module Inbox = Net.Inbox

val exchange_inbox : 'msg conn -> send:(unit -> unit) -> 'msg Inbox.t

(** {1 Broadcast channel} *)

val broadcast_round :
  ?codec:(('v -> bytes) * (bytes -> 'v)) ->
  byte_size:('v -> int) ->
  n:int ->
  (int -> 'v option) ->
  'v option array
(** One round of the assumed broadcast channel (see {!Broadcast.round},
    which delegates here): player [i] announces [announce i] and every
    player observes the same vector. Fault handling (ambient
    {!Net.Plan}, retransmit envelope, corruption through [codec]) is
    identical on every backend; under [Domains]/[Socket] the surviving
    vector is additionally replicated through the physical layer — one
    frame per (announcement, receiver) — and the returned vector is
    rebuilt from the frames that actually traversed it, with a
    {!Backend_failure} if any receiver's copy diverges. Each
    announcement ticks one message; [byte_size] sizes it once, only
    while counting or tracing ({!Net.observed_size}), and must be
    pure. *)
