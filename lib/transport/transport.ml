(* ----------------------- Backend selection ----------------------- *)

type backend = Sim | Domains | Socket

let backend_name = function
  | Sim -> "sim"
  | Domains -> "domains"
  | Socket -> "socket"

let backend_of_string = function
  | "sim" -> Ok Sim
  | "domains" -> Ok Domains
  | "socket" -> Ok Socket
  | s ->
      Error
        (Printf.sprintf "unknown transport %S (expected sim, domains or socket)"
           s)

let all_backends = [ Sim; Domains; Socket ]

exception Backend_failure = Transport_error.Backend_failure

module Supervisor = Transport_supervisor
module Chaos = Transport_chaos

let with_supervision = Transport_supervisor.with_supervision
let with_chaos = Transport_chaos.with_chaos

exception Safe_mode = Transport_supervisor.Safe_mode

let default_timeout = 60.0

(* Overrides come from the CLI's --transport-timeout flag; the env var
   is the fallback. A malformed or non-positive env value is a
   configuration error and is rejected loudly — silently running with
   the default timeout turns a typo into an hour of hung soak. *)
let timeout_override : float option ref = ref None

let set_timeout_override t =
  (match t with
  | Some t when t <= 0.0 || t <> t ->
      invalid_arg "Transport.set_timeout_override: timeout must be positive"
  | _ -> ());
  timeout_override := t

let timeout () =
  match !timeout_override with
  | Some t -> t
  | None -> (
      match Sys.getenv_opt "DPRBG_TRANSPORT_TIMEOUT" with
      | None -> default_timeout
      | Some s -> (
          match float_of_string_opt (String.trim s) with
          | Some t when t > 0.0 && t = t && t <> infinity -> t
          | Some _ | None ->
              Transport_error.fail
                "DPRBG_TRANSPORT_TIMEOUT=%S is not a positive number of \
                 seconds — fix or unset it (default %gs), or pass \
                 --transport-timeout"
                s default_timeout))

(* One live worker group per player count: n domains or n processes,
   shared by every network of that size created inside the session.
   Each group carries a supervision tracker — which peers have been
   declared dead — so deadness is sticky across every network and
   broadcast round of the session. *)
type group = {
  impl : group_impl;
  gn : int;
  tracker : Transport_supervisor.tracker;
}

and group_impl = Gdomains of Transport_domains.t | Gsocket of Transport_socket.t

type session = { backend : backend; groups : (int, group) Hashtbl.t }

let ambient : session option ref = ref None
let current_backend () = match !ambient with None -> Sim | Some s -> s.backend

(* OCaml's [Unix.fork] is a one-way door: once any domain has ever been
   spawned in the process, fork is forbidden for the rest of its
   lifetime. Track domain use so a socket group started too late fails
   with an actionable message instead of the runtime's generic one —
   and order socket work before domains work when driving both. *)
let domains_used = ref false

let group session ~n =
  match Hashtbl.find_opt session.groups n with
  | Some g -> g
  | None ->
      let impl =
        match session.backend with
        | Sim -> assert false (* sim sessions never build groups *)
        | Domains ->
            domains_used := true;
            Gdomains (Transport_domains.create ~n)
        | Socket ->
            if !domains_used then
              Transport_error.fail
                "socket: cannot fork player processes after a domains \
                 session has run in this process (OCaml forbids fork once \
                 a domain was spawned) — run socket sessions first";
            Gsocket (Transport_socket.create ~timeout:(timeout ()) ~n)
      in
      let g = { impl; gn = n; tracker = Transport_supervisor.tracker ~n } in
      Hashtbl.add session.groups n g;
      g

let group_shutdown g =
  match g.impl with
  | Gdomains d -> Transport_domains.shutdown d
  | Gsocket s -> Transport_socket.shutdown s

(* Chaos bookkeeping: (group size, player) pairs whose injected stall
   should be resumed at the first missed read deadline (see the chaos
   wiring below). Session-scoped; reset when a session closes so stale
   entries cannot leak into the next one. *)
let resumable_stalls : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let with_backend backend f =
  let session = { backend; groups = Hashtbl.create 4 } in
  let previous = !ambient in
  let previous_tag = Trace.backend_tag () in
  ambient := Some session;
  Trace.set_backend_tag (Some (backend_name backend));
  Fun.protect
    ~finally:(fun () ->
      ambient := previous;
      Trace.set_backend_tag previous_tag;
      Hashtbl.reset resumable_stalls;
      Hashtbl.iter (fun _ g -> group_shutdown g) session.groups)
    f

(* ----------------------- Fault-plan surface ---------------------- *)

(* The degraded-network machinery is backend-independent — fault
   sampling happens in the coordinator before a message is handed to
   the physical layer — so the plan API is Net's, re-exported to keep
   Transport the single networking entry point for protocol code. *)

module Plan = Net.Plan
module Faults = Net.Faults

let with_plan = Net.with_plan

(* ------------------- Supervision and chaos wiring ----------------- *)

(* Fire every chaos event due at the round currently being formed on
   the ambient plan's clock. Called at the head of each physical post
   and each barrier, so an event scheduled for round r strikes before
   round r's bytes move even in rounds with no traffic. A socket stall
   shorter than the supervision budget is made recoverable: the child
   is SIGSTOPped now and SIGCONTed from the read-retry path, so the
   coordinator observes one missed deadline and a successful retry. *)
let fire_chaos g =
  if Transport_chaos.active () then
    match Net.current_plan () with
    | None -> ()
    | Some plan ->
        let round = Plan.forming_round plan in
        List.iter
          (fun (e : Transport_chaos.event) ->
            if e.player >= 0 && e.player < g.gn then
              match (g.impl, e.action) with
              | Gsocket s, Transport_chaos.Kill ->
                  Transport_socket.kill_peer s e.player
              | Gsocket s, Transport_chaos.Stall d ->
                  let budget =
                    match Transport_supervisor.active () with
                    | Some cfg -> Transport_supervisor.total_budget cfg
                    | None -> timeout ()
                  in
                  Transport_socket.stall_peer s e.player;
                  if d < budget then
                    Hashtbl.replace resumable_stalls (g.gn, e.player) ()
              | Gsocket s, Transport_chaos.Truncate ->
                  Transport_socket.garble_peer s e.player
              | Gdomains d, Transport_chaos.Kill ->
                  Transport_domains.chaos_die d e.player
              | Gdomains d, Transport_chaos.Stall dur ->
                  Transport_domains.chaos_stall d e.player ~duration:dur
              | Gdomains d, Transport_chaos.Truncate ->
                  Transport_domains.post_garbage d e.player)
          (Transport_chaos.due ~round)

let on_stall g ~player ~attempt =
  Trace.event (fun () -> Trace.Stall { player; attempt });
  if Hashtbl.mem resumable_stalls (g.gn, player) then begin
    Hashtbl.remove resumable_stalls (g.gn, player);
    match g.impl with
    | Gsocket s -> Transport_socket.resume_peer s player
    | Gdomains _ -> ()
  end

let declare_dead g ~player failure =
  match Transport_supervisor.active () with
  | Some cfg -> Transport_supervisor.declare_dead cfg g.tracker ~player failure
  | None ->
      (* Unsupervised sessions keep the pre-supervision contract: the
         first peer failure is fatal. *)
      Transport_error.fail "%s: player %d %s"
        (match g.impl with Gdomains _ -> "domains" | Gsocket _ -> "socket")
        player failure.Transport_error.reason

let peer_dead g player = Transport_supervisor.is_dead g.tracker player

(* Physically post one frame, tolerating (under supervision) the
   addressee being found dead at write time. A failed post does NOT
   declare the peer dead: the frame is lost either way, and the round's
   barrier — which sees the backend's failure classification (plain
   death vs garbage-induced) — makes the declaration deterministically,
   where a write-time EPIPE racing the barrier would not. *)
let group_post g ~dst frame =
  if not (peer_dead g dst) then
    let post () =
      match g.impl with
      | Gdomains d -> Transport_domains.post d ~dst frame
      | Gsocket s -> Transport_socket.post s ~dst frame
    in
    match Transport_supervisor.active () with
    | None -> post ()
    | Some _ -> ( try post () with Backend_failure _ -> ())

(* Run the physical round barrier. Supervised: dead peers are skipped,
   read deadlines/retries/backoff come from the config, and a peer
   failure declares it dead (possibly raising [Safe_mode]) and yields
   an empty hand-off — the coordinator's plan voids its inbox exactly
   as for a simulated crash. Unsupervised: the session timeout is the
   single read deadline and the first failure is fatal. *)
let group_barrier g =
  let skip = peer_dead g in
  let results =
    match (Transport_supervisor.active (), g.impl) with
    | Some cfg, Gsocket s ->
        Transport_socket.barrier ~skip ~deadline:cfg.deadline
          ~retries:cfg.retries ~backoff:cfg.backoff ~on_stall:(on_stall g) s
    | Some cfg, Gdomains d ->
        Transport_domains.barrier ~skip ~deadline:cfg.deadline
          ~retries:cfg.retries ~backoff:cfg.backoff ~on_stall:(on_stall g) d
    | None, Gsocket s -> Transport_socket.barrier ~skip s
    | None, Gdomains d ->
        Transport_domains.barrier ~skip ~on_stall:(on_stall g) d
  in
  Array.mapi
    (fun player result ->
      match result with
      | Ok frames -> frames
      | Error failure ->
          declare_dead g ~player failure;
          [])
    results

(* --------------------------- Networks ----------------------------- *)

type 'msg conn = 'msg Net.t

(* Codec-less networks (agreement sub-protocols exchange plain OCaml
   values) still need a byte representation to physically traverse a
   backend; Marshal is the fallback. Networks with a wire codec use it,
   so the bytes on the wire are the protocol's own encoding. *)
let marshal_codec () =
  ((fun v -> Marshal.to_bytes v []), fun b -> Marshal.from_bytes b 0)

let carrier backend (encode, decode) g =
  {
    Net.Carrier.name = backend_name backend;
    post =
      (fun ~src ~dst ~uid msg ->
        fire_chaos g;
        group_post g ~dst
          (Frame.encode Frame.Msg ~src ~dst ~uid ~payload:(encode msg)));
    collect =
      (fun () ->
        fire_chaos g;
        Array.mapi
          (fun player frames ->
            (* A peer that echoes bytes failing to decode is mangling
               its stream: under supervision that is an attributable
               Undecodable death, not a coordinator crash. *)
            match
              List.map
                (fun raw ->
                  let hdr, payload = Frame.decode raw in
                  (hdr.Frame.uid, decode payload))
                frames
            with
            | inbox -> inbox
            | exception Frame.Error e ->
                (match Transport_supervisor.active () with
                | None ->
                    Transport_error.fail "%s: player %d echoed a bad frame: %s"
                      (backend_name backend) player
                      (Format.asprintf "%a" Frame.pp_error e)
                | Some _ ->
                    declare_dead g ~player
                      {
                        Transport_error.reason =
                          Format.asprintf "echoed a bad frame: %a"
                            Frame.pp_error e;
                        undecodable = true;
                      });
                [])
          (group_barrier g));
  }

let create ?codec ~n ~byte_size () =
  match !ambient with
  | None | Some { backend = Sim; _ } -> Net.create ?codec ~n ~byte_size ()
  | Some ({ backend = Domains | Socket; _ } as session) ->
      let c =
        match codec with Some c -> c | None -> marshal_codec ()
      in
      Net.create
        ~carrier:(carrier session.backend c (group session ~n))
        ?codec ~n ~byte_size ()

let send = Net.send
let send_to_all = Net.send_to_all
let exchange = Net.exchange

module Inbox = Net.Inbox

let exchange_inbox = Net.exchange_inbox

(* ----------------------- Broadcast channel ----------------------- *)

(* One announcement is one counted message, sized once and only while
   observed (Net's sizing rule); the event thunk is guarded because it
   allocates even with no collector installed. *)
let tick_announcement ~byte_size ~src v =
  let bytes = Net.observed_size ~counted:true byte_size v in
  Metrics.tick_message ~bytes_len:bytes;
  if Trace.enabled () then Trace.event (fun () -> Trace.Broadcast { src; bytes })

let bcast_fault_free ~byte_size ~n announce =
  Metrics.tick_round ();
  Array.init n (fun i ->
      match announce i with
      | None -> None
      | Some v ->
          tick_announcement ~byte_size ~src:i v;
          Some v)

(* Under a fault plan the channel can fail whole announcements (it never
   equivocates — every receiver still sees the same vector): an
   announcement can be omitted, corrupted in transit, or lost to a
   crashed announcer. The retransmit envelope re-announces once per
   attempt and keeps the latest delivered copy, mirroring
   [Net.exchange]: under a bounded plan the final attempt is exempt from
   link faults, so omission bursts within the budget are absorbed. *)
let bcast_degraded plan ?codec ~byte_size ~n announce =
  let attempts = Plan.retransmits plan + 1 in
  let result = Array.make n None in
  Fun.protect
    ~finally:(fun () -> Plan.exit_envelope plan)
    (fun () ->
      for attempt = 1 to attempts do
        Plan.enter_envelope plan ~attempt ~attempts;
        Metrics.tick_round ();
        for i = 0 to n - 1 do
          match announce i with
          | None -> ()
          | Some v ->
              tick_announcement ~byte_size ~src:i v;
              if Plan.down plan i then Plan.note_crashed_msg plan
              else (
                match Plan.broadcast_fate plan with
                | `Deliver -> result.(i) <- Some v
                | `Drop -> ()
                | `Corrupt -> (
                    match codec with
                    | None -> () (* no wire form: detected and discarded *)
                    | Some (encode, decode) -> (
                        match decode (Plan.corrupt_bytes plan (encode v)) with
                        | v' -> result.(i) <- Some v'
                        | exception _ -> ())))
        done;
        Plan.advance_round plan
      done);
  result

(* Physically replicate the surviving announcement vector through the
   byte-level backend: each delivered announcement is framed once per
   receiver (uid = announcer id), the barrier hands every receiver its
   copies, and the vector every player observes is rebuilt from what
   actually traversed the wire. Live receivers must agree on which
   slots are populated — a divergence is a backend bug, not a simulated
   fault, because the channel by definition never equivocates. Peers
   declared dead by the supervision layer receive nothing and are
   exempt; if every receiver is dead the logical vector stands. *)
let bcast_replicate session (encode, decode) ~n result =
  let g = group session ~n in
  Array.iteri
    (fun src slot ->
      match slot with
      | None -> ()
      | Some v ->
          let payload = encode v in
          for dst = 0 to n - 1 do
            fire_chaos g;
            group_post g ~dst
              (Frame.encode Frame.Msg ~src ~dst ~uid:src ~payload)
          done)
    result;
  let raw = group_barrier g in
  let vectors =
    Array.map
      (fun frames ->
        let vec = Array.make n None in
        List.iter
          (fun frame ->
            let hdr, payload = Frame.decode frame in
            if hdr.Frame.uid < 0 || hdr.Frame.uid >= n then
              Transport_error.fail "broadcast frame with alien uid %d"
                hdr.Frame.uid;
            vec.(hdr.Frame.uid) <- Some (decode payload))
          frames;
        vec)
      raw
  in
  let expected = Array.map Option.is_some result in
  let live = ref None in
  Array.iteri
    (fun dst vec ->
      if not (peer_dead g dst) then begin
        if !live = None then live := Some dst;
        if Array.map Option.is_some vec <> expected then
          Transport_error.fail "broadcast replication diverged at receiver %d"
            dst
      end)
    vectors;
  match !live with
  | Some dst -> vectors.(dst)
  | None ->
      (* Everyone is dead; replication carried nothing. Return what the
         channel decided — callers past the fault bound are already in
         Safe_mode territory. *)
      Array.map (Option.map (fun v -> decode (encode v))) result

let broadcast_round ?codec ~byte_size ~n announce =
  Trace.span Trace.Round "bcast.round" @@ fun () ->
  let result =
    match Net.current_plan () with
    | None -> bcast_fault_free ~byte_size ~n announce
    | Some plan -> bcast_degraded plan ?codec ~byte_size ~n announce
  in
  match !ambient with
  | None | Some { backend = Sim; _ } -> result
  | Some ({ backend = Domains | Socket; _ } as session) ->
      let c = match codec with Some c -> c | None -> marshal_codec () in
      bcast_replicate session c ~n result

(* ------------------------ Failure inspection --------------------- *)

(* Which peers the current session has declared dead (player, why), per
   group size. Empty when unsupervised or nothing failed. *)
let session_deaths ~n =
  match !ambient with
  | None -> []
  | Some session -> (
      match Hashtbl.find_opt session.groups n with
      | None -> []
      | Some g -> Transport_supervisor.deaths g.tracker)
