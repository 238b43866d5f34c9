let log_src = Logs.Src.create "dprbg.net" ~doc:"Synchronous network rounds"

module Log = (val Logs.src_log log_src)

(* ------------------------- Fault plans --------------------------- *)

module Plan = struct
  type stats = {
    dropped : int;
    delayed : int;
    duplicated : int;
    corrupted : int;
    reordered : int;
    crashed_msgs : int;
    rounds : int;
  }

  type t = {
    prng : Prng.t;
    (* Probabilities in basis points (1/10000) so sampling stays in
       integer arithmetic and replays exactly. *)
    drop : int;
    delay : int;
    max_delay : int;
    duplicate : int;
    corrupt : int;
    reorder : int;
    crashes : (int * int * int option) list;
    (* Supervised real failures: (player, from_round) crash-stop marks
       added mid-run by the transport supervision layer when a physical
       peer dies. Semantically identical to a [crashes] entry with no
       recovery round. *)
    mutable real_crashes : (int * int) list;
    retransmits : int;
    bounded : bool;
    mutable round : int;
    (* True while a [deliver] barrier is in progress: the round clock
       has already advanced to the round being delivered, so the "round
       currently being formed" is [round] rather than [round + 1]. *)
    mutable delivering : bool;
    (* (attempt, attempts) while inside a retransmit envelope. *)
    mutable envelope : (int * int) option;
    mutable dropped : int;
    mutable delayed : int;
    mutable duplicated : int;
    mutable corrupted : int;
    mutable reordered : int;
    mutable crashed_msgs : int;
  }

  let bp name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Net.Plan.make: %s must be in [0, 1]" name);
    int_of_float ((p *. 10000.0) +. 0.5)

  let make ?(drop = 0.0) ?(delay = 0.0) ?(max_delay = 2) ?(duplicate = 0.0)
      ?(corrupt = 0.0) ?(reorder = 0.0) ?(crashes = []) ?(retransmits = 0)
      ?(bounded = true) ~seed () =
    if max_delay < 1 then invalid_arg "Net.Plan.make: max_delay must be >= 1";
    if retransmits < 0 then
      invalid_arg "Net.Plan.make: retransmits must be >= 0";
    List.iter
      (fun (i, from, until) ->
        if i < 0 then invalid_arg "Net.Plan.make: crash player id negative";
        if from < 1 then invalid_arg "Net.Plan.make: crash round must be >= 1";
        match until with
        | Some u when u <= from ->
            invalid_arg "Net.Plan.make: recovery round must follow the crash"
        | _ -> ())
      crashes;
    {
      prng = Prng.of_int seed;
      drop = bp "drop" drop;
      delay = bp "delay" delay;
      max_delay;
      duplicate = bp "duplicate" duplicate;
      corrupt = bp "corrupt" corrupt;
      reorder = bp "reorder" reorder;
      crashes;
      real_crashes = [];
      retransmits;
      bounded;
      round = 0;
      delivering = false;
      envelope = None;
      dropped = 0;
      delayed = 0;
      duplicated = 0;
      corrupted = 0;
      reordered = 0;
      crashed_msgs = 0;
    }

  let retransmits p = p.retransmits
  let rounds_elapsed p = p.round
  let advance_round p = p.round <- p.round + 1
  let begin_delivery p = p.delivering <- true
  let end_delivery p = p.delivering <- false

  (* The round whose messages are currently in flight: during the send
     phase the upcoming round, during a [deliver] barrier the round the
     (already advanced) clock points at. This is the round a supervised
     real failure is pinned to, whichever phase detected it. *)
  let forming_round p = if p.delivering then max 1 p.round else p.round + 1

  (* Down during [from, until): a crashed player sends and receives
     nothing; with [until = None] it never recovers (crash-stop).
     Supervised real crashes are crash-stop marks on the same clock. *)
  let down_at p r i =
    List.exists
      (fun (j, from, until) ->
        j = i && from <= r
        && match until with None -> true | Some u -> r < u)
      p.crashes
    || List.exists (fun (j, from) -> j = i && from <= r) p.real_crashes

  let really_down_at p r i =
    List.exists (fun (j, from) -> j = i && from <= r) p.real_crashes

  let down p i = down_at p (p.round + 1) i

  (* Supervision hook: a physical peer died (killed process, poisoned
     domain, stream past its deadline) and the transport layer is
     converting it into a tolerated crash-stop fault starting at the
     round currently being formed — the exact semantics a static
     [crashes] entry at that round would have had. Returns whether the
     mark is new (the peer was not already down this round). *)
  let mark_crashed p ~player =
    let r = forming_round p in
    if down_at p r player then false
    else begin
      p.real_crashes <- (player, r) :: p.real_crashes;
      true
    end

  let real_crashes p = List.sort compare p.real_crashes
  let real_crash_count p = List.length p.real_crashes

  let hit p basis = basis > 0 && Prng.int p.prng 10000 < basis

  (* The absorption guarantee of bounded plans: the last of a multi-send
     retransmit envelope is never link-faulted, so an honest message
     always gets through within the envelope. Crashes are exempt — no
     amount of retransmission reaches a dead player. *)
  let suppressed p =
    p.bounded
    && match p.envelope with Some (a, n) -> n > 1 && a = n | None -> false

  let sample_delay p =
    let cap =
      match p.envelope with
      | Some (a, n) when p.bounded -> min p.max_delay (n - a)
      | _ -> p.max_delay
    in
    if cap < 1 then 0 else 1 + Prng.int p.prng cap

  type link_fate = Deliver | Drop | Delay of int | Duplicate | Corrupt

  let link_fate p =
    if suppressed p then Deliver
    else if hit p p.drop then begin
      p.dropped <- p.dropped + 1;
      Drop
    end
    else if hit p p.delay then begin
      match sample_delay p with
      | 0 -> Deliver
      | d ->
          p.delayed <- p.delayed + 1;
          Delay d
    end
    else if hit p p.duplicate then begin
      p.duplicated <- p.duplicated + 1;
      Duplicate
    end
    else if hit p p.corrupt then begin
      p.corrupted <- p.corrupted + 1;
      Corrupt
    end
    else Deliver

  (* Byte-level corruption: flip one uniformly random bit of the wire
     encoding. The caller re-decodes; a strict decoder that rejects the
     mangled bytes turns the fault into a (detected) drop. *)
  let corrupt_bytes p b =
    let b = Bytes.copy b in
    let len = Bytes.length b in
    if len > 0 then begin
      let pos = Prng.int p.prng len in
      let bit = Prng.int p.prng 8 in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit))
    end;
    b

  let broadcast_fate p =
    if suppressed p then `Deliver
    else if hit p p.drop then begin
      p.dropped <- p.dropped + 1;
      `Drop
    end
    else if hit p p.corrupt then begin
      p.corrupted <- p.corrupted + 1;
      `Corrupt
    end
    else `Deliver

  let count_crashed_msg p = p.crashed_msgs <- p.crashed_msgs + 1
  let note_crashed_msg = count_crashed_msg

  let enter_envelope p ~attempt ~attempts =
    p.envelope <- Some (attempt, attempts)

  let exit_envelope p = p.envelope <- None

  let shuffle_inbox p inbox =
    if hit p p.reorder then begin
      p.reordered <- p.reordered + 1;
      let a = Array.of_list inbox in
      Prng.shuffle p.prng a;
      Array.to_list a
    end
    else inbox

  let stats p =
    {
      dropped = p.dropped;
      delayed = p.delayed;
      duplicated = p.duplicated;
      corrupted = p.corrupted;
      reordered = p.reordered;
      crashed_msgs = p.crashed_msgs;
      rounds = p.round;
    }

  let pp_stats ppf (s : stats) =
    Format.fprintf ppf
      "dropped=%d delayed=%d duplicated=%d corrupted=%d reordered=%d \
       crashed-msgs=%d rounds=%d"
      s.dropped s.delayed s.duplicated s.corrupted s.reordered s.crashed_msgs
      s.rounds
end

let ambient_plan : Plan.t option ref = ref None

let with_plan plan f =
  let previous = !ambient_plan in
  ambient_plan := Some plan;
  Fun.protect ~finally:(fun () -> ambient_plan := previous) f

let current_plan () = !ambient_plan

(* A carrier is the physical message-moving layer under a network: the
   coordinator still decides every fault, ordering and metric outcome,
   but each surviving message is [post]ed to the carrier when it enters
   a queue and must come back — matched by uid — from [collect] at the
   round barrier. With no carrier the network is the pure in-memory
   simulator, bit-identical to its pre-carrier behaviour. *)
module Carrier = struct
  type 'msg t = {
    name : string;  (** backend tag, e.g. ["domains"] or ["socket"] *)
    post : src:int -> dst:int -> uid:int -> 'msg -> unit;
    collect : unit -> (int * 'msg) list array;
        (** per-destination [(uid, msg)] frames since the last collect *)
  }
end

exception Desync of string
(** A carrier lost or invented a frame: the physical layer disagrees
    with the coordinator's bookkeeping. Always a transport bug, never a
    simulated fault — simulated faults are decided before posting. *)

(* The one sizing rule. A message's size is read only by the cost
   counters and by trace events, so [byte_size] runs only while one of
   them is listening: an open measurement, for a message to another
   player ([counted]; self-messages are free), or a trace collector, for
   any message (its send and receive events carry the size). Unobserved,
   nothing is sized and [unsized] stands in; it reaches only no-op
   ticks. *)
let unsized = -1

let observed_size ~counted byte_size msg =
  if (counted && Metrics.counting_enabled ()) || Trace.enabled () then
    byte_size msg
  else unsized

type 'msg t = {
  n : int;
  byte_size : 'msg -> int;
  codec : (('msg -> bytes) * (bytes -> 'msg)) option;
  plan : Plan.t option;
  carrier : 'msg Carrier.t option;
  (* queues.(dst) holds (src, uid, bytes, msg) in reverse send order;
     [bytes] is the send-time {!observed_size}, reused by the [Recv]
     event so a traced message is sized once. *)
  queues : (int * int * int * 'msg) list array;
  (* In-flight delayed messages: (arrival_round, src, dst, bytes, msg),
     with arrival measured on the plan's global round clock. *)
  mutable delayed : (int * int * int * int * 'msg) list;
  mutable rounds : int;
  (* Next per-network message uid; identifies each queued message to the
     carrier so delivery can match physical frames back to the
     coordinator's queue entries. *)
  mutable next_uid : int;
  (* Messages enqueued since the last delivery / in the last round
     delivered from the store. A stored round holds at most one message
     per link, so [last_enqueued = n * n] proves it complete: the O(1)
     answer of {!Inbox.silent}. *)
  mutable enqueued : int;
  mutable last_enqueued : int;
  (* A pristine net (no plan, no carrier) cannot drop, delay, duplicate
     or reorder, so its rounds go to a dense store indexed by
     [dst * n + src]: the message, the round it was sent for (the
     presence mark: equal to the forming round [rounds + 1] while
     sending, to [rounds] once delivered) and its send-time size. The
     store is built on the first send and reused by every round; the
     size array only once a size is observed. *)
  pristine : bool;
  mutable store_msgs : 'msg array;
  mutable store_round : int array;
  mutable store_sizes : int array;
  (* Set when a second send on one link in one round moved the round
     to the list queues (see [spill]); cleared at the barrier. *)
  mutable spilled : bool;
}

let create ?carrier ?codec ~n ~byte_size () =
  if n < 1 then invalid_arg "Net.create: n must be positive";
  let plan = !ambient_plan in
  {
    n;
    byte_size;
    codec;
    plan;
    carrier;
    queues = Array.make n [];
    delayed = [];
    rounds = 0;
    next_uid = 0;
    enqueued = 0;
    last_enqueued = 0;
    pristine = Option.is_none plan && Option.is_none carrier;
    store_msgs = [||];
    store_round = [||];
    store_sizes = [||];
    spilled = false;
  }

let check_id t label i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Net.%s: player id %d out of range" label i)

(* Every message surviving the fault decision goes through here: it is
   posted to the carrier (when one is attached) under a fresh uid and
   recorded in the coordinator's queue under the same uid. *)
let queue_message t ~src ~dst ~bytes msg =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  (match t.carrier with
  | Some c -> c.Carrier.post ~src ~dst ~uid msg
  | None -> ());
  (src, uid, bytes, msg)

let enqueue t ~src ~dst ~bytes msg =
  t.enqueued <- t.enqueued + 1;
  t.queues.(dst) <- queue_message t ~src ~dst ~bytes msg :: t.queues.(dst)

let stored_size t k =
  if Array.length t.store_sizes = 0 then unsized else t.store_sizes.(k)

(* A second send on one link in one round — the one thing the store
   cannot hold — moves the round so far to the list queues, which then
   take every later send of the round, so the inbox is exactly the list
   path's. The queues are empty until then, and each stored message
   precedes every later send from its sender, so queueing the stored
   round in sender order and sorting stably by sender at the barrier
   restores send order per sender. *)
let spill t =
  let n = t.n and r = t.rounds + 1 in
  t.spilled <- true;
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      let k = (dst * n) + src in
      if t.store_round.(k) = r then
        t.queues.(dst) <-
          queue_message t ~src ~dst ~bytes:(stored_size t k) t.store_msgs.(k)
          :: t.queues.(dst)
    done
  done

(* Deposit one message on a pristine net: into the store, or into the
   queues once the round has spilled. *)
let store t ~src ~dst ~bytes msg =
  let n = t.n and r = t.rounds + 1 in
  if Array.length t.store_round = 0 then begin
    t.store_msgs <- Array.make (n * n) msg;
    t.store_round <- Array.make (n * n) 0
  end;
  let k = (dst * n) + src in
  if t.spilled then enqueue t ~src ~dst ~bytes msg
  else if t.store_round.(k) = r then begin
    spill t;
    enqueue t ~src ~dst ~bytes msg
  end
  else begin
    t.enqueued <- t.enqueued + 1;
    t.store_round.(k) <- r;
    t.store_msgs.(k) <- msg;
    if bytes <> unsized && Array.length t.store_sizes = 0 then
      t.store_sizes <- Array.make (n * n) unsized;
    if Array.length t.store_sizes > 0 then t.store_sizes.(k) <- bytes
  end

let corrupted_copy t plan msg =
  match t.codec with
  | None -> None (* no wire form to mangle: detected and discarded *)
  | Some (encode, decode) -> (
      match decode (Plan.corrupt_bytes plan (encode msg)) with
      | msg' -> Some msg'
      | exception _ -> None)

let send t ~src ~dst msg =
  check_id t "send" src;
  check_id t "send" dst;
  let bytes = observed_size ~counted:(src <> dst) t.byte_size msg in
  if src <> dst then begin
    Metrics.tick_message ~bytes_len:bytes;
    (* The event thunk allocates even when no collector is installed;
       at n players that is n^2 closures per round, so guard it. *)
    if Trace.enabled () then
      Trace.event (fun () -> Trace.Send { src; dst; bytes })
  end;
  match t.plan with
  | None ->
      if t.pristine then store t ~src ~dst ~bytes msg
      else enqueue t ~src ~dst ~bytes msg
  | Some plan ->
      if Plan.down plan src then Plan.count_crashed_msg plan
      else if src = dst then
        (* Local hand-off: a player's channel to itself is its own
           memory — only a crash can lose it. *)
        enqueue t ~src ~dst ~bytes msg
      else begin
        match Plan.link_fate plan with
        | Plan.Deliver -> enqueue t ~src ~dst ~bytes msg
        | Plan.Drop -> ()
        | Plan.Delay d ->
            t.delayed <-
              (Plan.rounds_elapsed plan + 1 + d, src, dst, bytes, msg)
              :: t.delayed
        | Plan.Duplicate ->
            enqueue t ~src ~dst ~bytes msg;
            enqueue t ~src ~dst ~bytes msg
        | Plan.Corrupt -> (
            match corrupted_copy t plan msg with
            | Some msg' ->
                (* The mangled value is what arrives; its receive event
                   carries its own size. *)
                enqueue t ~src ~dst
                  ~bytes:(observed_size ~counted:false t.byte_size msg')
                  msg'
            | None -> ())
      end

(* With nothing observing — no measurement open, no collector — a send
   on a pristine net reads no size and ticks and records nothing, so the
   row goes straight to the store. *)
let send_to_all t ~src f =
  check_id t "send_to_all" src;
  if t.pristine && not (Metrics.counting_enabled () || Trace.enabled ()) then
    for dst = 0 to t.n - 1 do
      store t ~src ~dst ~bytes:unsized (f dst)
    done
  else
    for dst = 0 to t.n - 1 do
      send t ~src ~dst (f dst)
    done

module Inbox = struct
  type 'msg net = 'msg t

  type 'msg t =
    | Lists of (int * 'msg) list array
    | Store of 'msg net * int  (* a pristine net and its delivered round *)

  let current net r =
    if net.rounds <> r || net.enqueued <> 0 then
      invalid_arg "Net.Inbox: the net has moved on past this round"

  let fold inbox ~dst f init =
    match inbox with
    | Lists a -> List.fold_left (fun acc (src, msg) -> f src msg acc) init a.(dst)
    | Store (net, r) ->
        current net r;
        let n = net.n in
        let base = dst * n and acc = ref init in
        for src = 0 to n - 1 do
          if net.store_round.(base + src) = r then
            acc := f src net.store_msgs.(base + src) !acc
        done;
        !acc

  let max_length = function
    | Store (net, _) -> net.n
    | Lists a -> Array.fold_left (fun m l -> max m (List.length l)) 0 a

  let to_lists = function
    | Lists a -> a
    | Store (net, r) ->
        current net r;
        let n = net.n in
        Array.init n (fun dst ->
            let base = dst * n and l = ref [] in
            for src = n - 1 downto 0 do
              if net.store_round.(base + src) = r then
                l := (src, net.store_msgs.(base + src)) :: !l
            done;
            !l)

  (* The senders that at least [at_least] of the [n] receivers heard
     nothing from, ascending, by an epoch-marking walk: [seen.(src) =
     dst] means [dst] heard from [src], so one scratch array serves
     every inbox. *)
  let walk_silent inbox ~n ~at_least =
    let absent = Array.make n 0 and seen = Array.make n (-1) in
    for dst = 0 to n - 1 do
      fold inbox ~dst
        (fun src _ () -> if src >= 0 && src < n then seen.(src) <- dst)
        ();
      for src = 0 to n - 1 do
        if seen.(src) <> dst then absent.(src) <- absent.(src) + 1
      done
    done;
    List.filter (fun src -> absent.(src) >= at_least) (List.init n Fun.id)

  (* A stored round holds at most one message per link, so one with n^2
     messages has no silent sender and is answered without allocating;
     any other round is walked. Pure integer bookkeeping: no field ops,
     no randomness. *)
  let silent inbox ~at_least =
    if at_least < 1 then
      invalid_arg "Net.Inbox.silent: at_least must be >= 1";
    match inbox with
    | Store (net, r) ->
        current net r;
        if net.last_enqueued = net.n * net.n then []
        else walk_silent inbox ~n:net.n ~at_least
    | Lists a -> walk_silent inbox ~n:(Array.length a) ~at_least
end

(* The barrier of a round held in the store: the same receive events, in
   the same order, as the list path below would emit for it. *)
let deliver_store t =
  let n = t.n and r = t.rounds in
  Log.debug (fun m ->
      m "round %d: delivering %d messages to %d players" r t.enqueued n);
  let inbox =
    if Array.length t.store_round = 0 then Inbox.Lists (Array.make n [])
    else Inbox.Store (t, r)
  in
  if Trace.enabled () && Array.length t.store_round > 0 then
    for dst = 0 to n - 1 do
      for src = 0 to n - 1 do
        let k = (dst * n) + src in
        if t.store_round.(k) = r then begin
          let bytes = stored_size t k in
          let bytes = if bytes = unsized then t.byte_size t.store_msgs.(k) else bytes in
          Trace.event (fun () -> Trace.Recv { src; dst; bytes })
        end
      done
    done;
  t.last_enqueued <- t.enqueued;
  t.enqueued <- 0;
  inbox

let deliver_queues t =
  (match t.plan with
  | Some plan ->
      Plan.advance_round plan;
      Plan.begin_delivery plan
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match t.plan with Some plan -> Plan.end_delivery plan | None -> ())
  @@ fun () ->
  (* Uids below this boundary belong to this round's send phase; uids at
     or above it are delayed messages maturing below. The distinction
     matters for supervised crashes: a real death detected this round
     voids the victim's fresh sends (a simulated crash would have
     suppressed them at send time), but an in-flight delayed copy left
     the sender before it died and is still delivered, as in the
     simulator. *)
  let fresh_boundary = t.next_uid in
  (* Mature the delayed messages whose arrival round has come; they slot
     in ahead of this round's fresh sends so a retransmitted copy
     supersedes a stale one. *)
  (match t.plan with
  | None -> ()
  | Some plan ->
      let now = Plan.rounds_elapsed plan in
      let ready, waiting =
        List.partition (fun (at, _, _, _, _) -> at <= now) t.delayed
      in
      t.delayed <- waiting;
      List.iter
        (fun (_, src, dst, bytes, msg) ->
          t.queues.(dst) <-
            t.queues.(dst) @ [ queue_message t ~src ~dst ~bytes msg ])
        (List.rev ready));
  Log.debug (fun m ->
      let pending =
        Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues
      in
      m "round %d: delivering %d messages to %d players" t.rounds pending t.n);
  (* Collect from the carrier before deciding inbox fates: a supervised
     backend detects real peer deaths inside this barrier and marks them
     in the plan, and this round's crash voiding below must already see
     those marks for a real crash to be byte-identical to a simulated
     one at the same round. All posts for this round (fresh sends and
     matured delays) have already happened. *)
  let arrived =
    match t.carrier with
    | None -> None
    | Some c ->
        let tbl = Hashtbl.create 64 in
        Array.iter
          (List.iter (fun (uid, msg) -> Hashtbl.replace tbl uid msg))
          (c.Carrier.collect ());
        Some tbl
  in
  let tagged =
    Array.mapi
      (fun dst queue ->
        t.queues.(dst) <- [];
        match t.plan with
        | Some plan when Plan.down_at plan (Plan.rounds_elapsed plan) dst ->
            (* A crashed player's inbox is void: messages addressed to it
               while it is down are lost, not buffered. *)
            List.iter (fun _ -> Plan.count_crashed_msg plan) queue;
            []
        | plan -> (
            (* Restore send order, then stable-sort by sender for
               deterministic iteration in protocol code. Senders post in
               ascending id order in the common full round, so the
               reversed queue is usually already sorted — a linear scan
               skips the sort (and its allocations) exactly when sorting
               would be the identity, which keeps the inbox identical. *)
            let rec sorted_by_src = function
              | (a, _, _, _) :: ((b, _, _, _) :: _ as rest) ->
                  a <= b && sorted_by_src rest
              | _ -> true
            in
            let restored = List.rev queue in
            let inbox =
              if sorted_by_src restored then restored
              else
                List.stable_sort
                  (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
                  restored
            in
            match plan with
            | Some plan -> Plan.shuffle_inbox plan inbox
            | None -> inbox))
      t.queues
  in
  (* Void the fresh sends of supervised-crashed players. A simulated
     crash suppresses them in [send] (counting each), but a real death
     is only detected after the messages were queued and posted — drop
     and count them here so the inboxes and fault tallies line up with
     the equivalent simulated schedule. Delayed copies (uid at or past
     the boundary) stay: they left the sender while it was alive. *)
  let tagged =
    match t.plan with
    | Some plan when Plan.real_crash_count plan > 0 ->
        let now = Plan.rounds_elapsed plan in
        Array.map
          (List.filter (fun (src, uid, _, _) ->
               if uid < fresh_boundary && Plan.really_down_at plan now src
               then begin
                 Plan.count_crashed_msg plan;
                 false
               end
               else true))
          tagged
    | _ -> tagged
  in
  let inbox =
    match (t.carrier, arrived) with
    | None, _ | _, None ->
        Array.map (List.map (fun (src, _, _, msg) -> (src, msg))) tagged
    | Some c, Some arrived ->
        (* Materialize each inbox entry from the value that physically
           traversed the carrier, matched by uid. A missing uid means
           the backend lost a frame the coordinator accounted for. *)
        Array.map
          (List.map (fun (src, uid, _, _) ->
               match Hashtbl.find_opt arrived uid with
               | Some msg -> (src, msg)
               | None ->
                   raise
                     (Desync
                        (Printf.sprintf
                           "Net: %s carrier lost frame uid=%d from player %d"
                           c.Carrier.name uid src))))
          tagged
  in
  (* Receive events follow inbox order and carry the send-time size
     (a carrier hands back the value that was posted, so it is the same
     message); only a message sent before the collector was installed
     is sized here. *)
  if Trace.enabled () then
    Array.iteri
      (fun dst msgs ->
        List.iter
          (fun (src, _, bytes, msg) ->
            let bytes = if bytes = unsized then t.byte_size msg else bytes in
            Trace.event (fun () -> Trace.Recv { src; dst; bytes }))
          msgs)
      tagged;
  t.enqueued <- 0;
  inbox

let deliver_inbox t =
  Trace.span Trace.Round "net.round" @@ fun () ->
  Metrics.tick_round ();
  t.rounds <- t.rounds + 1;
  if t.pristine && not t.spilled then deliver_store t
  else begin
    t.spilled <- false;
    Inbox.Lists (deliver_queues t)
  end

let deliver t = Inbox.to_lists (deliver_inbox t)
let rounds_elapsed t = t.rounds

(* A retransmit envelope: run the same synchronous send round
   [retransmits + 1] times and merge the inboxes, keeping the latest
   copy received per sender. Honest senders re-deposit identical
   messages, so omission faults (drops, short delays, detected
   corruption) within the budget are absorbed; under a bounded plan the
   final attempt is guaranteed clean, making absorption deterministic.
   With no ambient plan — or a zero budget — this is exactly one
   ordinary round. *)
let exchange_inbox t ~send =
  match t.plan with
  | None ->
      send ();
      deliver_inbox t
  | Some plan ->
      let attempts = Plan.retransmits plan + 1 in
      let finally () = Plan.exit_envelope plan in
      if attempts = 1 then begin
        Plan.enter_envelope plan ~attempt:1 ~attempts:1;
        Fun.protect ~finally (fun () ->
            send ();
            deliver_inbox t)
      end
      else begin
        let latest = Array.init t.n (fun _ -> Array.make t.n None) in
        Fun.protect ~finally (fun () ->
            for attempt = 1 to attempts do
              Plan.enter_envelope plan ~attempt ~attempts;
              send ();
              let inbox = deliver t in
              Array.iteri
                (fun dst msgs ->
                  List.iter
                    (fun (src, msg) -> latest.(dst).(src) <- Some msg)
                    msgs)
                inbox
            done);
        Inbox.Lists
          (Array.init t.n (fun dst ->
               List.filter_map
                 (fun src ->
                   Option.map (fun msg -> (src, msg)) latest.(dst).(src))
                 (List.init t.n Fun.id)))
      end

let exchange t ~send = Inbox.to_lists (exchange_inbox t ~send)

module Faults = struct
  type t = { n : int; faulty : bool array }

  let none ~n = { n; faulty = Array.make n false }

  let make ~n ~faulty =
    let a = Array.make n false in
    List.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Faults.make: id out of range";
        if a.(i) then invalid_arg "Faults.make: duplicate id";
        a.(i) <- true)
      faulty;
    { n; faulty = a }

  let random g ~n ~t =
    if t < 0 || t > n then invalid_arg "Faults.random: bad t";
    make ~n ~faulty:(Prng.sample_distinct g t n)

  let n t = t.n
  let is_faulty t i = t.faulty.(i)
  let is_honest t i = not t.faulty.(i)

  let faulty t =
    List.filter (fun i -> t.faulty.(i)) (List.init t.n Fun.id)

  let honest t =
    List.filter (fun i -> not t.faulty.(i)) (List.init t.n Fun.id)

  let count t = List.length (faulty t)

  let pp ppf t =
    Format.fprintf ppf "faulty={%s}"
      (String.concat "," (List.map string_of_int (faulty t)))
end
