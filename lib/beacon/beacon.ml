let log_src = Logs.Src.create "dprbg.beacon" ~doc:"Randomness-beacon service"

module Log = (val Logs.src_log log_src)

module Make (F : Field_intf.S) = struct
  module P = Pool.Make (F)

  exception Corrupt_snapshot of string

  type state = Serving | Degraded of string | Halted of string
  type reject = Queue_full | Pool_pressure | Beacon_halted of string

  let reject_name = function
    | Queue_full -> "queue_full"
    | Pool_pressure -> "pool_pressure"
    | Beacon_halted _ -> "halted"

  let state_label = function
    | Serving -> "serving"
    | Degraded _ -> "degraded"
    | Halted _ -> "halted"

  type epoch = {
    seq : int;
    prev : Beacon_hash.t;
    coin : F.t;
    vended : int;
    shed : int;
    flags : string;
    digest : Beacon_hash.t;
    mac : Beacon_hash.t;
  }

  (* The byte string the digest commits to: every record field except
     the digest and MAC themselves. [prev] is inside, so each digest
     transitively commits to the whole chain before it. *)
  let epoch_preimage ~seq ~prev ~coin ~vended ~shed ~flags =
    let w = Wire.Writer.create () in
    Wire.Writer.u32 w seq;
    Beacon_hash.write w prev;
    let cb = F.to_bytes coin in
    Wire.Writer.u16 w (Bytes.length cb);
    Wire.Writer.raw w cb;
    Wire.Writer.u32 w vended;
    Wire.Writer.u32 w shed;
    let fb = Bytes.of_string flags in
    Wire.Writer.u16 w (Bytes.length fb);
    Wire.Writer.raw w fb;
    Wire.Writer.contents w

  let default_key = "dprbg-beacon"

  let seal ?(key = default_key) ~seq ~prev ~coin ~vended ~shed ~flags () =
    let digest =
      Beacon_hash.digest (epoch_preimage ~seq ~prev ~coin ~vended ~shed ~flags)
    in
    let mac = Beacon_hash.mac ~key (Beacon_hash.to_bytes digest) in
    { seq; prev; coin; vended; shed; flags; digest; mac }

  let verify_chain ?(key = default_key) epochs =
    let check e ~expect_prev =
      if e.seq < 0 then Error (Printf.sprintf "epoch %d: negative seq" e.seq)
      else if
        (match expect_prev with
        | Some p -> not (Beacon_hash.equal e.prev p)
        | None -> e.seq = 0 && not (Beacon_hash.equal e.prev Beacon_hash.zero))
      then Error (Printf.sprintf "epoch %d: broken prev link" e.seq)
      else
        let expect =
          seal ~key ~seq:e.seq ~prev:e.prev ~coin:e.coin ~vended:e.vended
            ~shed:e.shed ~flags:e.flags ()
        in
        if not (Beacon_hash.equal expect.digest e.digest) then
          Error
            (Printf.sprintf "epoch %d: digest does not match its fields" e.seq)
        else if not (Beacon_hash.equal expect.mac e.mac) then
          Error (Printf.sprintf "epoch %d: MAC verification failed" e.seq)
        else Ok ()
    in
    let rec go prev_epoch = function
      | [] -> Ok ()
      | e :: rest -> (
          let link =
            match prev_epoch with
            | None -> Ok ()
            | Some p ->
                if e.seq <> p.seq + 1 then
                  Error
                    (Printf.sprintf "epoch %d: sequence gap after %d" e.seq
                       p.seq)
                else Ok ()
          in
          match link with
          | Error _ as err -> err
          | Ok () -> (
              match
                check e ~expect_prev:(Option.map (fun p -> p.digest) prev_epoch)
              with
              | Error _ as err -> err
              | Ok () -> go (Some e) rest))
    in
    go None epochs

  (* --- transcript codec -------------------------------------------- *)

  let schema = "dprbg-beacon-epoch/1"

  let epoch_to_json e =
    Printf.sprintf
      "{\"schema\":%S,\"seq\":%d,\"prev\":%S,\"coin\":%S,\"vended\":%d,\"shed\":%d,\"flags\":%S,\"digest\":%S,\"mac\":%S}"
      schema e.seq
      (Beacon_hash.to_hex e.prev)
      (Beacon_hash.hex_of_bytes (F.to_bytes e.coin))
      e.vended e.shed e.flags
      (Beacon_hash.to_hex e.digest)
      (Beacon_hash.to_hex e.mac)

  let epoch_of_json line =
    let ( let* ) = Result.bind in
    match
      Scanf.sscanf line
        "{\"schema\":%S,\"seq\":%d,\"prev\":%S,\"coin\":%S,\"vended\":%d,\"shed\":%d,\"flags\":%S,\"digest\":%S,\"mac\":%S}"
        (fun sc seq prev coin vended shed flags digest mac ->
          (sc, seq, prev, coin, vended, shed, flags, digest, mac))
    with
    | exception Scanf.Scan_failure msg -> Error ("malformed epoch line: " ^ msg)
    | exception End_of_file -> Error "truncated epoch line"
    | exception Failure msg -> Error ("malformed epoch line: " ^ msg)
    | sc, seq, prev, coin, vended, shed, flags, digest, mac ->
        if sc <> schema then Error (Printf.sprintf "unknown schema %S" sc)
        else
          let* prev = Beacon_hash.of_hex prev in
          let* digest = Beacon_hash.of_hex digest in
          let* mac = Beacon_hash.of_hex mac in
          let* coin_bytes = Beacon_hash.bytes_of_hex coin in
          let* coin =
            match F.of_bytes coin_bytes with
            | c -> Ok c
            | exception Invalid_argument msg ->
                Error ("bad coin encoding: " ^ msg)
          in
          Ok { seq; prev; coin; vended; shed; flags; digest; mac }

  (* --- the service -------------------------------------------------- *)

  type fulfillment = { request_id : int; epoch : int; bits : bool array }

  type request = {
    id : int;
    nbits : int;
    callback : fulfillment -> unit;
  }

  type t = {
    pool : P.t;
    key : string;
    max_pending : int;
    soft_cap : int;
    prefetch : int;
    mutable state : state;
    mutable next_seq : int;
    mutable head : Beacon_hash.t;
    mutable chain_rev : epoch list;
    mutable queue : request list; (* newest first *)
    mutable queue_len : int;
    mutable next_request_id : int;
    mutable shed_since_close : int;
    mutable epochs : int;
    mutable vended : int;
    mutable shed_queue_full : int;
    mutable shed_pool_pressure : int;
    mutable shed_halted : int;
  }

  type stats = {
    epochs : int;
    vended : int;
    shed_queue_full : int;
    shed_pool_pressure : int;
    shed_halted : int;
  }

  let create ?(key = default_key) ?(max_pending = 4096) ?(prefetch = 1) ~pool
      () =
    if max_pending < 2 then
      invalid_arg "Beacon.create: max_pending must be >= 2";
    if prefetch < 0 then invalid_arg "Beacon.create: prefetch must be >= 0";
    {
      pool;
      key;
      max_pending;
      soft_cap = max 1 (max_pending / 2);
      prefetch;
      state = Serving;
      next_seq = 0;
      head = Beacon_hash.zero;
      chain_rev = [];
      queue = [];
      queue_len = 0;
      next_request_id = 1;
      shed_since_close = 0;
      epochs = 0;
      vended = 0;
      shed_queue_full = 0;
      shed_pool_pressure = 0;
      shed_halted = 0;
    }

  let pool b = b.pool
  let pending b = b.queue_len
  let next_seq b = b.next_seq
  let head b = b.head
  let chain b = List.rev b.chain_rev

  (* Recompute the admission state from the live signals. [Halted] is
     sticky: once the fault assumption is void nothing short of a
     rebuild/restore makes the output trustworthy again. *)
  let refresh_state b =
    match b.state with
    | Halted _ -> ()
    | Serving | Degraded _ ->
        let quarantined =
          match P.ledger b.pool with
          | Some ledger -> Sentinel.Ledger.quarantined_count ledger
          | None -> 0
        in
        b.state <-
          (if P.headroom b.pool <= 0 then
             Degraded
               (Printf.sprintf
                  "pool at refill watermark (available=%d threshold=%d)"
                  (P.available b.pool)
                  (P.refill_threshold b.pool))
           else if quarantined > 0 then
             Degraded (Printf.sprintf "%d player(s) quarantined" quarantined)
           else Serving)

  let state b =
    refresh_state b;
    b.state

  let halt b msg =
    b.state <- Halted msg;
    (* In-flight requests can no longer be served honestly: shed them
       (their callbacks never fire) and account the shed. *)
    b.shed_halted <- b.shed_halted + b.queue_len;
    b.shed_since_close <- b.shed_since_close + b.queue_len;
    b.queue <- [];
    b.queue_len <- 0;
    Log.warn (fun f -> f "beacon halted: %s" msg)

  (* Request ids are u32 in the vend preimage, the journal and the
     snapshot. *)
  let max_request_id = 0xFFFF_FFFF

  let request b ?id ?nbits ~callback () =
    let nbits = Option.value nbits ~default:F.k_bits in
    if nbits < 1 then invalid_arg "Beacon.request: nbits must be >= 1";
    (match id with
    | Some id when id < 1 || id > max_request_id ->
        invalid_arg "Beacon.request: id must be in 1..0xFFFF_FFFF"
    | None when b.next_request_id > max_request_id ->
        invalid_arg "Beacon.request: request ids exhausted"
    | _ -> ());
    refresh_state b;
    match b.state with
    | _ when
        (match id with
        | Some id -> List.exists (fun r -> r.id = id) b.queue
        | None -> false) ->
        (* The id is already queued: the resubmission is idempotent (the
           first registration's callback fires, once) and costs no
           admission. *)
        Ok (Option.get id)
    | Halted msg ->
        b.shed_halted <- b.shed_halted + 1;
        b.shed_since_close <- b.shed_since_close + 1;
        Error (Beacon_halted msg)
    | _ when b.queue_len >= b.max_pending ->
        b.shed_queue_full <- b.shed_queue_full + 1;
        b.shed_since_close <- b.shed_since_close + 1;
        Error Queue_full
    | Degraded _ when b.queue_len >= b.soft_cap ->
        b.shed_pool_pressure <- b.shed_pool_pressure + 1;
        b.shed_since_close <- b.shed_since_close + 1;
        Error Pool_pressure
    | Serving | Degraded _ ->
        let id =
          match id with
          | None ->
              let id = b.next_request_id in
              b.next_request_id <- id + 1;
              id
          | Some id ->
              b.next_request_id <- max b.next_request_id (id + 1);
              id
        in
        b.queue <- { id; nbits; callback } :: b.queue;
        b.queue_len <- b.queue_len + 1;
        Ok id

  (* Per-request vend stream: a keyed digest of (epoch seq, coin,
     request id) seeds a SplitMix64 stream that yields the requested
     bits. Distinct requests in the same epoch get computationally
     unrelated streams from the single exposed coin — the paper's PRBG
     expansion, applied service-side.

     The digested bytes are tag 3, the u32 seq, the u16 coin length, the
     coin and the u32 request id. All but the id are fixed for an epoch,
     so [vend_preimage] encodes them once per close, and [derive] writes
     each request's id into the last four bytes. *)
  let vend_preimage ~seq ~coin =
    let w = Wire.Writer.create () in
    Wire.Writer.u8 w 3;
    Wire.Writer.u32 w seq;
    let cb = F.to_bytes coin in
    Wire.Writer.u16 w (Bytes.length cb);
    Wire.Writer.raw w cb;
    Wire.Writer.u32 w 0;
    Wire.Writer.contents w

  let derive b ~seq ~preimage r =
    Bytes.set_int32_le preimage (Bytes.length preimage - 4) (Int32.of_int r.id);
    let h = Beacon_hash.mac ~key:b.key preimage in
    let g = Prng.create (Beacon_hash.to_seed h) in
    { request_id = r.id; epoch = seq; bits = Prng.bools g r.nbits }

  (* The closing sequence is write-ahead shaped: the epoch is sealed
     and handed to [pre_ack] {e before} any callback fires, so a
     durable backend can journal it first — a vend is acknowledged only
     once its epoch can survive a crash. [refresh_state] runs before
     the callbacks instead of after; callbacks cannot touch the pool,
     so the sealed record is bit-identical to the historical order. An
     exception from [pre_ack] aborts the close with the queue already
     drained: the process is presumed dead and recovery re-derives the
     position from what did reach the journal. *)
  let close_epoch_with ~pre_ack b =
    match b.state with
    | Halted msg -> Error ("beacon halted: " ^ msg)
    | Serving | Degraded _ -> (
        Trace.span Trace.Protocol "beacon.epoch" @@ fun () ->
        match P.draw_kary b.pool with
        | exception P.Safe_mode msg ->
            halt b msg;
            Error ("safe mode: " ^ msg)
        | exception P.Starved msg ->
            (* The refill retry budget ran dry. The queue is kept — the
               diagnostics (refill_attempts, backoff_rounds) are in the
               message, and the caller may close again once pressure
               passes. *)
            b.state <- Degraded ("pool starved: " ^ msg);
            Trace.note ("beacon epoch aborted, pool starved: " ^ msg);
            Error ("pool starved: " ^ msg)
        | coin ->
            let pending = List.rev b.queue in
            b.queue <- [];
            b.queue_len <- 0;
            let seq = b.next_seq in
            refresh_state b;
            let vended = List.length pending in
            let e =
              seal ~key:b.key ~seq ~prev:b.head ~coin ~vended
                ~shed:b.shed_since_close
                ~flags:(state_label b.state) ()
            in
            pre_ack e pending;
            let preimage = vend_preimage ~seq ~coin in
            List.iter
              (fun r ->
                let f = derive b ~seq ~preimage r in
                if Trace.enabled () then
                  Trace.event (fun () ->
                      Trace.Vend
                        { request = r.id; epoch = seq; bits = r.nbits });
                r.callback f)
              pending;
            b.head <- e.digest;
            b.next_seq <- seq + 1;
            b.chain_rev <- e :: b.chain_rev;
            b.epochs <- b.epochs + 1;
            b.vended <- b.vended + vended;
            b.shed_since_close <- 0;
            Log.debug (fun f ->
                f "epoch %d: vended %d, shed %d, head %s" seq vended e.shed
                  (Beacon_hash.to_hex e.digest));
            (* Pending-demand signal: pay the next refill between
               epochs, not inside the next vend. Pressure failures here
               degrade/halt the state but never lose the epoch just
               emitted. *)
            (try if b.prefetch > 0 then P.prefetch b.pool ~upcoming:b.prefetch
             with
            | P.Safe_mode msg -> halt b msg
            | P.Starved msg -> b.state <- Degraded ("pool starved: " ^ msg));
            Ok e)

  let close_epoch b = close_epoch_with ~pre_ack:(fun _ _ -> ()) b

  let stats (b : t) : stats =
    {
      epochs = b.epochs;
      vended = b.vended;
      shed_queue_full = b.shed_queue_full;
      shed_pool_pressure = b.shed_pool_pressure;
      shed_halted = b.shed_halted;
    }

  (* --- persistence --------------------------------------------------- *)

  let magic = 0xBEA1

  (* v2 adds [next_request_id] after the counters, so ids stay unique
     for the lifetime of the chain even after the journal (the other
     id-recovery source) is rotated away. v1 snapshots still load and
     restart ids at 1 — the pre-journal behavior. The field is a u32 but
     [next_request_id] reaches 2^32 once id 0xFFFF_FFFF is used; it is
     written modulo 2^32, and the 0 that no other state writes reads
     back as 2^32, the spent id space. *)
  let snapshot_version = 2
  let oldest_readable_version = 1

  let save b =
    let w = Wire.Writer.create () in
    Wire.Writer.u32 w b.next_seq;
    Beacon_hash.write w b.head;
    List.iter
      (fun v -> Wire.Writer.u32 w v)
      [ b.epochs; b.vended; b.shed_queue_full; b.shed_pool_pressure;
        b.shed_halted ];
    Wire.Writer.u32 w (b.next_request_id land max_request_id);
    let pool_bytes = P.save b.pool in
    Wire.Writer.u32 w (Bytes.length pool_bytes);
    Wire.Writer.raw w pool_bytes;
    Wire.Record.seal ~magic ~version:snapshot_version
      (Wire.Writer.contents w)

  let corrupt msg = raise (Corrupt_snapshot ("Beacon.load: " ^ msg))

  let load ?(key = default_key) ?max_pending ?prefetch ?expect_head ?adversary
      ?expose_behavior ?sentinel ~prng ~batch_size ~refill_threshold bytes =
    let version, payload =
      match
        Wire.Record.unseal ~magic
          ~versions:(oldest_readable_version, snapshot_version)
          bytes
      with
      | Ok sealed -> sealed
      | Error msg -> corrupt msg
    in
    let next_seq, head, counters, next_request_id, pool_bytes =
      match
        let r = Wire.Reader.of_bytes payload in
        let next_seq = Wire.Reader.u32 r in
        let head = Beacon_hash.read r in
        let counters = Array.init 5 (fun _ -> Wire.Reader.u32 r) in
        let next_request_id =
          if version < 2 then 1
          else
            match Wire.Reader.u32 r with 0 -> max_request_id + 1 | id -> id
        in
        let pool_len = Wire.Reader.u32 r in
        let pool_bytes = Wire.Reader.raw r pool_len in
        Wire.Reader.expect_end r;
        (next_seq, head, counters, next_request_id, pool_bytes)
      with
      | decoded -> decoded
      | exception _ ->
          corrupt
            (Printf.sprintf "undecodable payload [bytes=%d]"
               (Bytes.length bytes))
    in
    (match expect_head with
    | Some h when not (Beacon_hash.equal h head) ->
        corrupt
          (Printf.sprintf
             "chain head mismatch: snapshot head is %s, expected %s — this \
              snapshot does not extend the trusted transcript"
             (Beacon_hash.to_hex head) (Beacon_hash.to_hex h))
    | _ -> ());
    let pool =
      match
        P.load ?adversary ?expose_behavior ?sentinel ~prng ~batch_size
          ~refill_threshold pool_bytes
      with
      | pool -> pool
      | exception P.Corrupt_snapshot msg ->
          corrupt ("wrapped pool snapshot is damaged: " ^ msg)
    in
    let b = create ~key ?max_pending ?prefetch ~pool () in
    b.next_seq <- next_seq;
    b.head <- head;
    b.epochs <- counters.(0);
    b.vended <- counters.(1);
    b.shed_queue_full <- counters.(2);
    b.shed_pool_pressure <- counters.(3);
    b.shed_halted <- counters.(4);
    b.next_request_id <- next_request_id;
    b

  (* --- crash-consistent durability ----------------------------------- *)

  module Durable = struct
    type d = {
      beacon : t;
      journal_path : string;
      snapshot_path : string option;
      sync : Beacon_journal.sync_policy;
      mutable w : Beacon_journal.writer;
      acked : (int, int * F.t * int) Hashtbl.t;
          (* request id -> (epoch seq, epoch coin, nbits vended) *)
      mutable replay_debt : int;
    }

    type recovery_stats = {
      replayed : epoch list;  (** journal epochs applied on top of [t] *)
      torn_bytes : int;
      deduped : int;  (** acked request ids recovered into the window *)
    }

    let journal_corrupt fmt =
      Printf.ksprintf (fun m -> raise (Beacon_journal.Corrupt_journal m)) fmt

    (* Journal record body: one epoch in full (digest and MAC included,
       so replay re-verifies rather than re-trusts) plus the request
       ids it acknowledged — the dedup window. *)
    let record_kind_epoch = 1

    let encode_record e acked =
      let w = Wire.Writer.create () in
      Wire.Writer.u8 w record_kind_epoch;
      Wire.Writer.u32 w e.seq;
      Beacon_hash.write w e.prev;
      let cb = F.to_bytes e.coin in
      Wire.Writer.u16 w (Bytes.length cb);
      Wire.Writer.raw w cb;
      Wire.Writer.u32 w e.vended;
      Wire.Writer.u32 w e.shed;
      let fb = Bytes.of_string e.flags in
      Wire.Writer.u16 w (Bytes.length fb);
      Wire.Writer.raw w fb;
      Beacon_hash.write w e.digest;
      Beacon_hash.write w e.mac;
      Wire.Writer.u32 w (List.length acked);
      List.iter
        (fun (id, nbits) ->
          Wire.Writer.u32 w id;
          Wire.Writer.u32 w nbits)
        acked;
      Wire.Writer.contents w

    let decode_record ~index body =
      match
        let r = Wire.Reader.of_bytes body in
        let kind = Wire.Reader.u8 r in
        if kind <> record_kind_epoch then failwith "unknown record kind";
        let seq = Wire.Reader.u32 r in
        let prev = Beacon_hash.read r in
        let clen = Wire.Reader.u16 r in
        let coin = F.of_bytes (Wire.Reader.raw r clen) in
        let vended = Wire.Reader.u32 r in
        let shed = Wire.Reader.u32 r in
        let flen = Wire.Reader.u16 r in
        let flags = Bytes.to_string (Wire.Reader.raw r flen) in
        let digest = Beacon_hash.read r in
        let mac = Beacon_hash.read r in
        let n = Wire.Reader.u32 r in
        let acked =
          List.init n (fun _ ->
              let id = Wire.Reader.u32 r in
              let nbits = Wire.Reader.u32 r in
              (id, nbits))
        in
        Wire.Reader.expect_end r;
        ({ seq; prev; coin; vended; shed; flags; digest; mac }, acked)
      with
      | decoded -> decoded
      | exception _ ->
          journal_corrupt
            "journal record %d passed its checksum but does not decode as a \
             beacon epoch"
            index

    (* Each replayed epoch consumed one pool draw the snapshot knows
       nothing about: pay those draws back (values discarded) so the
       restored pool can never re-vend a coin the published chain
       already exposed. Refill randomness differs across incarnations,
       so the discarded values are not compared against the journaled
       coins — it is the pool's position that must advance, not the
       values that must match. A pool that cannot advance leaves the
       debt outstanding: [Safe_mode] halts the beacon (no draw will
       ever be needed again), [Starved] degrades it and the next
       {!close_epoch} retries the debt before vending. *)
    let pay_replay_debt d =
      let b = d.beacon in
      let continue = ref true in
      while !continue && d.replay_debt > 0 do
        match P.draw_kary b.pool with
        | _ -> d.replay_debt <- d.replay_debt - 1
        | exception P.Safe_mode msg ->
            halt b msg;
            d.replay_debt <- 0;
            continue := false
        | exception P.Starved msg ->
            b.state <- Degraded ("pool starved during recovery replay: " ^ msg);
            continue := false
      done

    let attach ~journal ?snapshot ?(sync = Beacon_journal.Fsync) b =
      (* A stale temp from a crashed snapshot rotation is never state. *)
      (match snapshot with
      | Some p when Sys.file_exists (p ^ ".tmp") -> (
          try Sys.remove (p ^ ".tmp") with Sys_error _ -> ())
      | _ -> ());
      let r, w = Beacon_journal.open_append ~sync journal in
      let acked = Hashtbl.create 64 in
      let replayed = ref [] in
      let deduped = ref 0 in
      List.iteri
        (fun index body ->
          let e, ids = decode_record ~index body in
          (* Dedup entries are registered even for records the snapshot
             already covers: those vends were acknowledged too, and a
             client replaying one must get its original stream. *)
          List.iter
            (fun (id, nbits) ->
              if not (Hashtbl.mem acked id) then incr deduped;
              Hashtbl.replace acked id (e.seq, e.coin, nbits);
              b.next_request_id <- max b.next_request_id (id + 1))
            ids;
          if e.seq < b.next_seq then ()
          else if e.seq > b.next_seq then
            journal_corrupt
              "journal record %d skips from epoch %d to %d — this journal \
               does not continue the snapshot"
              index b.next_seq e.seq
          else begin
            if not (Beacon_hash.equal e.prev b.head) then
              journal_corrupt
                "journal epoch %d does not link to the recovered head %s"
                e.seq (Beacon_hash.to_hex b.head);
            let expect =
              seal ~key:b.key ~seq:e.seq ~prev:e.prev ~coin:e.coin
                ~vended:e.vended ~shed:e.shed ~flags:e.flags ()
            in
            if
              (not (Beacon_hash.equal expect.digest e.digest))
              || not (Beacon_hash.equal expect.mac e.mac)
            then
              journal_corrupt "journal epoch %d fails chain verification"
                e.seq;
            b.head <- e.digest;
            b.next_seq <- e.seq + 1;
            b.epochs <- b.epochs + 1;
            b.vended <- b.vended + e.vended;
            replayed := e :: !replayed
          end)
        r.Beacon_journal.records;
      let replayed = List.rev !replayed in
      let d =
        {
          beacon = b;
          journal_path = journal;
          snapshot_path = snapshot;
          sync;
          w;
          acked;
          replay_debt = List.length replayed;
        }
      in
      pay_replay_debt d;
      Log.info (fun f ->
          f "recovered beacon at seq %d: %d epoch(s) replayed, %d byte(s) \
             torn, %d request id(s) in the dedup window"
            b.next_seq (List.length replayed)
            r.Beacon_journal.torn_bytes !deduped);
      (d, { replayed; torn_bytes = r.Beacon_journal.torn_bytes;
            deduped = !deduped })

    let beacon d = d.beacon

    let replay d ~id =
      match Hashtbl.find_opt d.acked id with
      | None -> None
      | Some (seq, coin, nbits) ->
          Some
            (derive d.beacon ~seq ~preimage:(vend_preimage ~seq ~coin)
               { id; nbits; callback = ignore })

    let request d ?id ?nbits ~callback () =
      match id with
      | Some id0 -> (
          match replay d ~id:id0 with
          | Some f ->
              (* Already acknowledged before some restart: the original
                 vend is replayed verbatim — same epoch, same bits —
                 never a fresh draw. *)
              callback f;
              Ok id0
          | None -> request d.beacon ~id:id0 ?nbits ~callback ())
      | None -> request d.beacon ?nbits ~callback ()

    let close_epoch d =
      if d.replay_debt > 0 then pay_replay_debt d;
      if d.replay_debt > 0 then
        match d.beacon.state with
        | Halted msg -> Error ("beacon halted: " ^ msg)
        | Degraded msg -> Error (msg ^ ": recovery replay debt outstanding")
        | Serving -> Error "recovery replay debt outstanding"
      else begin
        let staged = ref None in
        let result =
          close_epoch_with d.beacon ~pre_ack:(fun e pending ->
              let ids = List.map (fun r -> (r.id, r.nbits)) pending in
              Beacon_journal.append d.w (encode_record e ids);
              staged := Some (e, ids))
        in
        (match (result, !staged) with
        | Ok e, Some (e', ids) when e'.seq = e.seq ->
            List.iter
              (fun (id, nbits) ->
                Hashtbl.replace d.acked id (e.seq, e.coin, nbits))
              ids
        | _ -> ());
        result
      end

    let snapshot d =
      match d.snapshot_path with
      | None -> invalid_arg "Beacon.Durable.snapshot: no snapshot path"
      | Some path ->
          let bytes = save d.beacon in
          let fsync = d.sync = Beacon_journal.Fsync in
          Beacon_journal.write_file_atomic ~fsync path bytes;
          (* Only now — the snapshot's covered seq durable — does the
             journal rotate to empty. A crash anywhere in between
             leaves snapshot and journal overlapping, which replay
             resolves by skipping records below the snapshot's seq. *)
          Beacon_journal.close d.w;
          d.w <- Beacon_journal.reset ~sync:d.sync d.journal_path

    let close d = Beacon_journal.close d.w
  end

  (* --- synthetic arrivals -------------------------------------------- *)

  module Arrival = struct
    type kind = Poisson | Bursty of { burst : float; mutable high : bool }
    type t = { rate : float; g : Prng.t; kind : kind }

    let unit_float g = float_of_int (Prng.bits g 53) /. 9007199254740992.

    let rec gaussian g =
      let u1 = unit_float g and u2 = unit_float g in
      if u1 <= 0. then gaussian g
      else sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

    (* Knuth's product method below lambda = 30 (exp(-lambda) stays
       representable), normal approximation above — loadgen rates are in
       the hundreds-to-thousands, where the approximation error is far
       below the arrival noise. *)
    let poisson_draw g lambda =
      if lambda <= 0. then 0
      else if lambda < 30. then begin
        let l = exp (-.lambda) in
        let k = ref 0 and p = ref 1.0 in
        let continue = ref true in
        while !continue do
          p := !p *. unit_float g;
          if !p > l then incr k else continue := false
        done;
        !k
      end
      else
        let x = lambda +. (sqrt lambda *. gaussian g) in
        int_of_float (Float.max 0. (Float.round x))

    let poisson ~rate ~seed =
      if rate < 0. then invalid_arg "Arrival.poisson: rate must be >= 0";
      { rate; g = Prng.of_int seed; kind = Poisson }

    let bursty ?(burst = 1.8) ~rate ~seed () =
      if rate < 0. then invalid_arg "Arrival.bursty: rate must be >= 0";
      if burst < 1.0 || burst > 2.0 then
        invalid_arg "Arrival.bursty: burst must be in [1, 2]";
      { rate; g = Prng.of_int seed; kind = Bursty { burst; high = false } }

    let next t =
      match t.kind with
      | Poisson -> poisson_draw t.g t.rate
      | Bursty b ->
          if unit_float t.g < 0.2 then b.high <- not b.high;
          let r =
            if b.high then b.burst *. t.rate else (2. -. b.burst) *. t.rate
          in
          poisson_draw t.g r

    let name t = match t.kind with Poisson -> "poisson" | Bursty _ -> "bursty"
  end
end
