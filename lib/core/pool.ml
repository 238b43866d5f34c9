let log_src = Logs.Src.create "dprbg.pool" ~doc:"Bootstrap pool events"

module Log = (val Logs.src_log log_src)

module Make (F : Field_intf.S) = struct
  module C = Sealed_coin.Make (F)
  module CG = Coin_gen.Make (F)
  module CE = Coin_expose.Make (F)
  module R = Refresh.Make (F)

  exception Starved of string
  exception Corrupt_snapshot of string
  exception Safe_mode of string

  type stats = {
    refills : int;
    refreshes : int;
    dealer_coins : int;
    generated_coins : int;
    seed_coins_consumed : int;
    coins_exposed : int;
    ba_iterations : int;
    unanimity_failures : int;
    refill_attempts : int;
    backoff_rounds : int;
  }

  type t = {
    prng : Prng.t;
    n : int;
    fault_bound : int;
    batch_size : int;
    refill_threshold : int;
    adversary : int -> CG.adversary;
    expose_behavior : int -> int -> CE.sender_behavior;
    max_ba_iterations : int;
    ba_flavor : [ `Phase_king | `Common_coin ];
    max_refill_attempts : int;
    ledger : Sentinel.Ledger.t option;
    mutable quarantine_mark : int;
        (* quarantine count at the last evidence-triggered refresh *)
    coins : C.t Queue.t;
        (* the stock, oldest first: draws expose from the front, refills
           append at the back *)
    mutable bit_buffer : bool list;
    mutable refills : int;
    mutable refreshes : int;
    mutable dealer_coins : int;
    mutable generated_coins : int;
    mutable seed_coins_consumed : int;
    mutable coins_exposed : int;
    mutable ba_iterations : int;
    mutable unanimity_failures : int;
    mutable refill_attempts : int;
    mutable backoff_rounds : int;
  }

  let create ?(adversary = fun _ -> CG.honest_adversary)
      ?(expose_behavior = fun _ _ -> CE.Honest) ?(max_ba_iterations = 64)
      ?(ba_flavor = `Phase_king) ?(max_refill_attempts = 5)
      ?(sentinel = Some Sentinel.passive) ~prng ~n ~t ~batch_size
      ~refill_threshold ~initial_seed () =
    if refill_threshold < 2 then
      invalid_arg "Pool.create: refill_threshold must be >= 2";
    if initial_seed <= refill_threshold then
      invalid_arg "Pool.create: initial_seed must exceed refill_threshold";
    if batch_size < 2 * refill_threshold then
      invalid_arg "Pool.create: batch_size must be >= 2 * refill_threshold";
    if max_refill_attempts < 1 then
      invalid_arg "Pool.create: max_refill_attempts must be >= 1";
    let coins = Queue.create () in
    for _ = 1 to initial_seed do
      Queue.add (C.dealer_coin prng ~n ~t) coins
    done;
    {
      prng;
      n;
      fault_bound = t;
      batch_size;
      refill_threshold;
      adversary;
      expose_behavior;
      max_ba_iterations;
      ba_flavor;
      max_refill_attempts;
      ledger =
        Option.map (fun config -> Sentinel.Ledger.create ~config ~n ()) sentinel;
      quarantine_mark = 0;
      coins;
      bit_buffer = [];
      refills = 0;
      refreshes = 0;
      dealer_coins = initial_seed;
      generated_coins = 0;
      seed_coins_consumed = 0;
      coins_exposed = 0;
      ba_iterations = 0;
      unanimity_failures = 0;
      refill_attempts = 0;
      backoff_rounds = 0;
    }

  let available p = Queue.length p.coins
  let ledger p = p.ledger
  let refill_threshold p = p.refill_threshold

  (* Draws the pool can serve before the next draw pays a refill inline.
     The beacon's admission control reads this as its pool-pressure
     signal: headroom <= 0 means the next epoch close runs Coin-Gen in
     the vend path. *)
  let headroom p = available p - p.refill_threshold

  (* Satellite diagnostics: every Starved carries the pool's vital signs
     so a post-mortem needs no debugger. *)
  let starve p msg =
    raise
      (Starved
         (Printf.sprintf
            "%s [refills=%d refill_attempts=%d backoff_rounds=%d coins=%d]" msg
            p.refills p.refill_attempts p.backoff_rounds (available p)))

  (* Install the pool's ledger for the extent of a protocol run, so the
     drivers' Sentinel.observe hooks land in it. A [None] ledger leaves
     the ambient state untouched — the run is exactly the pre-sentinel
     code path. *)
  let with_sentinel p f =
    match p.ledger with
    | None -> f ()
    | Some ledger -> Sentinel.with_ledger ledger f

  (* Safe mode: when the implied fault count exceeds t the assumptions
     underpinning reconstruction are void, so the pool refuses to vend
     coins rather than serve possibly-biased randomness. Implied faults
     are the union of quarantined players (ledger evidence) and players
     the supervised transport session has declared physically dead —
     each voids one slot of the fault budget, and a player that is both
     counts once. The diagnostic embeds the full suspicion table. *)
  let guard_safe_mode p =
    let quarantined =
      match p.ledger with
      | None -> []
      | Some ledger -> Sentinel.Ledger.quarantine_set ledger
    in
    let dead = List.map fst (Transport.session_deaths ~n:p.n) in
    let implied = List.sort_uniq compare (quarantined @ dead) in
    if List.length implied > p.fault_bound then
      let table =
        match p.ledger with
        | Some ledger when quarantined <> [] ->
            Format.asprintf "@.%a" Sentinel.Ledger.pp_table ledger
        | _ -> ""
      in
      raise
        (Safe_mode
           (Printf.sprintf
              "evidence implies %d faults > t = %d (%d quarantined, %d \
               really dead); refusing draws%s"
              (List.length implied) p.fault_bound (List.length quarantined)
              (List.length dead) table))

  (* The players' reconstructions, tallied: the most common value and
     its count. The usual outcome — every player reconstructed the same
     value — is recognised by one F.equal scan and answered as the
     string-keyed tally would (count n, its last-inserted element).
     Anything else takes that tally, whose ties resolve in Hashtbl.fold
     order; a tie can only arise when the count misses n, which is
     already a counted unanimity failure. *)
  let tally values =
    let n = Array.length values in
    let unanimous =
      n > 0
      &&
      match values.(0) with
      | None -> false
      | Some x ->
          let rec from i =
            i >= n
            || (match values.(i) with Some y -> F.equal x y | None -> false)
               && from (i + 1)
          in
          from 1
    in
    if unanimous then Some (n, Option.get values.(n - 1))
    else begin
      let counts = Hashtbl.create 7 in
      Array.iter
        (function
          | None -> ()
          | Some x ->
              let key = F.to_string x in
              let prev =
                match Hashtbl.find_opt counts key with
                | Some (c, _) -> c
                | None -> 0
              in
              Hashtbl.replace counts key (prev + 1, x))
        values;
      Hashtbl.fold
        (fun _ (c, x) acc ->
          match acc with
          | Some (c', _) when c' >= c -> acc
          | _ -> Some (c, x))
        counts None
    end

  (* Expose the next sealed coin and return the honest players' majority
     reconstruction. Counts a unanimity failure when any player's
     decoding disagrees or fails (bounded by M n 2^-k per batch). *)
  let expose_next p ~for_seed =
    Trace.span Trace.Phase "pool.expose" @@ fun () ->
    match Queue.take_opt p.coins with
    | None ->
        starve p
          (if for_seed then "seed coins exhausted during a refill"
           else "pool empty")
    | Some coin ->
        let values =
          with_sentinel p (fun () ->
              CE.run ~sender_behavior:(p.expose_behavior p.refills) coin)
        in
        let best = tally values in
        (match best with
        | Some (c, _) when c = p.n -> ()
        | _ -> p.unanimity_failures <- p.unanimity_failures + 1);
        (if for_seed then p.seed_coins_consumed <- p.seed_coins_consumed + 1
         else p.coins_exposed <- p.coins_exposed + 1);
        (match best with
        | Some (_, x) -> x
        | None -> starve p "exposure produced no value at any player")

  (* For the `Common_coin flavor, the BA's shared coins come out of the
     pool's own seed reserve: one exposed k-ary coin buffers k_bits of
     phase coins. Nested refills cannot trigger (the bits are drawn via
     expose_next directly), which is exactly why the threshold must
     cover them — the Section-1.2 remark. *)
  let randomized_ba p adversary inputs =
    let buffer = ref [] in
    let draw_bit () =
      match !buffer with
      | b :: rest ->
          buffer := rest;
          b
      | [] -> (
          let v = expose_next p ~for_seed:true in
          match Array.to_list (F.to_bits v) with
          | b :: rest ->
              buffer := rest;
              b
          | [] -> assert false)
    in
    let behavior i =
      match adversary.CG.as_ba i with
      | Phase_king.Honest -> Common_coin_ba.Honest
      | Phase_king.Silent -> Common_coin_ba.Silent
      | Phase_king.Fixed b -> Common_coin_ba.Fixed b
      | Phase_king.Arbitrary _ -> Common_coin_ba.Silent
    in
    match
      Common_coin_ba.run ~behavior ~coin:draw_bit ~n:p.n ~t:p.fault_bound
        ~max_phases:64 ~inputs ()
    with
    | Some r -> r.Common_coin_ba.decisions
    | None -> starve p "randomized BA did not terminate"

  let refill p =
    Trace.span Trace.Protocol "pool.refill" @@ fun () ->
    let attempt () =
      let adversary = p.adversary p.refills in
      let ba =
        match p.ba_flavor with
        | `Phase_king -> None
        | `Common_coin -> Some (randomized_ba p adversary)
      in
      with_sentinel p (fun () ->
          CG.run ~adversary ?ba ~max_ba_iterations:p.max_ba_iterations
            ~prng:p.prng
            ~oracle:(fun () -> expose_next p ~for_seed:true)
            ~n:p.n ~t:p.fault_bound ~m:p.batch_size ())
    in
    (* Graceful degradation: a failed Coin-Gen run (the BA loop giving
       up, typically under heavy fault pressure) is retried after an
       exponentially growing backoff — the real-world move of waiting
       out an omission burst before re-engaging the protocol. The
       backoff is idle time, charged to the round counter. [Starved]
       still bounds the retries: it now means the budget is exhausted,
       not that the first burst of bad luck was fatal. *)
    let rec go tries backoff =
      if tries = 0 then starve p "Coin-Gen failed repeatedly"
      else begin
        p.refill_attempts <- p.refill_attempts + 1;
        match attempt () with
        | Some batch -> batch
        | None ->
            if tries > 1 then begin
              for _ = 1 to backoff do
                Metrics.tick_round ()
              done;
              p.backoff_rounds <- p.backoff_rounds + backoff
            end;
            go (tries - 1) (2 * backoff)
      end
    in
    let batch = go p.max_refill_attempts 1 in
    p.refills <- p.refills + 1;
    p.generated_coins <- p.generated_coins + batch.CG.m;
    p.ba_iterations <- p.ba_iterations + batch.CG.ba_iterations;
    for h = 0 to batch.CG.m - 1 do
      Queue.add (CG.coin batch h) p.coins
    done;
    Log.info (fun f ->
        f "refill %d: +%d coins (spent %d seed), %d now available" p.refills
          batch.CG.m batch.CG.seed_coins_consumed (available p))

  let refresh p =
    Trace.span Trace.Protocol "pool.refresh" @@ fun () ->
    (* Reserve a seed budget up front: the refresh batch size must be
       fixed before any seed coin is consumed, so the reserve coins fuel
       the run and skip this round's re-randomization. *)
    if available p > p.refill_threshold then begin
      (* The reserve stays in the stock, at its front; the rest leaves
         it for the refresh run. *)
      let rest = Queue.create () in
      Queue.transfer p.coins rest;
      for _ = 1 to p.refill_threshold do
        Queue.add (Queue.take rest) p.coins
      done;
      let to_refresh = List.of_seq (Queue.to_seq rest) in
      match
        with_sentinel p (fun () ->
            R.run ~adversary:(p.adversary p.refills)
              ?max_ba_iterations:(Some p.max_ba_iterations) ~prng:p.prng
              ~oracle:(fun () -> expose_next p ~for_seed:true)
              to_refresh)
      with
      | None ->
          (* Agreement never succeeded; put the coins back unrefreshed. *)
          List.iter (fun c -> Queue.add c p.coins) to_refresh;
          starve p "refresh batch failed repeatedly"
      | Some refreshed ->
          p.refreshes <- p.refreshes + 1;
          List.iter (fun c -> Queue.add c p.coins) refreshed;
          Log.info (fun f ->
              f "refresh %d: re-randomized %d coins, %d now available"
                p.refreshes (List.length refreshed) (available p))
    end

  (* Rising suspected-corruption count triggers an early proactive
     refresh: shares an intruder harvested through the players it now
     stands accused of controlling go stale immediately, instead of at
     the next scheduled epoch boundary. Fires once per quarantine-count
     increase; passive ledgers (threshold None) never quarantine, so
     this never fires for them. *)
  let refresh_on_suspicion p =
    match p.ledger with
    | None -> ()
    | Some ledger ->
        let q = Sentinel.Ledger.quarantined_count ledger in
        if q > p.quarantine_mark then begin
          p.quarantine_mark <- q;
          Log.info (fun f ->
              f "quarantine count rose to %d: early proactive refresh" q);
          refresh p
        end

  (* Pending-demand signal from a long-running consumer (the beacon
     daemon): refill ahead of the vend path so the next [upcoming] draws
     are served from stock instead of paying Coin-Gen latency inline at
     an epoch close. Each refill strictly grows the pool (batch_size >=
     2 * refill_threshold and a run spends at most threshold seed
     coins), so the loop terminates; the bound is belt and braces
     against a pathological adversary hook. *)
  let prefetch p ~upcoming =
    guard_safe_mode p;
    let rec go budget =
      if budget > 0 && headroom p < upcoming then begin
        let before = available p in
        refill p;
        if available p > before then go (budget - 1)
      end
    in
    go 64

  let draw_kary p =
    Trace.span Trace.Protocol "pool.draw" @@ fun () ->
    guard_safe_mode p;
    (* The suspicion-triggered refresh runs before the refill check: it
       burns seed coins out of the reserve, so a refresh that drains the
       stock to the threshold is replenished right here instead of
       starving the next refill's Coin-Gen mid-run. *)
    refresh_on_suspicion p;
    if available p <= p.refill_threshold then refill p;
    expose_next p ~for_seed:false

  let draw_bit p =
    guard_safe_mode p;
    match p.bit_buffer with
    | b :: rest ->
        p.bit_buffer <- rest;
        b
    | [] ->
        let v = draw_kary p in
        let bits = Array.to_list (F.to_bits v) in
        (match bits with
        | b :: rest ->
            p.bit_buffer <- rest;
            b
        | [] -> assert false (* k_bits >= 1 *))

  let stats p =
    {
      refills = p.refills;
      refreshes = p.refreshes;
      dealer_coins = p.dealer_coins;
      generated_coins = p.generated_coins;
      seed_coins_consumed = p.seed_coins_consumed;
      coins_exposed = p.coins_exposed;
      ba_iterations = p.ba_iterations;
      unanimity_failures = p.unanimity_failures;
      refill_attempts = p.refill_attempts;
      backoff_rounds = p.backoff_rounds;
    }

  let magic = 0xD9B6
  let snapshot_version = 3
  let oldest_readable_version = 2

  (* A snapshot is one [Wire.Record] sealed under [magic]. The payload:
     pool parameters, stats counters, the sealed coins, and (since v3) a
     sentinel-ledger section: a presence flag (u8), then per player the
     evidence counts in [Sentinel.all_kinds] order (u32 each). v2
     snapshots — the same payload without the ledger section — are still
     read; they restore with a fresh ledger. The record lets [load]
     reject truncated, corrupted or alien bytes with a clean
     [Corrupt_snapshot] before any payload decoding runs. *)
  let save p =
    let w = Wire.Writer.create () in
    Wire.Writer.u16 w p.n;
    Wire.Writer.u16 w p.fault_bound;
    List.iter
      (fun v -> Wire.Writer.u32 w v)
      [
        p.refills; p.refreshes; p.dealer_coins; p.generated_coins;
        p.seed_coins_consumed; p.coins_exposed; p.ba_iterations;
        p.unanimity_failures; p.refill_attempts; p.backoff_rounds;
      ];
    Wire.Writer.u16 w (Queue.length p.coins);
    Queue.iter (fun c -> C.write w c) p.coins;
    (match p.ledger with
    | None -> Wire.Writer.u8 w 0
    | Some ledger ->
        Wire.Writer.u8 w 1;
        Array.iter
          (fun row -> Array.iter (fun c -> Wire.Writer.u32 w c) row)
          (Sentinel.Ledger.dump ledger));
    Wire.Record.seal ~magic ~version:snapshot_version
      (Wire.Writer.contents w)

  let corrupt msg = raise (Corrupt_snapshot ("Pool.load: " ^ msg))

  let load ?(adversary = fun _ -> CG.honest_adversary)
      ?(expose_behavior = fun _ _ -> CE.Honest) ?(max_ba_iterations = 64)
      ?(ba_flavor = `Phase_king) ?(max_refill_attempts = 5)
      ?(sentinel = Some Sentinel.passive) ~prng ~batch_size ~refill_threshold
      bytes =
    let version, payload =
      match
        Wire.Record.unseal ~magic
          ~versions:(oldest_readable_version, snapshot_version)
          bytes
      with
      | Ok sealed -> sealed
      | Error msg ->
          (* Record-stage failures know nothing but the byte count; that
             much still lands in the message for the post-mortem. *)
          corrupt (Printf.sprintf "%s [bytes=%d]" msg (Bytes.length bytes))
    in
    let n, fault_bound, counters, coins, saved_counts =
      (* The checksum has vouched for the bytes, so any decode failure
         here still means corruption (e.g. of the CRC field itself along
         with a compensating payload flip is out of scope — but a buggy
         writer is not): surface it as [Corrupt_snapshot], never a raw
         decode exception. *)
      match
        let r = Wire.Reader.of_bytes payload in
        let n = Wire.Reader.u16 r in
        let fault_bound = Wire.Reader.u16 r in
        let counters = Array.init 10 (fun _ -> Wire.Reader.u32 r) in
        let count = Wire.Reader.u16 r in
        let coins = Queue.create () in
        for _ = 1 to count do
          Queue.add (C.read r) coins
        done;
        let saved_counts =
          (* The v3 ledger section; v2 payloads end at the coins. *)
          if version < 3 then None
          else
            match Wire.Reader.u8 r with
            | 0 -> None
            | 1 ->
                Some
                  (Array.init n (fun _ ->
                       Array.init
                         (List.length Sentinel.all_kinds)
                         (fun _ -> Wire.Reader.u32 r)))
            | _ -> failwith "bad ledger flag"
        in
        Wire.Reader.expect_end r;
        (n, fault_bound, counters, coins, saved_counts)
      with
      | decoded -> decoded
      | exception _ ->
          corrupt
            (Printf.sprintf "undecodable payload [bytes=%d]"
               (Bytes.length bytes))
    in
    let with_stats msg =
      Printf.sprintf
        "%s [refills=%d refill_attempts=%d backoff_rounds=%d coins=%d]" msg
        counters.(0) counters.(8) counters.(9) (Queue.length coins)
    in
    Queue.iter
      (fun c ->
        if c.C.n <> n || c.C.fault_bound <> fault_bound then
          corrupt (with_stats "coin parameters inconsistent"))
      coins;
    if refill_threshold < 2 then
      invalid_arg "Pool.load: refill_threshold must be >= 2";
    if batch_size < 2 * refill_threshold then
      invalid_arg "Pool.load: batch_size must be >= 2 * refill_threshold";
    if max_refill_attempts < 1 then
      invalid_arg "Pool.load: max_refill_attempts must be >= 1";
    let ledger =
      (* The caller's sentinel config governs; persisted evidence counts
         rehydrate it (quarantine recomputed from the scores), and a
         [None] config discards them. v2 snapshots restore fresh. *)
      Option.map
        (fun config ->
          match saved_counts with
          | Some counts when Array.length counts = n ->
              Sentinel.Ledger.of_counts ~config counts
          | _ -> Sentinel.Ledger.create ~config ~n ())
        sentinel
    in
    {
      prng;
      n;
      fault_bound;
      batch_size;
      refill_threshold;
      adversary;
      expose_behavior;
      max_ba_iterations;
      ba_flavor;
      max_refill_attempts;
      ledger;
      quarantine_mark =
        (match ledger with
        | None -> 0
        | Some l -> Sentinel.Ledger.quarantined_count l);
      coins;
      bit_buffer = [];
      refills = counters.(0);
      refreshes = counters.(1);
      dealer_coins = counters.(2);
      generated_coins = counters.(3);
      seed_coins_consumed = counters.(4);
      coins_exposed = counters.(5);
      ba_iterations = counters.(6);
      unanimity_failures = counters.(7);
      refill_attempts = counters.(8);
      backoff_rounds = counters.(9);
    }
end
