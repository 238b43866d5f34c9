module F = Gf2k.GF16
module PL = Pool.Make (F)
module CG = PL.CG
module CE = PL.CE

let n = 13
let t = 2

let mk ?adversary ?expose_behavior seed =
  PL.create ?adversary ?expose_behavior ~prng:(Prng.of_int seed) ~n ~t
    ~batch_size:16 ~refill_threshold:3 ~initial_seed:6 ()

let test_bootstrap_sustains_draws () =
  let p = mk 1 in
  (* 6 dealer coins fund an unbounded stream: draw far more than the
     initial seed. *)
  for _ = 1 to 120 do
    ignore (PL.draw_kary p)
  done;
  let s = PL.stats p in
  Alcotest.(check int) "dealer used once, 6 coins" 6 s.PL.dealer_coins;
  Alcotest.(check bool) "refilled repeatedly" true (s.PL.refills >= 3);
  Alcotest.(check int) "all draws served" 120 s.PL.coins_exposed;
  Alcotest.(check bool) "no unanimity failures" true
    (s.PL.unanimity_failures = 0);
  Alcotest.(check bool) "pool still stocked" true (PL.available p > 0)

let test_seed_consumption_is_small () =
  let p = mk 2 in
  for _ = 1 to 100 do
    ignore (PL.draw_kary p)
  done;
  let s = PL.stats p in
  (* Each refill consumes 1 + ba_iterations seed coins; with honest
     players that is 2 per refill of 16 coins. *)
  Alcotest.(check int) "2 seed coins per refill"
    (2 * s.PL.refills) s.PL.seed_coins_consumed;
  Alcotest.(check int) "one BA per refill" s.PL.refills s.PL.ba_iterations;
  Alcotest.(check bool) "amortized seed usage < 15%" true
    (s.PL.seed_coins_consumed * 100 < 15 * s.PL.coins_exposed)

let test_draw_bit_buffers () =
  let p = mk 3 in
  let before = (PL.stats p).PL.coins_exposed in
  (* k = 16 bits per coin: 16 bit draws must expose exactly one coin. *)
  for _ = 1 to 16 do
    ignore (PL.draw_bit p)
  done;
  let after = (PL.stats p).PL.coins_exposed in
  Alcotest.(check int) "one coin for 16 bits" 1 (after - before)

let test_bits_balanced () =
  let p = mk 4 in
  let ones = ref 0 in
  let total = 4000 in
  for _ = 1 to total do
    if PL.draw_bit p then incr ones
  done;
  let dev = abs (!ones - (total / 2)) in
  (* sigma ~ 31.6; 5 sigma. *)
  Alcotest.(check bool) (Printf.sprintf "%d ones" !ones) true (dev < 158)

let test_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "threshold >= 2" true
    (bad (fun () ->
         PL.create ~prng:(Prng.of_int 1) ~n ~t ~batch_size:16 ~refill_threshold:1
           ~initial_seed:6 ()));
  Alcotest.(check bool) "seed > threshold" true
    (bad (fun () ->
         PL.create ~prng:(Prng.of_int 1) ~n ~t ~batch_size:16 ~refill_threshold:3
           ~initial_seed:3 ()));
  Alcotest.(check bool) "batch >= 2*threshold" true
    (bad (fun () ->
         PL.create ~prng:(Prng.of_int 1) ~n ~t ~batch_size:5 ~refill_threshold:3
           ~initial_seed:6 ()))

let test_under_byzantine_faults () =
  (* Mobile adversary: a different random fault set on every refill,
     plus exposure-time lying — the pool must keep producing and honest
     reconstruction must hold throughout. *)
  let g = Prng.of_int 55 in
  let fault_sets = Array.init 64 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    let faults = fault_sets.(refill mod 64) in
    CG.faulty_with ~as_dealer:(CG.BG.Bad_degree [ 0 ])
      ~as_gamma:CG.Silent_vec ~as_ba:(Phase_king.Fixed false) faults
  in
  let expose_behavior refill i =
    let faults = fault_sets.(refill mod 64) in
    if Net.Faults.is_faulty faults i then CE.Send (F.of_int 0xBEEF)
    else CE.Honest
  in
  let p = mk ~adversary ~expose_behavior 5 in
  for _ = 1 to 80 do
    ignore (PL.draw_kary p)
  done;
  let s = PL.stats p in
  Alcotest.(check int) "all draws served" 80 s.PL.coins_exposed;
  Alcotest.(check bool) "refilled" true (s.PL.refills >= 2)

let test_metrics_visibility () =
  let p = mk 6 in
  let _, snap =
    Metrics.with_counting (fun () ->
        for _ = 1 to 30 do
          ignore (PL.draw_kary p)
        done)
  in
  Alcotest.(check bool) "messages counted" true (snap.Metrics.messages > 0);
  Alcotest.(check bool) "interpolations counted" true
    (snap.Metrics.interpolations > 0);
  Alcotest.(check bool) "BA counted" true (snap.Metrics.ba_runs >= 1)

let test_randomized_ba_flavor () =
  (* Section 1.2: with a randomized BA inside the generator, the BA's
     common coins come out of the pool's own seed reserve. *)
  let p =
    PL.create ~ba_flavor:`Common_coin ~prng:(Prng.of_int 77) ~n ~t
      ~batch_size:16 ~refill_threshold:4 ~initial_seed:6 ()
  in
  for _ = 1 to 60 do
    ignore (PL.draw_kary p)
  done;
  let s = PL.stats p in
  Alcotest.(check int) "all draws served" 60 s.PL.coins_exposed;
  Alcotest.(check bool) "refilled" true (s.PL.refills >= 4);
  Alcotest.(check int) "no unanimity failures" 0 s.PL.unanimity_failures;
  (* Each refill needs the check coin, the leader coin and at least one
     coin's worth of BA phase bits: strictly more than the deterministic
     flavor's 2 per refill. *)
  Alcotest.(check bool)
    (Printf.sprintf "seed usage %d > 2 per refill" s.PL.seed_coins_consumed)
    true
    (s.PL.seed_coins_consumed > 2 * s.PL.refills);
  (* Conservation still holds. *)
  Alcotest.(check int) "conservation"
    (s.PL.dealer_coins + s.PL.generated_coins)
    (s.PL.coins_exposed + s.PL.seed_coins_consumed + PL.available p)

let test_randomized_ba_under_attack () =
  let g = Prng.of_int 88 in
  let fault_sets = Array.init 32 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    CG.faulty_with ~as_dealer:(CG.BG.Bad_degree [ 0 ])
      ~as_ba:(Phase_king.Fixed false)
      fault_sets.(refill mod 32)
  in
  let p =
    PL.create ~ba_flavor:`Common_coin ~adversary ~prng:(Prng.split g) ~n ~t
      ~batch_size:16 ~refill_threshold:4 ~initial_seed:6 ()
  in
  for _ = 1 to 40 do
    ignore (PL.draw_kary p)
  done;
  let s = PL.stats p in
  Alcotest.(check int) "served" 40 s.PL.coins_exposed;
  Alcotest.(check int) "no unanimity failures" 0 s.PL.unanimity_failures

(* DESIGN E12: the long-run soak. At least 50 refill epochs under a
   mobile adversary AND a degraded network (5% message drop, retransmit
   budget 1), with a crash-recovery in the middle — the pool is
   snapshotted, "crashes", a corrupted copy of the snapshot is rejected,
   and service resumes from the intact bytes. Over the whole run the
   pool never starves, never breaks unanimity, and the trusted dealer is
   consulted exactly once (at the very first setup — the paper's
   contrast with [Rab83]). *)
let test_degraded_soak_with_recovery () =
  let g = Prng.of_int 99 in
  let fault_sets = Array.init 64 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    let faults = fault_sets.(refill mod 64) in
    CG.faulty_with ~as_dealer:(CG.BG.Bad_degree [ 0 ])
      ~as_gamma:CG.Silent_vec ~as_ba:(Phase_king.Fixed false) faults
  in
  let expose_behavior refill i =
    let faults = fault_sets.(refill mod 64) in
    if Net.Faults.is_faulty faults i then CE.Send (F.of_int 0xBEEF)
    else CE.Honest
  in
  let plan = Net.Plan.make ~drop:0.05 ~retransmits:1 ~seed:424242 () in
  Net.with_plan plan (fun () ->
      let p =
        PL.create ~adversary ~expose_behavior ~prng:(Prng.split g) ~n ~t
          ~batch_size:8 ~refill_threshold:3 ~initial_seed:6 ()
      in
      for _ = 1 to 200 do
        ignore (PL.draw_kary p)
      done;
      let mid = PL.stats p in
      Alcotest.(check bool) "refilling before the crash" true
        (mid.PL.refills >= 25);
      (* Crash: persist, reject a damaged snapshot, recover, resume. *)
      let saved = PL.save p in
      (let corrupted = Bytes.copy saved in
       let pos = Bytes.length saved / 2 in
       Bytes.set_uint8 corrupted pos (Bytes.get_uint8 corrupted pos lxor 0x10);
       match
         PL.load ~prng:(Prng.of_int 1) ~batch_size:8 ~refill_threshold:3
           corrupted
       with
       | (_ : PL.t) -> Alcotest.fail "corrupted snapshot accepted"
       | exception PL.Corrupt_snapshot _ -> ());
      let q =
        PL.load ~adversary ~expose_behavior ~prng:(Prng.split g) ~batch_size:8
          ~refill_threshold:3 saved
      in
      for _ = 1 to 200 do
        ignore (PL.draw_kary q)
      done;
      let s = PL.stats q in
      Alcotest.(check bool)
        (Printf.sprintf "%d refill epochs over the soak" s.PL.refills)
        true (s.PL.refills >= 50);
      Alcotest.(check int) "dealer consulted exactly once (6 coins)" 6
        s.PL.dealer_coins;
      Alcotest.(check int) "all 400 draws served" 400 s.PL.coins_exposed;
      Alcotest.(check int) "no unanimity failures" 0 s.PL.unanimity_failures;
      Alcotest.(check int) "no refill attempt failed"
        s.PL.refills s.PL.refill_attempts;
      Alcotest.(check int) "no backoff needed" 0 s.PL.backoff_rounds);
  Alcotest.(check bool) "the network really was lossy" true
    ((Net.Plan.stats plan).Net.Plan.dropped > 100)

(* Graceful degradation of the refill loop: with a 1-iteration BA cap
   and faulty players whose proposal grade-casts stay silent, a Coin-Gen
   run fails outright whenever a faulty leader is drawn (its proposal
   carries no payload, so BA rejects it) — the pool must absorb those
   failures with backoff-and-retry instead of starving on the first
   one. *)
let test_refill_backoff_and_retry () =
  let g = Prng.of_int 31337 in
  let fault_sets = Array.init 32 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    CG.faulty_with ~as_gradecast_dealer:Gradecast.Dealer_silent
      ~as_ba:(Phase_king.Fixed false)
      fault_sets.(refill mod 32)
  in
  (* Every failed attempt still burns ~2 seed coins (check coin plus a
     leader draw), so the reserve must fund the retry budget: hence the
     tall threshold — the DESIGN §11 sizing rule. *)
  let p =
    PL.create ~adversary ~max_ba_iterations:1 ~prng:(Prng.split g) ~n ~t
      ~batch_size:16 ~refill_threshold:8 ~initial_seed:9 ()
  in
  let (), snap =
    Metrics.with_counting (fun () ->
        for _ = 1 to 300 do
          ignore (PL.draw_kary p)
        done)
  in
  let s = PL.stats p in
  Alcotest.(check bool)
    (Printf.sprintf "%d attempts > %d refills" s.PL.refill_attempts
       s.PL.refills)
    true
    (s.PL.refill_attempts > s.PL.refills);
  Alcotest.(check bool) "backoff rounds charged" true (s.PL.backoff_rounds >= 1);
  Alcotest.(check bool) "backoff visible to Metrics" true
    (snap.Metrics.rounds > s.PL.backoff_rounds);
  Alcotest.(check int) "all draws served" 300 s.PL.coins_exposed

(* Coin conservation under arbitrary operation sequences: every coin in
   existence was either dealt at setup or generated by a refill, and is
   now either exposed (as seed or for the application) or still in the
   pool. Refresh re-randomizes in place, so it must not disturb the
   ledger. *)
let prop_conservation =
  QCheck.Test.make ~count:40 ~name:"pool coin conservation"
    QCheck.(pair int (int_range 10 60))
    (fun (seed, ops) ->
      let p = mk seed in
      let g = Prng.of_int (seed + 1) in
      for _ = 1 to ops do
        match Prng.int g 10 with
        | 0 -> PL.refresh p
        | 1 | 2 | 3 -> ignore (PL.draw_bit p)
        | _ -> ignore (PL.draw_kary p)
      done;
      let s = PL.stats p in
      s.PL.dealer_coins + s.PL.generated_coins
      = s.PL.coins_exposed + s.PL.seed_coins_consumed + PL.available p
      && s.PL.unanimity_failures = 0)

(* [available] against a model count. The model starts at the dealer's
   coins and moves only by what the stats say an operation generated,
   exposed or spent as seed; a save/load round trip must leave it
   alone. Half the runs face a hostile adversary under a one-iteration
   BA, so Coin-Gen fails whenever a faulty leader is drawn: refills
   retry, and refreshes take their failure path, which puts the coins
   back and raises [Starved]. *)
let hostile_pool ~hostile g =
  let fault_sets = Array.init 8 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    if hostile then
      CG.faulty_with ~as_gradecast_dealer:Gradecast.Dealer_silent
        ~as_ba:(Phase_king.Fixed false)
        fault_sets.(refill mod 8)
    else CG.honest_adversary
  in
  let create () =
    PL.create ~adversary ~max_ba_iterations:1 ~prng:(Prng.split g) ~n ~t
      ~batch_size:16 ~refill_threshold:8 ~initial_seed:9 ()
  in
  let reload p =
    PL.load ~adversary ~max_ba_iterations:1 ~prng:(Prng.split g)
      ~batch_size:16 ~refill_threshold:8 (PL.save p)
  in
  (create, reload)

let prop_available_matches_model =
  QCheck.Test.make ~count:30 ~name:"available matches a model count"
    QCheck.(pair int (int_range 10 40))
    (fun (seed, ops) ->
      let g = Prng.of_int seed in
      let create, reload = hostile_pool ~hostile:(seed mod 2 = 0) g in
      let p = ref (create ()) in
      let model = ref 9 in
      let ok = ref (PL.available !p = !model) in
      for _ = 1 to ops do
        let s0 = PL.stats !p in
        (try
           match Prng.int g 6 with
           | 0 -> PL.refresh !p
           | 1 -> PL.prefetch !p ~upcoming:(1 + Prng.int g 20)
           | 2 -> p := reload !p
           | _ -> ignore (PL.draw_kary !p)
         with PL.Starved _ -> ());
        let s1 = PL.stats !p in
        model :=
          !model
          + (s1.PL.generated_coins - s0.PL.generated_coins)
          - (s1.PL.coins_exposed - s0.PL.coins_exposed)
          - (s1.PL.seed_coins_consumed - s0.PL.seed_coins_consumed);
        ok := !ok && PL.available !p = !model
      done;
      !ok)

(* The failure path of [refresh] on its own: find a seed whose refresh
   fails, and check the stock lost only the seed the failed run spent. *)
let test_refresh_failure_restores_stock () =
  let rec find seed =
    if seed > 200 then Alcotest.fail "no refresh failed in 200 seeds"
    else
      let create, _ = hostile_pool ~hostile:true (Prng.of_int seed) in
      let p = create () in
      for _ = 1 to 3 do
        ignore (PL.draw_kary p)
      done;
      let before = PL.available p and s0 = PL.stats p in
      match PL.refresh p with
      | () -> find (seed + 1)
      | exception PL.Starved _ ->
          let s1 = PL.stats p in
          Alcotest.(check int) "no refresh counted" s0.PL.refreshes
            s1.PL.refreshes;
          Alcotest.(check int) "the coins came back, less the seed spent"
            (before - (s1.PL.seed_coins_consumed - s0.PL.seed_coins_consumed))
            (PL.available p)
  in
  find 1

(* --- sentinel attribution through the pool (DESIGN section 14) ----- *)

(* Two persistent exposure-time liars (exactly t of them): an active
   ledger must quarantine both within a handful of draws, trigger an
   early proactive refresh, keep serving coins from the surviving
   trusted majority — and never blame an honest player. *)
let test_active_ledger_quarantines_liars () =
  let liars = [ 0; 1 ] in
  let expose_behavior _refill i =
    if List.mem i liars then CE.Send (F.of_int 0xBEEF) else CE.Honest
  in
  let p =
    PL.create ~expose_behavior
      ~sentinel:(Some (Sentinel.active ~threshold:6 ()))
      ~prng:(Prng.of_int 7100) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  for _ = 1 to 40 do
    ignore (PL.draw_kary p)
  done;
  let ledger = Option.get (PL.ledger p) in
  Alcotest.(check (list int)) "exactly the liars are quarantined" liars
    (Sentinel.Ledger.quarantine_set ledger);
  let s = PL.stats p in
  Alcotest.(check int) "all draws served" 40 s.PL.coins_exposed;
  Alcotest.(check bool) "rising suspicion triggered an early refresh" true
    (s.PL.refreshes >= 1)

(* More liars than the fault bound: once the evidence implies > t
   corrupted players the reconstruction assumption is void and draws
   must refuse with a diagnostic rather than vend biased coins. *)
let test_safe_mode_beyond_fault_bound () =
  let liars = [ 0; 1; 2 ] in
  let expose_behavior _refill i =
    if List.mem i liars then CE.Send (F.of_int 0xBEEF) else CE.Honest
  in
  let p =
    PL.create ~expose_behavior
      ~sentinel:(Some (Sentinel.active ~threshold:6 ()))
      ~prng:(Prng.of_int 7200) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  let refused =
    try
      for _ = 1 to 40 do
        ignore (PL.draw_kary p)
      done;
      None
    with PL.Safe_mode msg -> Some msg
  in
  match refused with
  | None -> Alcotest.fail "pool kept vending with > t quarantined players"
  | Some msg ->
      Alcotest.(check bool) "diagnostic carries the suspicion table" true
        (let nl = String.length "QUARANTINED" and hl = String.length msg in
         let rec go i =
           i + nl <= hl
           && (String.sub msg i nl = "QUARANTINED" || go (i + 1))
         in
         go 0);
      Alcotest.(check bool) "ledger shows more than t quarantined" true
        (Sentinel.Ledger.quarantined_count (Option.get (PL.ledger p)) > t)

(* The passive-ledger bit-identity pin: the deployment-default passive
   ledger must leave the draw stream, the stats and the metered cost of
   a lying-adversary run exactly equal to a ledger-free run — evidence
   collection is observation, never interference. *)
let test_passive_ledger_bit_identical () =
  let expose_behavior _refill i = if i = 4 then CE.Silent else CE.Honest in
  let run sentinel =
    let p =
      PL.create ~expose_behavior ~sentinel ~prng:(Prng.of_int 7300) ~n ~t
        ~batch_size:16 ~refill_threshold:3 ~initial_seed:6 ()
    in
    let draws, snap =
      Metrics.with_counting (fun () ->
          List.init 60 (fun _ -> PL.draw_kary p))
    in
    (draws, PL.stats p, snap)
  in
  (* Warmup: the kernel grid/subset-weight caches are process-global and
     pay their metered setup mults exactly once, so a throwaway run
     first puts both measured runs on identical warm caches. *)
  ignore (run None);
  let d0, s0, m0 = run None in
  let d1, s1, m1 = run (Some Sentinel.passive) in
  Alcotest.(check bool) "draw streams bit-identical" true
    (List.for_all2 F.equal d0 d1);
  Alcotest.(check bool) "stats identical" true (s0 = s1);
  Alcotest.(check int) "field mults identical" m0.Metrics.field_mults
    m1.Metrics.field_mults;
  Alcotest.(check int) "messages identical" m0.Metrics.messages
    m1.Metrics.messages

(* The draw's tally against the string-keyed one it short-cuts: for
   every array of 1-16 reconstructions, the same count and the same
   element. Arrays are unanimous, a random mix of 1-3 distinct values
   and [None]s (the [None] rate itself random, often zero), or an
   exact two-way tie. *)
module Tally_ref = Pool_tally_reference.Make (F)

let prop_tally_matches_reference =
  QCheck.Test.make ~count:500 ~name:"tally matches the string-keyed tally"
    QCheck.(triple (int_range 1 16) (int_range 0 2) int)
    (fun (len, shape, seed) ->
      let g = Prng.of_int seed in
      let distinct = 1 + Prng.int g 3 in
      let pool = Array.make distinct F.zero in
      Array.iteri
        (fun i _ ->
          let rec fresh () =
            let x = F.random g in
            if Array.exists (F.equal x) (Array.sub pool 0 i) then fresh ()
            else x
          in
          pool.(i) <- fresh ())
        pool;
      let none_rate = if Prng.bool g then 0 else Prng.int g 50 in
      let values =
        Array.init len (fun i ->
            match shape with
            | 0 -> Some pool.(0)
            | 1 ->
                if Prng.int g 100 < none_rate then None
                else Some pool.(Prng.int g distinct)
            | _ -> Some pool.(i mod min 2 distinct))
      in
      match (PL.tally values, Tally_ref.tally values) with
      | None, None -> true
      | Some (c, x), Some (c', x') -> c = c' && F.equal x x'
      | Some _, None | None, Some _ -> false)

let suite =
  [
    Alcotest.test_case "bootstrap sustains draws" `Quick
      test_bootstrap_sustains_draws;
    Alcotest.test_case "seed consumption small" `Quick
      test_seed_consumption_is_small;
    Alcotest.test_case "draw_bit buffers" `Quick test_draw_bit_buffers;
    Alcotest.test_case "bits balanced" `Quick test_bits_balanced;
    Alcotest.test_case "parameter validation" `Quick test_validation;
    Alcotest.test_case "byzantine faults tolerated" `Quick
      test_under_byzantine_faults;
    Alcotest.test_case "metrics visibility" `Quick test_metrics_visibility;
    Alcotest.test_case "randomized BA flavor" `Quick test_randomized_ba_flavor;
    Alcotest.test_case "randomized BA under attack" `Quick
      test_randomized_ba_under_attack;
    Alcotest.test_case "degraded soak with crash recovery" `Quick
      test_degraded_soak_with_recovery;
    Alcotest.test_case "refill backoff and retry" `Quick
      test_refill_backoff_and_retry;
    Alcotest.test_case "active ledger quarantines liars" `Quick
      test_active_ledger_quarantines_liars;
    Alcotest.test_case "safe mode beyond fault bound" `Quick
      test_safe_mode_beyond_fault_bound;
    Alcotest.test_case "passive ledger bit-identical" `Quick
      test_passive_ledger_bit_identical;
    Alcotest.test_case "refresh failure restores the stock" `Quick
      test_refresh_failure_restores_stock;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_conservation;
        prop_available_matches_model;
        prop_tally_matches_reference;
      ]
