module F = Gf2k.GF16
module CG = Coin_gen.Make (F)
module CE = Coin_expose.Make (F)
module C = Sealed_coin.Make (F)
module AT = Attacks.Make (F)

let n = 13
let t = 2
let m = 4

let ideal_oracle seed =
  let g = Prng.of_int seed in
  fun () -> Metrics.without_counting (fun () -> F.random g)

let run ?adversary seed =
  CG.run ?adversary ~prng:(Prng.of_int seed) ~oracle:(ideal_oracle (seed + 1000))
    ~n ~t ~m ()

let honest_players faults = Net.Faults.honest faults

let test_honest_run_completes () =
  match run 1 with
  | None -> Alcotest.fail "honest run failed"
  | Some batch ->
      Alcotest.(check int) "m coins" m batch.CG.m;
      Alcotest.(check int) "full clique" n (List.length batch.CG.dealers);
      Alcotest.(check int) "one BA iteration" 1 batch.CG.ba_iterations;
      Alcotest.(check int) "two seed coins" 2 batch.CG.seed_coins_consumed;
      (* Everyone trusts everyone in the all-honest run. *)
      Array.iter
        (fun row ->
          Alcotest.(check bool) "all trusted" true (Array.for_all Fun.id row))
        batch.CG.trusted

let test_coins_expose_unanimously () =
  match run 2 with
  | None -> Alcotest.fail "run failed"
  | Some batch ->
      for h = 0 to m - 1 do
        let coin = CG.coin batch h in
        let values = CE.run coin in
        let first = values.(0) in
        Alcotest.(check bool) "decoded" true (first <> None);
        Array.iter
          (fun v ->
            Alcotest.(check bool) "unanimous" true
              (match (v, first) with
              | Some a, Some b -> F.equal a b
              | _ -> false))
          values
      done

let test_coin_exposure_deterministic () =
  (* Exposing the same sealed coin twice yields the same value: the coin
     is a well-defined shared object, not a random draw at expose time. *)
  let batch = Option.get (run 3) in
  let v1 = Option.get (CE.run (CG.coin batch 0)).(0) in
  let v2 = Option.get (CE.run (CG.coin batch 0)).(0) in
  Alcotest.(check bool) "same value" true (F.equal v1 v2);
  (* Distinct coins of one batch are independent values. *)
  let w = Option.get (CE.run (CG.coin batch 1)).(0) in
  ignore w

(* Lemma 7 under adversarial conditions: when Coin-Gen terminates, the
   agreed set is big enough, honest players agree on it, and at least
   2t+1 honest players are universally trusted by honest players. *)
let lemma7_check faults batch =
  let honest = honest_players faults in
  List.length batch.CG.dealers >= n - (2 * t)
  && List.for_all
       (fun i ->
         (* each honest player's trusted row contains >= 2t+1 honest
            players trusted by ALL honest players *)
         let universally_trusted =
           List.filter
             (fun j ->
               List.for_all (fun i' -> batch.CG.trusted.(i').(j)) honest
               && List.mem j honest)
             (List.init n Fun.id)
         in
         ignore i;
         List.length universally_trusted >= (2 * t) + 1)
       honest

let test_lemma7_under_attacks () =
  let g = Prng.of_int 99 in
  let completed = ref 0 in
  for seed = 1 to 60 do
    let faults = Net.Faults.random g ~n ~t in
    let adversary = AT.mixed_adversary g ~n ~m faults in
    match run ~adversary seed with
    | None -> ()
    | Some batch ->
        incr completed;
        Alcotest.(check bool)
          (Printf.sprintf "lemma7 seed=%d" seed)
          true (lemma7_check faults batch)
  done;
  (* Most runs must complete (honest leaders are drawn with prob
     (n-t)/n). *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/60 completed" !completed)
    true
    (!completed > 40)

let test_unanimity_under_attacks () =
  let g = Prng.of_int 123 in
  for seed = 1 to 40 do
    let faults = Net.Faults.random g ~n ~t in
    let adversary = AT.mixed_adversary g ~n ~m faults in
    match run ~adversary seed with
    | None -> ()
    | Some batch ->
        for h = 0 to m - 1 do
          let coin = CG.coin batch h in
          (* Faulty players also lie at exposure time. *)
          let behavior i =
            if Net.Faults.is_faulty faults i then
              match Prng.int g 3 with
              | 0 -> CE.Silent
              | 1 -> CE.Send (F.random g)
              | _ -> CE.Honest
            else CE.Honest
          in
          let values = CE.run ~sender_behavior:behavior coin in
          let honest_values =
            List.map (fun i -> values.(i)) (honest_players faults)
          in
          match honest_values with
          | [] -> ()
          | first :: rest ->
              Alcotest.(check bool)
                (Printf.sprintf "decoded seed=%d h=%d" seed h)
                true (first <> None);
              List.iter
                (fun v ->
                  Alcotest.(check bool) "honest unanimity" true
                    (match (v, first) with
                    | Some a, Some b -> F.equal a b
                    | _ -> false))
                rest
        done
  done

(* Lemma 8: with an honest majority of leader draws, termination is
   fast. Count BA iterations across adversarial runs. *)
let test_lemma8_iterations () =
  let g = Prng.of_int 7 in
  let total_iters = ref 0 and runs = ref 0 in
  for seed = 1 to 40 do
    let faults = Net.Faults.random g ~n ~t in
    let adversary =
      CG.faulty_with ~as_ba:(Phase_king.Fixed false) faults
    in
    match run ~adversary seed with
    | None -> ()
    | Some batch ->
        incr runs;
        total_iters := !total_iters + batch.CG.ba_iterations
  done;
  Alcotest.(check bool) "most runs complete" true (!runs > 30);
  (* Expected iterations <= n/(n-t) ~ 1.18; allow generous slack. *)
  let mean = float_of_int !total_iters /. float_of_int !runs in
  Alcotest.(check bool) (Printf.sprintf "mean iters %.2f" mean) true (mean < 2.0)

let test_model_validation () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Coin_gen.run: requires n >= 6t+1") (fun () ->
      ignore
        (CG.run ~prng:(Prng.of_int 1) ~oracle:(ideal_oracle 1) ~n:12 ~t:2 ~m:1 ()))

let test_leader_index_range () =
  let g = Prng.of_int 5 in
  for _ = 1 to 200 do
    let l = CG.leader_index (F.random g) ~n in
    Alcotest.(check bool) "in range" true (l >= 0 && l < n)
  done

let test_bad_dealers_excluded_or_pinned () =
  (* A dealer whose sharings have too-high degree must not end up in the
     agreed clique (its check polynomial cannot gather n-t support,
     except with probability M/p). *)
  let faults = Net.Faults.make ~n ~faulty:[ 0; 5 ] in
  let adversary =
    CG.faulty_with ~as_dealer:(CG.BG.Bad_degree [ 0; 1; 2; 3 ]) faults
  in
  for seed = 1 to 20 do
    match run ~adversary seed with
    | None -> ()
    | Some batch ->
        Alcotest.(check bool) "bad dealer 0 out" false
          (List.mem 0 batch.CG.dealers);
        Alcotest.(check bool) "bad dealer 5 out" false
          (List.mem 5 batch.CG.dealers)
  done

let test_other_fault_bounds () =
  (* The protocol is generic in t; exercise the smallest and a larger
     quorum, with attacks, end to end. *)
  List.iter
    (fun (t', seeds) ->
      let n' = (6 * t') + 1 in
      let g = Prng.of_int (400 + t') in
      List.iter
        (fun seed ->
          let faults = Net.Faults.random g ~n:n' ~t:t' in
          let adversary =
            CG.faulty_with ~as_dealer:(CG.BG.Bad_degree [ 0 ])
              ~as_ba:(Phase_king.Fixed false) faults
          in
          match
            CG.run ~adversary ~prng:(Prng.of_int (seed * 3))
              ~oracle:(ideal_oracle (seed + 600))
              ~n:n' ~t:t' ~m:2 ()
          with
          | None -> ()
          | Some batch ->
              Alcotest.(check bool) "clique size" true
                (List.length batch.CG.dealers >= n' - (2 * t'));
              let coin = CG.coin batch 0 in
              let values = CE.run coin in
              List.iter
                (fun i ->
                  Alcotest.(check bool) "honest decode" true
                    (values.(i) <> None))
                (Net.Faults.honest faults))
        seeds)
    [ (1, [ 1; 2; 3; 4 ]); (3, [ 1; 2 ]) ]

(* Known answers for step 10 (conditions i-iii and the trusted matrix)
   under adversaries that push it off the all-honest path. Each digest
   covers everything step 10 decides: the agreed dealers, every
   player's trusted row, the summed shares, the BA iterations and the
   seed coins consumed. *)
let batch_digest = function
  | None -> "no batch"
  | Some b ->
      let buf = Buffer.create 1024 in
      List.iter (Printf.bprintf buf "%d,") b.CG.dealers;
      Buffer.add_char buf '|';
      Array.iter
        (Array.iter (fun ok -> Buffer.add_char buf (if ok then '1' else '0')))
        b.CG.trusted;
      Buffer.add_char buf '|';
      Array.iter
        (Array.iter (fun x -> Printf.bprintf buf "%s," (F.to_string x)))
        b.CG.shares;
      Printf.bprintf buf "|%d|%d" b.CG.ba_iterations b.CG.seed_coins_consumed;
      Digest.to_hex (Digest.string (Buffer.contents buf))

(* [faulty_with] silences every other sub-protocol; these cases vary one
   behaviour and keep the rest honest. *)
let faulty_only ?(as_dealer = CG.BG.Honest_dealer) ?(as_gamma = CG.Honest_vec)
    ?(as_gradecast_dealer = Gradecast.Dealer_honest) faulty =
  CG.faulty_with ~as_dealer ~as_gamma ~as_gradecast_dealer
    ~as_gradecast_follower:Gradecast.Follower_honest ~as_ba:Phase_king.Honest
    (Net.Faults.make ~n ~faulty)

(* Seed coins for the faulty-leader case: the check coin, then zero,
   whose leader index is 0, so the first leader drawn is player 0. *)
let leader_zero_oracle seed =
  let rest = ideal_oracle seed in
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls = 2 then F.zero else rest ()

let known_answer_cases =
  let some_trusted_false b =
    Array.exists (Array.exists not) (Option.get b).CG.trusted
  in
  [
    (* Dealer 0 deals its own share off its polynomial: its dealing
       decodes through Berlekamp-Welch with player 0 outside the
       support, and it stays in the clique, so no player trusts 0. *)
    ( "Inconsistent_to dealer (partial support via Berlekamp-Welch)",
      (fun () ->
        run ~adversary:(faulty_only ~as_dealer:(CG.BG.Inconsistent_to [ 0 ]) [ 0 ]) 11),
      some_trusted_false,
      "58f01eb8ccae3eb130c06563e12980e3" );
    ( "Bad_degree dealers (rejected dealings)",
      (fun () ->
        run
          ~adversary:
            (faulty_only ~as_dealer:(CG.BG.Bad_degree [ 0; 1; 2; 3 ]) [ 0; 5 ])
          12),
      (fun b -> not (List.mem 0 (Option.get b).CG.dealers)),
      "12533283e8f945277e39917cdba87f8c" );
    ( "Arbitrary_vec gammas",
      (fun () ->
        let vec dst =
          Array.init n (fun j ->
              if (dst + j) mod 3 = 0 then None else Some (F.of_int ((dst * n) + j + 1)))
        in
        run ~adversary:(faulty_only ~as_gamma:(CG.Arbitrary_vec vec) [ 2; 11 ]) 13),
      some_trusted_false,
      "7e0c82461f0c15a421db5ec977981048" );
    ( "zero-secrets batch with a non-zero dealer",
      (fun () ->
        let faulty = faulty_only [ 4 ] in
        let adversary =
          {
            faulty with
            CG.as_dealer =
              (fun i -> if i = 4 then CG.BG.Honest_dealer else CG.BG.Honest_zero_dealer);
          }
        in
        CG.run ~adversary ~zero_secrets:true ~prng:(Prng.of_int 14)
          ~oracle:(ideal_oracle 1014) ~n ~t ~m ()),
      (fun b -> not (List.mem 4 (Option.get b).CG.dealers)),
      "993bb6e2e93680eab16be1ac8051e874" );
    ( "faulty leader gradecasts polynomials nobody decoded",
      (fun () ->
        let fake =
          {
            CG.clique = List.init n Fun.id;
            polys =
              List.init n (fun k ->
                  (k, Array.init (t + 1) (fun d -> F.of_int ((7 * k) + d + 1))));
          }
        in
        CG.run
          ~adversary:
            (faulty_only
               ~as_gradecast_dealer:(Gradecast.Dealer_equivocate (fun _ -> Some fake))
               [ 0; 6 ])
          ~prng:(Prng.of_int 15) ~oracle:(leader_zero_oracle 1015) ~n ~t ~m ()),
      (fun b -> (Option.get b).CG.ba_iterations >= 2),
      "cece872705b96eefd5ca0ed0d69ca101" );
  ]

let test_step10_known_answers () =
  List.iter
    (fun (name, run_case, exercised, expected) ->
      let batch = run_case () in
      Alcotest.(check string) name expected (batch_digest batch);
      Alcotest.(check bool) (name ^ ": exercises its path") true (exercised batch))
    known_answer_cases

(* Known answers over GF(2^32), the field of every perfbench workload,
   at the pool-refill shape (n = 13, t = 2, M = 32) and a beacon-like
   one (n = 7, t = 1, M = 64): per case the MD5 of the accepted batch
   (dealers, shares, trusted, BA iterations, seed coins) and the exact
   Metrics vector of the run. The carry-less field runs the raw
   [horner] and [dot] kernels, so these pin that the kernels and the
   in-place rounds deal, combine, decode, gradecast and agree to the
   bit, with the ticks the paper charges. Each case runs once uncounted
   first, so plan construction is not in the counted run. Players 0
   and 7 (n = 13) or 0 (n = 7) misbehave as the case says; the others
   are honest. *)
module F32 = Gf2k.GF32
module CG32 = Coin_gen.Make (F32)

let digest32 = function
  | None -> "no batch"
  | Some b ->
      let buf = Buffer.create 4096 in
      List.iter (Printf.bprintf buf "%d,") b.CG32.dealers;
      Buffer.add_char buf '|';
      Array.iter
        (Array.iter (fun ok -> Buffer.add_char buf (if ok then '1' else '0')))
        b.CG32.trusted;
      Buffer.add_char buf '|';
      Array.iter
        (Array.iter (fun x -> Printf.bprintf buf "%s," (F32.to_string x)))
        b.CG32.shares;
      Printf.bprintf buf "|%d|%d" b.CG32.ba_iterations
        b.CG32.seed_coins_consumed;
      Digest.to_hex (Digest.string (Buffer.contents buf))

let metrics_string s =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Metrics.to_row s))

(* The check coin first, then zero: the first leader drawn is player 0. *)
let oracle32 seed =
  let g = Prng.of_int seed in
  let calls = ref 0 in
  fun () ->
    incr calls;
    Metrics.without_counting (fun () ->
        if !calls = 2 then F32.zero else F32.random g)

let kat32_cases ~n ~t =
  let faulty = if n = 13 then [ 0; 7 ] else [ 0 ] in
  let faults = Net.Faults.make ~n ~faulty in
  let adversary ?(as_dealer = CG32.BG.Honest_dealer) ?(as_gamma = CG32.Honest_vec)
      ?(as_gradecast_dealer = Gradecast.Dealer_honest)
      ?(as_gradecast_follower = Gradecast.Follower_honest)
      ?(as_ba = Phase_king.Honest) () =
    CG32.faulty_with ~as_dealer ~as_gamma ~as_gradecast_dealer
      ~as_gradecast_follower ~as_ba faults
  in
  (* A payload nobody decoded, built afresh per call so echoes compare
     structurally, not physically. *)
  let fake () =
    {
      CG32.clique = List.init n Fun.id;
      polys =
        List.init n (fun k ->
            (k, Array.init (t + 1) (fun d -> F32.of_int ((7 * k) + d + 1))));
    }
  in
  let honest_zero i =
    if List.mem i faulty then CG32.BG.Honest_dealer else CG32.BG.Honest_zero_dealer
  in
  [
    ("honest", adversary (), false);
    ("Bad_degree", adversary ~as_dealer:(CG32.BG.Bad_degree [ 0; 1; 5 ]) (), false);
    ( "Inconsistent_to",
      adversary ~as_dealer:(CG32.BG.Inconsistent_to [ 1; 2 ]) (),
      false );
    ("Silent_dealer", adversary ~as_dealer:CG32.BG.Silent_dealer (), false);
    ( "Honest_zero_dealer, zero_secrets",
      { (adversary ()) with CG32.as_dealer = honest_zero },
      true );
    ( "Arbitrary_vec",
      adversary
        ~as_gamma:
          (CG32.Arbitrary_vec
             (fun dst ->
               Array.init n (fun j ->
                   if (dst + j) mod 3 = 0 then None
                   else Some (F32.of_int ((dst * n) + j + 1)))))
        (),
      false );
    ( "Dealer_equivocate",
      adversary
        ~as_gradecast_dealer:
          (Gradecast.Dealer_equivocate
             (fun dst -> if dst mod 2 = 0 then Some (fake ()) else None))
        (),
      false );
    ( "Follower_arbitrary",
      adversary
        ~as_gradecast_follower:
          (Gradecast.Follower_arbitrary
             (fun ~round ~dst ->
               if (round + dst) mod 3 = 0 then None else Some (fake ())))
        (),
      false );
    ( "Phase_king.Arbitrary",
      adversary
        ~as_ba:
          (Phase_king.Arbitrary
             (fun ~phase ~round ~dst ->
               if (phase + round + dst) mod 3 = 0 then None
               else Some ((dst + phase) mod 2 = 0)))
        (),
      false );
  ]

let kat32_run ~n ~t ~m (name, adversary, zero_secrets) =
  let go () =
    CG32.run ~adversary ~zero_secrets ~prng:(Prng.of_int (n + m))
      ~oracle:(oracle32 (1000 + n)) ~n ~t ~m ()
  in
  ignore (go ());
  let batch, snap = Metrics.with_counting go in
  Printf.sprintf "n=%d %s: %s %s" n name (digest32 batch) (metrics_string snap)

let kat32_expected =
  [
    "n=13 honest: 3dd426834c54c669e8bb4ba1285cfd7e"
    ^ " adds=28054 mults=22815 invs=0 interps=169 msgs=1284 bytes=1031976 rounds=11 ba=1 gradecast=13";
    "n=13 Bad_degree: f66986a36aa3cb20c3195cc257b45882"
    ^ " adds=106676 mults=130169 invs=858 interps=195 msgs=1284 bytes=728712 rounds=11 ba=1 gradecast=13";
    "n=13 Inconsistent_to: 7cf64093e6ca818fbc27ab7cd6d82b87"
    ^ " adds=58136 mults=62855 invs=286 interps=195 msgs=1284 bytes=728712 rounds=11 ba=1 gradecast=13";
    "n=13 Silent_dealer: 20b6f4173bc95299327c30ebe999f8db"
    ^ " adds=22906 mults=19305 invs=0 interps=143 msgs=1260 bytes=724344 rounds=11 ba=1 gradecast=13";
    "n=13 Honest_zero_dealer, zero_secrets: 6c8dd24ca0cbab232ef31b4f0410f720"
    ^ " adds=26728 mults=23153 invs=0 interps=169 msgs=1284 bytes=728712 rounds=11 ba=1 gradecast=13";
    "n=13 Arbitrary_vec: 56bd68a38614c3884585f5be87e26ec3"
    ^ " adds=203252 mults=247919 invs=1688 interps=281 msgs=1284 bytes=728292 rounds=11 ba=1 gradecast=13";
    "n=13 Dealer_equivocate: a6ac2ddce44989a0899835024e5b0838"
    ^ " adds=28054 mults=22815 invs=0 interps=169 msgs=1788 bytes=921334 rounds=17 ba=2 gradecast=13";
    "n=13 Follower_arbitrary: 3dd426834c54c669e8bb4ba1285cfd7e"
    ^ " adds=28054 mults=22815 invs=0 interps=169 msgs=1284 bytes=982472 rounds=11 ba=1 gradecast=13";
    "n=13 Phase_king.Arbitrary: 3dd426834c54c669e8bb4ba1285cfd7e"
    ^ " adds=28054 mults=22815 invs=0 interps=169 msgs=1256 bytes=1031948 rounds=11 ba=1 gradecast=13";
    "n=7 honest: 1e4645fa1b33ccd38931e2046e4429cc"
    ^ " adds=10045 mults=6958 invs=0 interps=49 msgs=306 bytes=76494 rounds=9 ba=1 gradecast=7";
    "n=7 Bad_degree: 14ab5781416b23cd8d06bc8cea710530"
    ^ " adds=10852 mults=9660 invs=63 interps=56 msgs=306 bytes=58854 rounds=9 ba=1 gradecast=7";
    "n=7 Inconsistent_to: b24f1a51658426dda16eda5522d9397d"
    ^ " adds=10409 mults=8813 invs=49 interps=56 msgs=306 bytes=58854 rounds=9 ba=1 gradecast=7";
    "n=7 Silent_dealer: be95b33ec3d07a0b5a555bf06f492df3"
    ^ " adds=8162 mults=5964 invs=0 interps=42 msgs=300 bytes=57138 rounds=9 ba=1 gradecast=7";
    "n=7 Honest_zero_dealer, zero_secrets: cba067764fcaf325ffaacf6a832f80cc"
    ^ " adds=9198 mults=7007 invs=0 interps=49 msgs=306 bytes=58854 rounds=9 ba=1 gradecast=7";
    "n=7 Arbitrary_vec: f37b082cf89ccce632af098b17084dbd"
    ^ " adds=16552 mults=18234 invs=277 interps=81 msgs=306 bytes=58798 rounds=9 ba=1 gradecast=7";
    "n=7 Dealer_equivocate: 0a1def306aab2d8c345b5175642067f5"
    ^ " adds=10045 mults=6958 invs=0 interps=49 msgs=402 bytes=70164 rounds=13 ba=2 gradecast=7";
    "n=7 Follower_arbitrary: 1e4645fa1b33ccd38931e2046e4429cc"
    ^ " adds=10045 mults=6958 invs=0 interps=49 msgs=306 bytes=73638 rounds=9 ba=1 gradecast=7";
    "n=7 Phase_king.Arbitrary: 1e4645fa1b33ccd38931e2046e4429cc"
    ^ " adds=10045 mults=6958 invs=0 interps=49 msgs=300 bytes=76488 rounds=9 ba=1 gradecast=7";
  ]

let test_gf32_known_answers () =
  let got =
    List.concat_map
      (fun (n, t, m) -> List.map (kat32_run ~n ~t ~m) (kat32_cases ~n ~t))
      [ (13, 2, 32); (7, 1, 64) ]
  in
  Alcotest.(check (list string)) "GF(2^32) batches and counts" kat32_expected got

let suite =
  [
    Alcotest.test_case "other fault bounds" `Quick test_other_fault_bounds;
    Alcotest.test_case "honest run completes" `Quick test_honest_run_completes;
    Alcotest.test_case "coins expose unanimously" `Quick
      test_coins_expose_unanimously;
    Alcotest.test_case "coin exposure deterministic" `Quick
      test_coin_exposure_deterministic;
    Alcotest.test_case "Lemma 7 under attacks" `Quick test_lemma7_under_attacks;
    Alcotest.test_case "unanimity under attacks" `Quick
      test_unanimity_under_attacks;
    Alcotest.test_case "Lemma 8 iterations" `Quick test_lemma8_iterations;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "leader index range" `Quick test_leader_index_range;
    Alcotest.test_case "bad dealers excluded" `Quick
      test_bad_dealers_excluded_or_pinned;
    Alcotest.test_case "step 10 known answers" `Quick test_step10_known_answers;
    Alcotest.test_case "GF(2^32) known answers" `Quick test_gf32_known_answers;
  ]
