module F = Gf2k.GF32
module C = Sealed_coin.Make (F)
module CE = Coin_expose.Make (F)

let n = 7
let t = 1

let test_dealer_coin_exposes_to_truth () =
  let g = Prng.of_int 1 in
  for _ = 1 to 30 do
    let coin = C.dealer_coin g ~n ~t in
    let truth = Option.get (C.ground_truth coin) in
    let values = CE.run coin in
    Array.iter
      (fun v ->
        match v with
        | Some x -> Alcotest.(check bool) "matches truth" true (F.equal x truth)
        | None -> Alcotest.fail "decode failed")
      values
  done

let test_unanimity_under_lying_senders () =
  let g = Prng.of_int 2 in
  for _ = 1 to 50 do
    let coin = C.dealer_coin g ~n ~t in
    let truth = Option.get (C.ground_truth coin) in
    let liars = Prng.sample_distinct g t n in
    let behavior i =
      if List.mem i liars then
        match Prng.int g 3 with
        | 0 -> CE.Silent
        | 1 -> CE.Send (F.random g)
        | _ ->
            let noise = Array.init n (fun _ -> if Prng.bool g then Some (F.random g) else None) in
            CE.Equivocate (fun dst -> noise.(dst))
      else CE.Honest
    in
    let values = CE.run ~sender_behavior:behavior coin in
    (* Honest players (everyone outside liars) must all decode truth. *)
    List.iter
      (fun i ->
        if not (List.mem i liars) then
          match values.(i) with
          | Some x ->
              Alcotest.(check bool) "honest decode = truth" true (F.equal x truth)
          | None -> Alcotest.fail "honest decode failed")
      (List.init n Fun.id)
  done

let test_expose_bit_is_lsb () =
  let g = Prng.of_int 3 in
  let coin = C.dealer_coin g ~n ~t in
  let truth = Option.get (C.ground_truth coin) in
  let bits = CE.expose_bit coin in
  Array.iter
    (fun b ->
      Alcotest.(check (option bool)) "lsb" (Some (F.lsb truth = 1)) b)
    bits

let test_trusted_restriction () =
  (* A coin whose trusted matrix excludes two senders still decodes,
     because enough trusted honest senders remain. *)
  let g = Prng.of_int 4 in
  let base = C.dealer_coin g ~n ~t in
  let trusted = Array.init n (fun _ -> Array.init n (fun j -> j > 1)) in
  let coin = { base with C.trusted = Some trusted } in
  let truth = Option.get (C.ground_truth base) in
  let values = CE.run coin in
  Array.iter
    (fun v ->
      match v with
      | Some x -> Alcotest.(check bool) "decodes" true (F.equal x truth)
      | None -> Alcotest.fail "decode failed")
    values

let test_expose_cost_profile () =
  let g = Prng.of_int 5 in
  let coin = C.dealer_coin g ~n ~t in
  let _, snap = Metrics.with_counting (fun () -> ignore (CE.run coin)) in
  Alcotest.(check int) "n(n-1) messages" (n * (n - 1)) snap.Metrics.messages;
  Alcotest.(check int) "one round" 1 snap.Metrics.rounds;
  Alcotest.(check int) "one interpolation per player" n
    snap.Metrics.interpolations

let test_coin_is_uniformish () =
  (* Chi-square over the low nibble of exposures of fresh dealer coins. *)
  let g = Prng.of_int 6 in
  let buckets = Array.make 16 0 in
  let trials = 3200 in
  for _ = 1 to trials do
    let coin = C.dealer_coin g ~n ~t in
    match (CE.run coin).(0) with
    | Some v ->
        let b = F.hash v land 15 in
        buckets.(b) <- buckets.(b) + 1
    | None -> Alcotest.fail "decode failed"
  done;
  let expected = float_of_int trials /. 16.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f" chi2) true (chi2 < 60.0)

(* ------------- The in-place round against the list path ------------- *)

(* On a pristine net the exposure round is read from the net's store;
   an empty fault plan, which never samples a fault, forces the same
   round onto the list queues. Across mixes of honest, silent, lying and
   equivocating senders and coins with untrusted rows, both must give
   the same decoded values, Metrics, trace and ledger evidence — with
   and without a ledger installed, counted and traced. A quarantining
   ledger carried across several exposures also exercises the exclusion
   mask. *)
let scenario_behavior g ~n ~t kind =
  let liars = Prng.sample_distinct g t n in
  let noise = Array.init n (fun _ -> if Prng.bool g then Some (F.random g) else None) in
  let lie = F.random g in
  fun i ->
    if not (List.mem i liars) then CE.Honest
    else
      match (kind + i) mod 4 with
      | 0 -> CE.Silent
      | 1 -> CE.Send lie
      | 2 -> CE.Equivocate (fun dst -> noise.(dst))
      | _ -> CE.Equivocate (fun dst -> if dst = i then None else Some lie)

let scenario_coins ~n ~t seed =
  let g = Prng.of_int seed in
  List.init 4 (fun kind ->
      let coin = C.dealer_coin g ~n ~t in
      let coin =
        if kind < 2 then coin
        else
          (* Every player distrusts one or two senders of its own. *)
          let trusted =
            Array.init n (fun i ->
                Array.init n (fun j -> j <> (i + kind) mod n && j <> (i * 3) mod n))
          in
          { coin with C.trusted = Some trusted }
      in
      let behavior = if kind = 0 then fun _ -> CE.Honest else scenario_behavior g ~n ~t kind in
      (coin, behavior))

let expose_all ~ledger coins =
  let run () =
    List.map (fun (coin, behavior) -> CE.run ~sender_behavior:behavior coin) coins
  in
  match ledger with None -> run () | Some l -> Sentinel.with_ledger l run

let value_list = Alcotest.(list (array (option int)))
let as_ints = List.map (Array.map (Option.map F.repr))

let test_store_matches_list_path () =
  let list_path f = Transport.with_plan (Transport.Plan.make ~seed:9 ()) f in
  List.iter
    (fun (n, t) ->
      for seed = 1 to 6 do
        let tag = Printf.sprintf "n=%d t=%d seed=%d" n t seed in
        let coins = scenario_coins ~n ~t seed in
        let ledger () = Sentinel.Ledger.create ~config:(Sentinel.active ~threshold:2 ()) ~n () in
        (* Bare: the unobserved fast path. *)
        let dense = expose_all ~ledger:None coins in
        let listed = list_path (fun () -> expose_all ~ledger:None coins) in
        Alcotest.check value_list (tag ^ ": values") (as_ints listed) (as_ints dense);
        (* Ledgered: evidence and quarantine. *)
        let l1 = ledger () and l2 = ledger () in
        let dense = expose_all ~ledger:(Some l1) coins in
        let listed = list_path (fun () -> expose_all ~ledger:(Some l2) coins) in
        Alcotest.check value_list (tag ^ ": ledgered values") (as_ints listed) (as_ints dense);
        Alcotest.(check (array (array int)))
          (tag ^ ": evidence") (Sentinel.Ledger.dump l2) (Sentinel.Ledger.dump l1);
        (* Counted and traced, with a ledger. *)
        let l1 = ledger () and l2 = ledger () in
        let dense, m1 = Metrics.with_counting (fun () -> expose_all ~ledger:(Some l1) coins) in
        let listed, m2 =
          list_path (fun () -> Metrics.with_counting (fun () -> expose_all ~ledger:(Some l2) coins))
        in
        Alcotest.check value_list (tag ^ ": counted values") (as_ints listed) (as_ints dense);
        Alcotest.(check bool) (tag ^ ": Metrics") true (m1 = m2);
        let l1 = ledger () and l2 = ledger () in
        let dense, t1 = Trace.collect (fun () -> expose_all ~ledger:(Some l1) coins) in
        let listed, t2 =
          list_path (fun () -> Trace.collect (fun () -> expose_all ~ledger:(Some l2) coins))
        in
        Alcotest.check value_list (tag ^ ": traced values") (as_ints listed) (as_ints dense);
        Alcotest.(check string) (tag ^ ": trace")
          (Fmt.str "%a" Trace.pp_jsonl t2) (Fmt.str "%a" Trace.pp_jsonl t1);
        Alcotest.(check (array (array int)))
          (tag ^ ": traced evidence") (Sentinel.Ledger.dump l2) (Sentinel.Ledger.dump l1)
      done)
    [ (n, t); (13, 2) ]

(* Fig. 6 charges one exposure a round of n^2 messages and one
   interpolation per player; read in place, an honest n = 13 exposure
   allocates a bounded number of minor words, with or without a ledger
   (the list round alone allocated about 3,000). *)
let test_exposure_allocation () =
  let n = 13 and t = 2 in
  let coin = C.dealer_coin (Prng.of_int 1313) ~n ~t in
  let ledger = Sentinel.Ledger.create ~config:Sentinel.passive ~n () in
  let words label f =
    ignore (f ());
    Gc.minor ();
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let used = Gc.minor_words () -. before in
    if used > 1000.0 then
      Alcotest.failf "%s: an honest n=13 exposure allocated %.0f words (> 1000)" label used
  in
  words "no ledger" (fun () -> CE.run coin);
  words "passive ledger" (fun () -> Sentinel.with_ledger ledger (fun () -> CE.run coin))

(* Known answers for the Lagrange ablation: the MD5 of every player's
   result under four sender mixes (honest, one silent, one liar sending
   a constant, one equivocator) at n = 7 and n = 13. The faulty senders
   sit among the lowest ids, so they fall inside the first t + 1
   trusted shares the ablation interpolates through. *)
let test_lagrange_known_answers () =
  let mixes =
    [
      None;
      Some (fun i -> if i = 0 then CE.Silent else CE.Honest);
      Some (fun i -> if i = 1 then CE.Send F.one else CE.Honest);
      Some
        (fun i ->
          if i = 0 then
            CE.Equivocate
              (fun dst -> if dst mod 2 = 0 then Some F.one else None)
          else CE.Honest);
    ]
  in
  List.iter
    (fun (n, t, seed, expected) ->
      let coin = C.dealer_coin (Prng.of_int seed) ~n ~t in
      let buf = Buffer.create 256 in
      List.iter
        (fun sender_behavior ->
          Array.iter
            (function
              | None -> Buffer.add_string buf "-;"
              | Some v ->
                  Buffer.add_string buf (Printf.sprintf "%d;" (F.repr v)))
            (CE.run_lagrange ?sender_behavior coin);
          Buffer.add_char buf '|')
        mixes;
      Alcotest.(check string)
        (Printf.sprintf "n=%d results" n)
        expected
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      (7, 1, 707, "4c7c97a4507276d2fa501825cbdedfc5");
      (13, 2, 1313, "5f96e6bd3a4a1657e589feaef0b9d16a");
    ]

let suite =
  [
    Alcotest.test_case "dealer coin exposes to truth" `Quick
      test_dealer_coin_exposes_to_truth;
    Alcotest.test_case "unanimity under lying senders" `Quick
      test_unanimity_under_lying_senders;
    Alcotest.test_case "expose_bit is lsb" `Quick test_expose_bit_is_lsb;
    Alcotest.test_case "trusted restriction" `Quick test_trusted_restriction;
    Alcotest.test_case "expose cost profile" `Quick test_expose_cost_profile;
    Alcotest.test_case "coin value uniform-ish" `Quick test_coin_is_uniformish;
    Alcotest.test_case "in-place round = list path" `Quick
      test_store_matches_list_path;
    Alcotest.test_case "honest n=13 exposure allocates <= 1000 words" `Quick
      test_exposure_allocation;
    Alcotest.test_case "run_lagrange known answers" `Quick
      test_lagrange_known_answers;
  ]
