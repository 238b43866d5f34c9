(* Direct tests for Gradecast.run_all — the parallel composition
   Coin-Gen step 7 uses. Properties must hold per dealer slot. *)

let run_all ?dealer_behavior ?follower_behavior ~n ~t values =
  Gradecast.run_all ?dealer_behavior ?follower_behavior ~equal:String.equal
    ~byte_size:String.length ~n ~t
    ~values:(fun i -> values.(i))
    ()

let test_all_honest () =
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let outcomes = run_all ~n ~t values in
  Array.iteri
    (fun _receiver per_dealer ->
      Array.iteri
        (fun d o ->
          Alcotest.(check (option string)) "value" (Some values.(d))
            o.Gradecast.value;
          Alcotest.(check int) "confidence" 2 o.Gradecast.confidence)
        per_dealer)
    outcomes

let test_rounds_shared () =
  let n = 7 and t = 2 in
  let values = Array.init n string_of_int in
  let (), snap = Metrics.with_counting (fun () -> ignore (run_all ~n ~t values)) in
  Alcotest.(check int) "three rounds for all n casts" 3 snap.Metrics.rounds;
  Alcotest.(check int) "n gradecasts ticked" n snap.Metrics.gradecasts

let test_mixed_dealers () =
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let dealer_behavior d =
    if d = 3 then Gradecast.Dealer_silent
    else if d = 5 then
      Gradecast.Dealer_equivocate
        (fun dst -> if dst mod 2 = 0 then Some "x" else Some "y")
    else Gradecast.Dealer_honest
  in
  let outcomes = run_all ~dealer_behavior ~n ~t values in
  Array.iter
    (fun per_dealer ->
      (* Honest dealers' slots unaffected by the faulty ones. *)
      List.iter
        (fun d ->
          Alcotest.(check (option string)) "honest slot value" (Some values.(d))
            per_dealer.(d).Gradecast.value;
          Alcotest.(check int) "honest slot conf" 2
            per_dealer.(d).Gradecast.confidence)
        [ 0; 1; 2; 4; 6 ];
      (* Silent dealer: everyone at confidence 0. *)
      Alcotest.(check int) "silent slot conf" 0 per_dealer.(3).Gradecast.confidence)
    outcomes

(* The per-slot graded-agreement property under arbitrary faulty
   followers and dealers. *)
let prop_run_all_soundness =
  QCheck.Test.make ~count:200 ~name:"run_all graded agreement per slot"
    QCheck.(pair int (int_range 1 3))
    (fun (seed, t) ->
      let g = Prng.of_int seed in
      let n = (3 * t) + 1 + Prng.int g 3 in
      let faults = Net.Faults.random g ~n ~t in
      let values = Array.init n (fun i -> Printf.sprintf "v%d" i) in
      let lies = [| "a"; "b"; "c" |] in
      let dealer_behavior d =
        if Net.Faults.is_honest faults d then Gradecast.Dealer_honest
        else
          let noise =
            Array.init n (fun _ ->
                if Prng.bool g then Some lies.(Prng.int g 3) else None)
          in
          Gradecast.Dealer_equivocate (fun dst -> noise.(dst))
      in
      let follower_behavior i =
        if Net.Faults.is_honest faults i then Gradecast.Follower_honest
        else
          match Prng.int g 3 with
          | 0 -> Gradecast.Follower_silent
          | 1 -> Gradecast.Follower_fixed lies.(Prng.int g 3)
          | _ ->
              let table =
                Array.init 2 (fun _ ->
                    Array.init n (fun _ ->
                        if Prng.bool g then Some lies.(Prng.int g 3) else None))
              in
              Gradecast.Follower_arbitrary (fun ~round ~dst -> table.(round - 2).(dst))
      in
      let outcomes = run_all ~dealer_behavior ~follower_behavior ~n ~t values in
      let honest = Net.Faults.honest faults in
      List.for_all
        (fun d ->
          let slot = List.map (fun i -> outcomes.(i).(d)) honest in
          let conf1_values =
            List.filter_map
              (fun o ->
                if o.Gradecast.confidence >= 1 then o.Gradecast.value else None)
              slot
          in
          let has_conf2 = List.exists (fun o -> o.Gradecast.confidence = 2) slot in
          let all_equal = function
            | [] -> true
            | v :: rest -> List.for_all (String.equal v) rest
          in
          (* Honest dealer slots: everyone at (value, 2). *)
          (if Net.Faults.is_honest faults d then
             List.for_all
               (fun o ->
                 o.Gradecast.confidence = 2 && o.Gradecast.value = Some values.(d))
               slot
           else true)
          && all_equal conf1_values
          && ((not has_conf2) || List.length conf1_values = List.length slot))
        (List.init n Fun.id))

(* The quadratic tally [best_supported] replaced — every element
   counted against the whole list — kept as its reference. *)
let best_supported_reference ~equal received =
  let rec count v = function
    | [] -> 0
    | w :: rest -> (if equal v w then 1 else 0) + count v rest
  in
  let rec scan best best_count = function
    | [] -> (best, best_count)
    | v :: rest ->
        let c = count v received in
        if c > best_count then scan (Some v) c rest else scan best best_count rest
  in
  scan None 0 received

(* Keys from a tiny alphabet make duplicates and tied maxima common;
   each element also carries its position, which [equal] ignores, so
   the result shows which of the equal elements a tie resolved to. *)
let prop_best_supported_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"best_supported = quadratic tally (ties too)"
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 4))
    (fun keys ->
      let items = List.mapi (fun pos key -> (key, pos)) keys in
      let equal (a, _) (b, _) = a = b in
      Gradecast.best_supported ~equal items
      = best_supported_reference ~equal items)

(* The in-place slot tally [run_all] grades with, against
   [best_supported] over the same echoes listed. Each case is a matrix
   of echo vectors (rows) by slots: an entry is absent or a key from a
   tiny alphabet tagged with its row, which [equal] ignores, so ties
   are common and the result shows which equal entry won. Some rows
   repeat one key in every slot, others vary it by slot, as an
   equivocating follower does; only a prefix of the rows may be read,
   as when the scratch outgrew the round. *)
let prop_tally_matches_best_supported =
  QCheck.Test.make ~count:500 ~name:"in-place slot tally = best_supported"
    QCheck.(triple int (int_range 0 16) (int_range 1 5))
    (fun (seed, rows, slots) ->
      let g = Prng.of_int seed in
      let echoes =
        Array.init rows (fun row ->
            let fixed = Prng.int g 3 in
            Array.init slots (fun slot ->
                if Prng.int g 4 = 0 then None
                else if Prng.bool g then Some (fixed, row)
                else Some ((Prng.int g 3 + slot) mod 3, row)))
      in
      let len = if rows > 0 && Prng.bool g then Prng.int g rows else rows in
      let equal (a, _) (b, _) = a = b in
      List.for_all
        (fun slot ->
          let listed =
            List.filter_map
              (fun row -> echoes.(row).(slot))
              (List.init len Fun.id)
          in
          let winner = ref 0 in
          let support = Gradecast.tally_slot ~equal echoes ~len ~slot winner in
          let value = if !winner < 0 then None else echoes.(!winner).(slot) in
          (value, support) = Gradecast.best_supported ~equal listed)
        (List.init slots Fun.id))

let suite =
  [
    Alcotest.test_case "all honest" `Quick test_all_honest;
    Alcotest.test_case "rounds shared" `Quick test_rounds_shared;
    Alcotest.test_case "mixed dealers" `Quick test_mixed_dealers;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_run_all_soundness;
        prop_best_supported_matches_reference;
        prop_tally_matches_best_supported;
      ]
