let test_deterministic () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_split_independence () =
  let g = Prng.of_int 7 in
  let a = Prng.split g and b = Prng.split g in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "split streams differ" true !differs

let test_copy_replays () =
  let g = Prng.of_int 3 in
  ignore (Prng.next_int64 g);
  let c = Prng.copy g in
  Alcotest.(check int64) "copy replays" (Prng.next_int64 g) (Prng.next_int64 c)

let test_int_bounds () =
  let g = Prng.of_int 11 in
  for _ = 1 to 2000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_covers_range () =
  let g = Prng.of_int 13 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.int g 8) <- true
  done;
  Alcotest.(check bool) "all 8 values seen" true (Array.for_all Fun.id seen)

let test_bits_width () =
  let g = Prng.of_int 17 in
  for w = 0 to 62 do
    let v = Prng.bits g w in
    Alcotest.(check bool)
      (Printf.sprintf "bits %d in range" w)
      true
      (v >= 0 && (w = 62 || v < 1 lsl w))
  done

let test_bool_balanced () =
  let g = Prng.of_int 19 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bool g then incr trues
  done;
  (* 5 sigma around n/2. *)
  let dev = abs (!trues - (n / 2)) in
  Alcotest.(check bool) "roughly balanced" true (dev < 250)

let test_sample_distinct () =
  let g = Prng.of_int 23 in
  List.iter
    (fun (m, bound) ->
      let s = Prng.sample_distinct g m bound in
      Alcotest.(check int) "cardinality" m (List.length s);
      Alcotest.(check int) "distinct" m (List.length (List.sort_uniq compare s));
      List.iter
        (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < bound))
        s;
      Alcotest.(check bool) "sorted" true (List.sort compare s = s))
    [ (0, 5); (3, 100); (5, 5); (7, 10); (50, 60) ]

let test_shuffle_permutes () =
  let g = Prng.of_int 29 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* Rejection sampling must stay uniform at bounds that are not powers
   of two — the biased-modulo mistake shows up exactly there. Pearson
   chi-square against the uniform law, with a generous threshold:
   E[chi2] = b - 1, Var = 2(b - 1), and we allow 6 sigma plus slack. *)
let test_int_uniform_non_power_of_two () =
  let g = Prng.of_int 37 in
  List.iter
    (fun bound ->
      let per_bucket = 2000 in
      let n = per_bucket * bound in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let v = Prng.int g bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int per_bucket in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0.0 counts
      in
      let df = float_of_int (bound - 1) in
      let threshold = df +. (6.0 *. sqrt (2.0 *. df)) +. 10.0 in
      Alcotest.(check bool)
        (Printf.sprintf "chi2 %.1f <= %.1f at bound %d" chi2 threshold bound)
        true (chi2 <= threshold))
    [ 3; 5; 6; 7; 10; 12; 100 ]

(* Drawing from one split stream must not perturb its sibling: the
   sibling produces the same outputs whether or not the first stream
   was consumed in between. *)
let test_split_streams_do_not_interfere () =
  let mk () =
    let g = Prng.of_int 41 in
    let a = Prng.split g in
    let b = Prng.split g in
    (a, b)
  in
  let _, b_quiet = mk () in
  let a, b_noisy = mk () in
  for _ = 1 to 100 do
    ignore (Prng.next_int64 a)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "sibling unaffected" (Prng.next_int64 b_quiet)
      (Prng.next_int64 b_noisy)
  done

(* A copy taken mid-stream replays the original exactly, across the
   whole derived-operation surface, while leaving the source intact. *)
let test_copy_replays_mixed_ops () =
  let drain g =
    let acc = ref [] in
    let push x = acc := x :: !acc in
    for round = 1 to 20 do
      push (Prng.int g (2 + round));
      push (if Prng.bool g then 1 else 0);
      push (Prng.bits g 13);
      let a = Array.init 7 Fun.id in
      Prng.shuffle g a;
      Array.iter push a;
      List.iter push (Prng.sample_distinct g 3 50)
    done;
    !acc
  in
  let g = Prng.of_int 43 in
  ignore (Prng.next_int64 g);
  ignore (Prng.int g 1000);
  let c = Prng.copy g in
  let from_original = drain g in
  let from_copy = drain c in
  Alcotest.(check (list int)) "copy replays every derived op" from_original
    from_copy;
  (* The copy's consumption must not have advanced the original. *)
  let c2 = Prng.copy g in
  Alcotest.(check int64) "original undisturbed by its copies"
    (Prng.next_int64 g) (Prng.next_int64 c2)

let test_split_n () =
  let g = Prng.of_int 31 in
  let gs = Prng.split_n g 5 in
  Alcotest.(check int) "count" 5 (Array.length gs);
  let outs = Array.map Prng.next_int64 gs in
  let distinct =
    List.length (List.sort_uniq Int64.compare (Array.to_list outs))
  in
  Alcotest.(check int) "first outputs distinct" 5 distinct

(* [bools] is [bool] in bulk: the same draws, and the generator left
   where [n] calls of [bool] would leave it. *)
let test_bools_empty () =
  let g = Prng.of_int 12 and h = Prng.of_int 12 in
  Alcotest.(check int) "no draws" 0 (Array.length (Prng.bools g 0));
  Alcotest.(check int64) "state untouched" (Prng.next_int64 h)
    (Prng.next_int64 g)

let prop_bools_matches_bool =
  QCheck.Test.make ~count:300 ~name:"bools equals repeated bool, state included"
    QCheck.(pair int (int_range 0 200))
    (fun (seed, n) ->
      let g = Prng.of_int seed and h = Prng.of_int seed in
      let bulk = Prng.bools g n in
      let one_by_one = Array.init n (fun _ -> Prng.bool h) in
      bulk = one_by_one && Int64.equal (Prng.next_int64 g) (Prng.next_int64 h))

(* Known answers for the draws the fields and protocols are built on:
   [bits] at several widths (0 draws nothing), [bool] and [int] at
   power-of-two and rejection-sampled bounds, all from one stream. The
   values were recorded from the generator as it stood before [bits],
   [bool] and [int] were made allocation-free, so a change to their
   stream fails here. *)
let test_known_answers () =
  let g = Prng.of_int 2718 in
  let bits = List.map (Prng.bits g) [ 1; 7; 13; 32; 62; 0; 32 ] in
  let bools = List.init 8 (fun _ -> if Prng.bool g then 1 else 0) in
  let ints = List.map (Prng.int g) [ 1; 3; 8; 10; 1000; (1 lsl 40) + 7; 97 ] in
  Alcotest.(check (list int)) "bits, bool, int"
    [
      1; 73; 3525; 293917522; 1854106655911558262; 0; 2515568465;
      1; 0; 0; 1; 1; 1; 1; 1;
      0; 0; 7; 5; 870; 785478643246; 1;
    ]
    (bits @ bools @ ints);
  Alcotest.(check int64) "state after" (-1235118079299171508L) (Prng.next_int64 g)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "bits width" `Quick test_bits_width;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "int uniform at non-power-of-two bounds" `Quick
      test_int_uniform_non_power_of_two;
    Alcotest.test_case "split streams do not interfere" `Quick
      test_split_streams_do_not_interfere;
    Alcotest.test_case "copy replays mixed derived ops" `Quick
      test_copy_replays_mixed_ops;
    Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "split_n" `Quick test_split_n;
    Alcotest.test_case "bools of zero draws" `Quick test_bools_empty;
    Alcotest.test_case "bits, bool and int known answers" `Quick
      test_known_answers;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_bools_matches_bool ]
