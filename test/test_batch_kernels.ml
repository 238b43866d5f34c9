(* Differential tests pinning the batch kernels to their reference
   twins: field batch_eval vs per-point Horner, batch dealing vs
   sequential dealing (values, ticks and PRNG stream), bit-sliced wide
   multiplication vs schoolbook, the subset reconstruction's array and
   list entry points vs plain interpolation and the degree check, and
   Coin-Expose [run] vs the list-based [Coin_expose_reference] (values,
   ticks, traces and ledger evidence). *)

module Q97 = Zq_table.Make (struct let q = 97 end)

(* ---- batch_eval = Horner, per field ------------------------------- *)

module Batch_eval_laws (F : Field_intf.S) = struct
  let horner cs x =
    let acc = ref F.zero in
    for i = Array.length cs - 1 downto 0 do
      acc := F.add (F.mul !acc x) cs.(i)
    done;
    !acc

  let check ~name ~polys ~pts =
    match F.batch_eval with
    | None -> ()
    | Some kernel ->
        let out = kernel polys pts in
        Array.iteri
          (fun j cs ->
            Array.iteri
              (fun i x ->
                if not (F.equal out.(j).(i) (horner cs x)) then
                  Alcotest.failf "%s: poly %d at point %d diverges from Horner"
                    name j i)
              pts)
          polys

  let run seed =
    let g = Prng.of_int seed in
    let rand_poly d = Array.init d (fun _ -> F.random g) in
    (* M = 1, points not a power of two *)
    check ~name:"M=1"
      ~polys:[| rand_poly 4 |]
      ~pts:(Array.init 7 (fun _ -> F.random g));
    (* duplicate evaluation points *)
    let x = F.random g in
    check ~name:"dup points"
      ~polys:(Array.init 3 (fun _ -> rand_poly 5))
      ~pts:[| x; x; F.random g; x |];
    (* t = 0: constant polynomials *)
    check ~name:"constants"
      ~polys:(Array.init 4 (fun _ -> rand_poly 1))
      ~pts:(Array.init 5 (fun _ -> F.random g));
    (* the grid shape: consecutive small points, the FD/AP route in
       table fields *)
    check ~name:"AP grid"
      ~polys:(Array.init 6 (fun _ -> rand_poly 4))
      ~pts:(Array.init 13 (fun i -> F.of_int (i + 1)));
    (* mixed degrees: empty vector (zero poly) and trailing zeros *)
    check ~name:"mixed degrees"
      ~polys:
        [|
          [||];
          rand_poly 1;
          rand_poly 8;
          Array.append (rand_poly 3) [| F.zero; F.zero |];
        |]
      ~pts:(Array.init 13 (fun _ -> F.random g))
end

let test_batch_eval_matches_horner () =
  let module B16 = Batch_eval_laws (Gf2k.GF16) in
  let module B64 = Batch_eval_laws (Fft_field.GF_k64) in
  let module BQ = Batch_eval_laws (Q97) in
  let module BW64 = Batch_eval_laws (Gf2_wide.GF64) in
  B16.run 101;
  B64.run 102;
  BQ.run 103;
  BW64.run 104

(* ---- batch dealing = sequential dealing --------------------------- *)

module Deal_laws (F : Field_intf.S) = struct
  module S = Shamir.Make (F)

  let check ~n ~t ~m ~seed =
    let plan = S.grid ~n ~t in
    let gs = Prng.of_int (seed + 1) in
    let secrets = Array.init m (fun _ -> F.random gs) in
    let g1 = Prng.of_int seed and g2 = Prng.of_int seed in
    let batch, s1 =
      Metrics.with_counting (fun () -> S.deal_batch_with plan g1 ~secrets)
    in
    let seq, s2 =
      Metrics.with_counting (fun () ->
          Array.map (fun secret -> S.deal_with plan g2 ~secret) secrets)
    in
    if not (Array.for_all2 (Array.for_all2 F.equal) batch seq) then
      Alcotest.failf "deal_batch diverges at n=%d t=%d m=%d" n t m;
    if s1 <> s2 then
      Alcotest.failf "deal_batch ticks diverge at n=%d t=%d m=%d" n t m;
    (* both paths must leave the PRNG in the same state *)
    if not (F.equal (F.random g1) (F.random g2)) then
      Alcotest.failf "deal_batch PRNG stream diverges at n=%d t=%d m=%d" n t m

  let run seed =
    check ~n:7 ~t:0 ~m:3 ~seed;
    check ~n:7 ~t:2 ~m:1 ~seed:(seed + 10);
    check ~n:13 ~t:4 ~m:8 ~seed:(seed + 20);
    check ~n:10 ~t:3 ~m:5 ~seed:(seed + 30)
end

let test_deal_batch_matches_sequential () =
  let module D16 = Deal_laws (Gf2k.GF16) in
  let module D64 = Deal_laws (Fft_field.GF_k64) in
  let module DQ = Deal_laws (Q97) in
  D16.run 201;
  D64.run 202;
  DQ.run 203

(* ---- bit-sliced wide kernels -------------------------------------- *)

module Sliced_laws (W : Gf2_wide.S) = struct
  let run seed =
    let g = Prng.of_int seed in
    let lanes = W.Sliced.lanes in
    let xs = Array.init lanes (fun _ -> W.random g) in
    let ys = Array.init lanes (fun _ -> W.random g) in
    let rt = W.Sliced.unslice (W.Sliced.slice xs) in
    Array.iteri
      (fun i x ->
        if not (W.equal x rt.(i)) then
          Alcotest.failf "slice/unslice roundtrip broke lane %d" i)
      xs;
    let prod =
      W.Sliced.unslice (W.Sliced.mul (W.Sliced.slice xs) (W.Sliced.slice ys))
    in
    Array.iteri
      (fun i p ->
        if not (W.equal p (W.mul_schoolbook xs.(i) ys.(i))) then
          Alcotest.failf "sliced mul diverges from schoolbook at lane %d" i)
      prod;
    (* the dispatching [mul] and explicit Karatsuba both agree with
       schoolbook, whichever side of the limb threshold the field is on *)
    for i = 1 to 200 do
      let a = W.random g and b = W.random g in
      let s = W.mul_schoolbook a b in
      if not (W.equal s (W.mul_karatsuba a b)) then
        Alcotest.failf "karatsuba diverges from schoolbook (case %d)" i;
      if not (W.equal s (W.mul a b)) then
        Alcotest.failf "mul dispatch diverges from schoolbook (case %d)" i
    done
end

let test_sliced_and_karatsuba () =
  let module S64 = Sliced_laws (Gf2_wide.GF64) in
  let module S128 = Sliced_laws (Gf2_wide.GF128) in
  let module S256 = Sliced_laws (Gf2_wide.GF256) in
  S64.run 301;
  S128.run 302;
  S256.run 303

(* ---- array entry point = list entry point ------------------------- *)

module F16 = Gf2k.GF16
module S16 = Shamir.Make (F16)

let same_opt = function
  | Some a, Some b -> F16.equal a b
  | None, None -> true
  | _ -> false

(* Run both entry points under counting and require identical answers
   and identical tick vectors. Each runs once uncounted first: ticks
   are history-dependent (a subset's basis rows and weights are built,
   and ticked, on first use and cached after), and the array entry
   point's full-grid fast path reads rows the plan built at
   construction, while the shared subset core builds them on first use
   — so the pinned contract is steady-state parity. *)
let both name plan ~ids ~ys ~len =
  let points = List.init len (fun i -> (ids.(i), ys.(i))) in
  ignore (S16.G.reconstruct_zero_checked_into plan ~ids ~ys ~len);
  ignore (S16.G.reconstruct_zero_checked plan points);
  let arr, s1 =
    Metrics.with_counting (fun () ->
        S16.G.reconstruct_zero_checked_into plan ~ids ~ys ~len)
  in
  let lst, s2 =
    Metrics.with_counting (fun () -> S16.G.reconstruct_zero_checked plan points)
  in
  if not (same_opt (arr, lst)) then
    Alcotest.failf "%s: arena and list reconstruct disagree" name;
  if s1 <> s2 then Alcotest.failf "%s: arena and list ticks disagree" name;
  arr

let test_arena_reconstruct_matches_list () =
  let n = 13 and t = 3 in
  let plan = S16.grid ~n ~t in
  let g = Prng.of_int 4242 in
  let secret = F16.random g in
  let shares = S16.deal_with plan g ~secret in
  let full_ids = Array.init n Fun.id in
  (* full grid, in order: the fast path; run twice to hit the cached
     weight vector *)
  (match both "full" plan ~ids:full_ids ~ys:shares ~len:n with
  | Some v when F16.equal v secret -> ()
  | _ -> Alcotest.fail "full-grid reconstruct missed the secret");
  (match both "full (cached)" plan ~ids:full_ids ~ys:shares ~len:n with
  | Some v when F16.equal v secret -> ()
  | _ -> Alcotest.fail "cached full-grid reconstruct missed the secret");
  (* shuffled proper subset *)
  let sub = [| 5; 1; 9; 7; 2 |] in
  let ys = Array.map (fun i -> shares.(i)) sub in
  (match both "subset" plan ~ids:sub ~ys ~len:5 with
  | Some v when F16.equal v secret -> ()
  | _ -> Alcotest.fail "subset reconstruct missed the secret");
  (* duplicate id *)
  let dup = [| 1; 2; 2; 5; 6 |] in
  let ys = Array.map (fun i -> shares.(i)) dup in
  (match both "duplicate" plan ~ids:dup ~ys ~len:5 with
  | None -> ()
  | Some _ -> Alcotest.fail "duplicate ids must not reconstruct");
  (* a corrupted share fails the degree check on both paths *)
  let bad = Array.copy shares in
  bad.(4) <- F16.add bad.(4) F16.one;
  (match both "corrupted" plan ~ids:full_ids ~ys:bad ~len:n with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupted share must not pass the check");
  (* too few points *)
  let ys = Array.map (fun i -> shares.(i)) [| 0; 1; 2 |] in
  (match both "too few" plan ~ids:[| 0; 1; 2 |] ~ys ~len:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "t points must not reconstruct");
  (* more points than players: a duplicated inbox, larger than the
     plan's scratch — answered None, not out-of-bounds *)
  let over_ids = Array.append full_ids [| 0 |] in
  let over_ys = Array.append shares [| shares.(0) |] in
  (match both "oversized" plan ~ids:over_ids ~ys:over_ys ~len:(n + 1) with
  | None -> ()
  | Some _ -> Alcotest.fail "oversized inbox must not reconstruct");
  (* malformed input still raises *)
  Alcotest.check_raises "empty" (Invalid_argument "Grid: no points")
    (fun () ->
      ignore
        (S16.G.reconstruct_zero_checked_into plan ~ids:[||] ~ys:[||] ~len:0));
  Alcotest.check_raises "id out of range"
    (Invalid_argument "Grid: player id out of range") (fun () ->
      ignore
        (S16.G.reconstruct_zero_checked_into plan ~ids:[| 0; 13 |]
           ~ys:[| secret; secret |] ~len:2))

(* ---- subset entry points = plain interpolation -------------------- *)

(* The array entry point and the list entry points run on one arena
   core, so both are pinned to the plain paths directly: a checked
   reconstruction is [Some] of [Poly.interpolate_at] at zero exactly
   when the ids are distinct, there are at least t + 1 points and
   [Poly.fits_degree] holds; [fits_on] is [fits_degree] and
   [reconstruct_zero] is [interpolate_at] over distinct points. Subsets
   fit, carry one corrupted share, or repeat one player (up to n + 1
   points), sorted (a full sorted grid takes the array fast path) or
   shuffled. In the steady state the two checked entry points tick
   alike. *)
let prop_subset_entry_points =
  let module P = S16.P in
  QCheck.Test.make ~count:300
    ~name:"subset entry points = interpolate_at and fits_degree"
    QCheck.(
      pair (triple small_nat (int_range 1 13) (int_range 0 12)) (int_range 0 5))
    (fun ((seed, n, t), kind) ->
      let t = t mod n in
      let plan = S16.grid ~n ~t in
      let g = Prng.of_int seed in
      let shares = S16.deal_with plan g ~secret:(F16.random g) in
      let ids = Array.of_list (Prng.sample_distinct g (1 + Prng.int g n) n) in
      if kind >= 3 then Prng.shuffle g ids;
      let ys = Array.map (fun i -> shares.(i)) ids in
      let k = Prng.int g (Array.length ids) in
      let ids, ys =
        match kind mod 3 with
        | 0 -> (ids, ys)
        | 1 ->
            ys.(k) <- F16.add ys.(k) F16.one;
            (ids, ys)
        | _ ->
            let y = if Prng.bool g then ys.(k) else F16.add ys.(k) F16.one in
            (Array.append ids [| ids.(k) |], Array.append ys [| y |])
      in
      let len = Array.length ids in
      let points = List.init len (fun i -> (ids.(i), ys.(i))) in
      let distinct =
        List.length (List.sort_uniq compare (Array.to_list ids)) = len
      in
      let plain = List.map (fun (i, y) -> (S16.eval_point i, y)) points in
      let fits = distinct && P.fits_degree plain ~max_degree:t in
      let expected =
        if distinct && len >= t + 1 && fits then
          Some (P.interpolate_at plain F16.zero)
        else None
      in
      let array () = S16.G.reconstruct_zero_checked_into plan ~ids ~ys ~len in
      let list () = S16.G.reconstruct_zero_checked plan points in
      (* one uncounted call each builds the subset's cached rows *)
      ignore (array ());
      ignore (list ());
      let _, array_ticks = Metrics.with_counting array in
      let _, list_ticks = Metrics.with_counting list in
      same_opt (array (), expected)
      && same_opt (list (), expected)
      && array_ticks = list_ticks
      && ((not distinct)
         || S16.G.fits_on plan points = fits
            && F16.equal (S16.G.reconstruct_zero plan points)
                 (P.interpolate_at plain F16.zero)))

(* ---- Coin-Expose: run = reference -------------------------------- *)

module C16 = Sealed_coin.Make (F16)
module CE16 = Coin_expose.Make (F16)
module Ref16 = Coin_expose_reference.Make (F16)

let expose_behaviors : (string * (int -> CE16.sender_behavior) option) list =
  [
    ("honest", None);
    ("one silent", Some (fun i -> if i = 3 then CE16.Silent else CE16.Honest));
    ("one lying", Some (fun i -> if i = 5 then CE16.Send F16.one else CE16.Honest));
    ( "equivocator",
      Some
        (fun i ->
          if i = 2 then
            CE16.Equivocate
              (fun dst -> if dst mod 2 = 0 then Some F16.one else None)
          else CE16.Honest) );
  ]

let same_results a b =
  Array.for_all2
    (fun x y ->
      match (x, y) with
      | Some x, Some y -> F16.equal x y
      | None, None -> true
      | _ -> false)
    a b

let test_run_matches_reference () =
  let n = 13 and t = 2 in
  let coin = C16.dealer_coin (Prng.of_int 9091) ~n ~t in
  List.iter
    (fun (name, sender_behavior) ->
      (* warm the plan's subset caches so the counted runs compare
         steady-state ticks (cache builds are one-time and land in
         whichever path runs first) *)
      ignore (Ref16.run ?sender_behavior coin);
      ignore (CE16.run ?sender_behavior coin);
      (* values and ticks *)
      let a, sa =
        Metrics.with_counting (fun () ->
            Ref16.run ?sender_behavior coin)
      in
      let b, sb =
        Metrics.with_counting (fun () -> CE16.run ?sender_behavior coin)
      in
      if not (same_results a b) then
        Alcotest.failf "%s: run and the reference decode differently" name;
      if sa <> sb then
        Alcotest.failf "%s: run and the reference tick differently" name;
      (* trace parity: same events, in order *)
      let a', ta =
        Trace.collect (fun () -> Ref16.run ?sender_behavior coin)
      in
      let b', tb = Trace.collect (fun () -> CE16.run ?sender_behavior coin) in
      if not (same_results a' b') then
        Alcotest.failf "%s: traced runs decode differently" name;
      let render tr =
        List.map
          (fun (r, e) -> Printf.sprintf "%d:%s" r (Fmt.str "%a" Trace.pp_event e))
          (Trace.all_events tr)
      in
      if render ta <> render tb then
        Alcotest.failf "%s: run and the reference trace differently" name;
      (* evidence parity under an active ledger *)
      let l1 = Sentinel.Ledger.create ~config:(Sentinel.active ()) ~n () in
      let l2 = Sentinel.Ledger.create ~config:(Sentinel.active ()) ~n () in
      let a'' =
        Sentinel.with_ledger l1 (fun () ->
            Ref16.run ?sender_behavior coin)
      in
      let b'' =
        Sentinel.with_ledger l2 (fun () -> CE16.run ?sender_behavior coin)
      in
      if not (same_results a'' b'') then
        Alcotest.failf "%s: ledgered runs decode differently" name;
      if Sentinel.Ledger.dump l1 <> Sentinel.Ledger.dump l2 then
        Alcotest.failf "%s: ledgers recorded different evidence" name;
      if Sentinel.Ledger.suspects l1 <> Sentinel.Ledger.suspects l2 then
        Alcotest.failf "%s: ledgers suspect different players" name)
    expose_behaviors

(* ---- traced Pool runs draw the same coins ------------------------- *)

module Pool16 = Pool.Make (F16)

let test_pool_traced_parity () =
  let mk () =
    Pool16.create ~prng:(Prng.of_int 77) ~n:13 ~t:2 ~batch_size:64
      ~refill_threshold:3 ~initial_seed:6 ()
  in
  let draws p = Array.init 40 (fun _ -> Pool16.draw_kary p) in
  (* enough draws to cross a refill, so the traced run covers dealing,
     exposure and reconstruction; one throwaway run first warms the
     shared grid caches so both counted runs see steady-state ticks *)
  ignore (draws (mk ()));
  let a, sa = Metrics.with_counting (fun () -> draws (mk ())) in
  let (b, tr), sb =
    Metrics.with_counting (fun () -> Trace.collect (fun () -> draws (mk ())))
  in
  if not (Array.for_all2 F16.equal a b) then
    Alcotest.fail "tracing perturbed the pool's draw sequence";
  if sa <> sb then Alcotest.fail "tracing perturbed the pool's tick counts";
  if Trace.all_events tr = [] then
    Alcotest.fail "traced pool run recorded no events"

let suite =
  [
    Alcotest.test_case "batch_eval matches Horner" `Quick
      test_batch_eval_matches_horner;
    Alcotest.test_case "deal_batch matches sequential deals" `Quick
      test_deal_batch_matches_sequential;
    Alcotest.test_case "sliced and karatsuba match schoolbook" `Quick
      test_sliced_and_karatsuba;
    Alcotest.test_case "arena reconstruct matches list twin" `Quick
      test_arena_reconstruct_matches_list;
    Alcotest.test_case "coin-expose run matches reference" `Quick
      test_run_matches_reference;
    Alcotest.test_case "traced pool draws are unperturbed" `Quick
      test_pool_traced_parity;
    QCheck_alcotest.to_alcotest ~long:false prop_subset_entry_points;
  ]
