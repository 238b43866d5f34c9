(* Differential tests pinning the grid kernels to their reference
   twins: the one dealer ([Grid.deal], [Grid.eval_poly]) vs per-share
   Horner on every field instance and [Bit_gen.deal_matrix] vs its
   per-share twin (values, ticks and PRNG stream), Karatsuba wide
   multiplication vs schoolbook, the subset reconstruction's array and
   list entry points vs plain interpolation and the degree check, and
   Coin-Expose [run] vs the list-based [Coin_expose_reference] (values,
   ticks, traces and ledger evidence), and the multi-row Horner
   ([Poly.eval_rows], [Vss.combine_rows]) vs per-row Horner and the
   naive combine. *)

(* ---- one dealer = per-share Horner, per field ---------------------- *)

(* Each side of a comparison is a whole dealing: draw the polynomials
   from a PRNG seeded alike, then evaluate them. The reference
   evaluates each share with [Poly.eval] at a freshly computed player
   point, the form every dealer had before [Grid]; the two must agree
   on the values, on the Metrics ticks of the whole dealing and on the
   PRNG state after it. The polynomials cover the zero polynomial, a
   constant, degree t and every cheating degree up to n - 1, so each
   player row mixes lengths; n = 18 puts player points on both sides of
   16, the two paths of the carry-less field's Horner kernel. Each side
   runs once uncounted first: a plan's construction is ticked once per
   session (and per functor instance's plan table), not per dealing. *)
module Dealer_laws (F : Field_intf.S) = struct
  module S = Shamir.Make (F)
  module P = S.P
  module V = Vss.Make (F)

  let draw g ~n ~t =
    let fixed =
      [ P.zero; P.constant (F.random g); S.share_poly g ~t ~secret:(F.random g) ]
    in
    let cheating =
      List.init (n - 1 - t) (fun k ->
          P.add (P.random g ~degree:t)
            (P.monomial (F.random_nonzero g) (t + 1 + k)))
    in
    Array.of_list (fixed @ cheating)

  let per_share p ~n = Array.init n (fun i -> P.eval p (S.eval_point i))

  let same_rows = Array.for_all2 (Array.for_all2 F.equal)

  (* Run both dealings from one seed; fail unless values, ticks and the
     next PRNG output agree. *)
  let agree label ~seed ~equal dealer reference =
    ignore (dealer (Prng.of_int seed));
    ignore (reference (Prng.of_int seed));
    let g1 = Prng.of_int seed and g2 = Prng.of_int seed in
    let a, ta = Metrics.with_counting (fun () -> dealer g1) in
    let b, tb = Metrics.with_counting (fun () -> reference g2) in
    if not (equal a b) then Alcotest.failf "%s: values diverge" label;
    if ta <> tb then Alcotest.failf "%s: ticks diverge" label;
    if Prng.next_int64 g1 <> Prng.next_int64 g2 then
      Alcotest.failf "%s: PRNG state diverges" label

  let check ~n ~t ~seed =
    let plan = S.grid ~n ~t in
    let label what = Printf.sprintf "%s n=%d t=%d %s" F.name n t what in
    agree (label "deal") ~seed ~equal:same_rows
      (fun g -> S.G.deal plan (draw g ~n ~t))
      (fun g ->
        let polys = draw g ~n ~t in
        Array.init n (fun i ->
            Array.map (fun p -> P.eval p (S.eval_point i)) polys));
    agree (label "eval_poly") ~seed ~equal:same_rows
      (fun g -> Array.map (S.G.eval_poly plan) (draw g ~n ~t))
      (fun g -> Array.map (per_share ~n) (draw g ~n ~t));
    agree (label "Shamir.deal") ~seed ~equal:(Array.for_all2 F.equal)
      (fun g -> S.deal g ~t ~n ~secret:(F.random g))
      (fun g -> S.deal_naive g ~t ~n ~secret:(F.random g));
    agree (label "Vss.batch_honest_dealing") ~seed ~equal:same_rows
      (fun g -> V.batch_honest_dealing g ~n ~t ~secrets:[| F.one; F.zero |])
      (fun g ->
        let per_secret =
          Array.map
            (fun secret -> S.deal_naive g ~t ~n ~secret)
            [| F.one; F.zero |]
        in
        Array.init n (fun i -> Array.map (fun row -> row.(i)) per_secret))

  let run seed =
    List.iteri
      (fun k (n, t) -> check ~n ~t ~seed:(seed + k))
      [ (1, 0); (4, 1); (7, 2); (13, 2); (13, 4); (18, 3) ]
end

module GF32U = Gf2k.Make_untabled (struct let k = 32 end)
module P97 = Zp.Make (struct let p = 97 end)
module Q97 = Zq_table.Make (struct let q = 97 end)

let test_dealer_matches_horner () =
  let module D16 = Dealer_laws (Gf2k.GF16) in
  let module D32 = Dealer_laws (Gf2k.GF32) in
  let module DU = Dealer_laws (GF32U) in
  let module DP = Dealer_laws (P97) in
  let module DQ = Dealer_laws (Q97) in
  let module DF = Dealer_laws (Fft_field.GF_k64) in
  let module DW = Dealer_laws (Gf2_wide.GF64) in
  D16.run 101;
  D32.run 201;
  DU.run 301;
  DP.run 401;
  DQ.run 501;
  DF.run 601;
  DW.run 701

(* ---- the multi-row Horner = per-row Horner ------------------------ *)

(* [Poly.eval_rows] against the Horner loop row by row, and
   [Vss.combine] / [combine_rows] against [combine_naive], on the
   carry-less field, which runs the raw [horner] kernel, and on fields
   that run the loop: values bit-identical, and ticks exactly the
   loop's ([len - 1] mults and adds per row; M mults and M - 1 adds per
   combine). The points are 0, 1, every player point below 16, 16 to
   19 and random elements; one call mixes empty rows, constants,
   trailing zeros and lengths up to 19. *)
module Horner_laws (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module V = Vss.Make (F)

  (* [Poly.eval]'s loop over a raw row, trailing zeros included. *)
  let horner row x =
    let len = Array.length row in
    if len = 0 then F.zero
    else begin
      let acc = ref row.(len - 1) in
      for d = len - 2 downto 0 do
        acc := F.add (F.mul !acc x) row.(d)
      done;
      !acc
    end

  let random_rows g =
    Array.init (1 + Prng.int g 40) (fun _ ->
        Array.init (Prng.int g 20) (fun _ ->
            if Prng.int g 5 = 0 then F.zero else F.random g))

  let same = Array.for_all2 F.equal

  let check seed =
    let g = Prng.of_int seed in
    let points = List.init 20 F.of_int @ List.init 8 (fun _ -> F.random g) in
    for _ = 1 to 10 do
      let rows = random_rows g in
      List.iter
        (fun x ->
          let out = Array.make (Array.length rows) F.one in
          let (), ticks =
            Metrics.with_counting (fun () -> P.eval_rows rows x out)
          in
          let expected, expected_ticks =
            Metrics.with_counting (fun () -> Array.map (fun r -> horner r x) rows)
          in
          if not (same out expected) then
            Alcotest.failf "%s: eval_rows at %s diverges" F.name (F.to_string x);
          if ticks <> expected_ticks then
            Alcotest.failf "%s: eval_rows ticks diverge" F.name;
          let out = Array.make (Array.length rows) F.one in
          let (), ticks =
            Metrics.with_counting (fun () -> V.combine_rows ~r:x rows out)
          in
          let m_total =
            Array.fold_left (fun acc r -> acc + Array.length r) 0 rows
          in
          let nonempty =
            Array.fold_left
              (fun acc r -> if Array.length r > 0 then acc + 1 else acc)
              0 rows
          in
          if not (same out (Array.map (V.combine_naive ~r:x) rows)) then
            Alcotest.failf "%s: combine_rows at %s diverges from combine_naive"
              F.name (F.to_string x);
          if
            ticks.Metrics.field_mults <> m_total
            || ticks.Metrics.field_adds <> m_total - nonempty
          then Alcotest.failf "%s: combine_rows ticks are not M and M - 1" F.name;
          Array.iteri
            (fun j row ->
              let v, t = Metrics.with_counting (fun () -> V.combine ~r:x row) in
              let m = Array.length row in
              if not (F.equal v out.(j)) then
                Alcotest.failf "%s: combine diverges from combine_rows" F.name;
              if t.Metrics.field_mults <> m || t.Metrics.field_adds <> max (m - 1) 0
              then Alcotest.failf "%s: combine ticks are not M and M - 1" F.name)
            rows)
        points
    done

  let run = check
end

module GF17 = Gf2k.Make (struct let k = 17 end)
module GF24 = Gf2k.Make (struct let k = 24 end)

let test_eval_rows_matches_horner () =
  let module H32 = Horner_laws (Gf2k.GF32) in
  let module H24 = Horner_laws (GF24) in
  let module HU = Horner_laws (GF32U) in
  let module H16 = Horner_laws (Gf2k.GF16) in
  let module HP = Horner_laws (P97) in
  H32.run 811;
  H24.run 821;
  HU.run 831;
  H16.run 841;
  HP.run 851

(* The kernel exists where a benchmark workload runs it, the carry-less
   regime of [Gf2k.Make], and nowhere else. *)
let test_horner_kernel_placement () =
  let has (module F : Field_intf.S) = Option.is_some F.horner in
  List.iter
    (fun (name, f, expected) ->
      Alcotest.(check bool) name expected (has f))
    [
      ("GF(2^32)", (module Gf2k.GF32 : Field_intf.S), true);
      ("GF(2^17)", (module GF17), true);
      ("GF(2^16), tabled", (module Gf2k.GF16), false);
      ("GF(2^61), word loop", (module Gf2k.GF61), false);
      ("GF(2^32), untabled", (module GF32U), false);
      ("Z_97", (module P97), false);
      ("Z_97, tabled", (module Q97), false);
      ("Fft_field", (module Fft_field.GF_k64), false);
      ("Gf2_wide", (module Gf2_wide.GF64), false);
    ]

(* ---- Bit_gen.deal_matrix = its per-share twin --------------------- *)

(* Every dealer behaviour, at the pool-refill and beacon shapes: the
   share matrix, the ticks and the PRNG state after the dealing (the
   [Inconsistent_to] garbage rows are drawn after the polynomials) must
   be those of the per-share form kept in [Bit_gen_reference]. One
   uncounted dealing first builds the plan [Bit_gen] deals through. *)
module Deal_matrix_laws (F : Field_intf.S) = struct
  module BG = Bit_gen.Make (F)
  module R = Bit_gen_reference.Make (F)

  let behaviors ~n ~m g : (string * BG.dealer_behavior) list =
    [
      ("honest", BG.Honest_dealer);
      ("honest zero", BG.Honest_zero_dealer);
      ("silent", BG.Silent_dealer);
      ("bad degree", BG.Bad_degree [ 0; m - 1 ]);
      ("inconsistent", BG.Inconsistent_to [ 1; n - 1 ]);
      ( "matrix",
        BG.Matrix (Array.init n (fun _ -> Array.init m (fun _ -> F.random g))) );
    ]

  let same a b =
    match (a, b) with
    | Some a, Some b -> Array.for_all2 (Array.for_all2 F.equal) a b
    | None, None -> true
    | _ -> false

  let run ~n ~t ~m seed =
    ignore (BG.deal_matrix BG.Honest_dealer (Prng.of_int seed) ~n ~t ~m);
    List.iter
      (fun (name, behavior) ->
        let g1 = Prng.of_int seed and g2 = Prng.of_int seed in
        let a, ta =
          Metrics.with_counting (fun () -> BG.deal_matrix behavior g1 ~n ~t ~m)
        in
        let b, tb =
          Metrics.with_counting (fun () -> R.deal_matrix behavior g2 ~n ~t ~m)
        in
        let label = Printf.sprintf "%s n=%d m=%d %s" F.name n m name in
        if not (same a b) then Alcotest.failf "%s: matrices diverge" label;
        if ta <> tb then Alcotest.failf "%s: ticks diverge" label;
        if Prng.next_int64 g1 <> Prng.next_int64 g2 then
          Alcotest.failf "%s: PRNG state diverges" label)
      (behaviors ~n ~m (Prng.of_int (seed + 1)))
end

let test_deal_matrix_matches_twin () =
  let module D32 = Deal_matrix_laws (Gf2k.GF32) in
  let module D16 = Deal_matrix_laws (Gf2k.GF16) in
  D32.run ~n:13 ~t:2 ~m:32 1301;
  D32.run ~n:7 ~t:1 ~m:64 701;
  D16.run ~n:4 ~t:1 ~m:3 401

(* ---- Karatsuba wide multiplication -------------------------------- *)

(* The dispatching [mul] and explicit Karatsuba both agree with
   schoolbook, whichever side of the limb threshold the field is on. *)
module Karatsuba_laws (W : Gf2_wide.S) = struct
  let run seed =
    let g = Prng.of_int seed in
    for i = 1 to 200 do
      let a = W.random g and b = W.random g in
      let s = W.mul_schoolbook a b in
      if not (W.equal s (W.mul_karatsuba a b)) then
        Alcotest.failf "karatsuba diverges from schoolbook (case %d)" i;
      if not (W.equal s (W.mul a b)) then
        Alcotest.failf "mul dispatch diverges from schoolbook (case %d)" i
    done
end

let test_karatsuba () =
  let module K64 = Karatsuba_laws (Gf2_wide.GF64) in
  let module K128 = Karatsuba_laws (Gf2_wide.GF128) in
  let module K256 = Karatsuba_laws (Gf2_wide.GF256) in
  K64.run 301;
  K128.run 302;
  K256.run 303

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
    Alcotest.test_case "one dealer = per-share Horner" `Quick
      test_dealer_matches_horner;
    Alcotest.test_case "eval_rows and combine = per-row Horner" `Quick
      test_eval_rows_matches_horner;
    Alcotest.test_case "Horner kernel only in the carry-less regime" `Quick
      test_horner_kernel_placement;
    Alcotest.test_case "deal_matrix = per-share twin" `Quick
      test_deal_matrix_matches_twin;
    Alcotest.test_case "karatsuba matches schoolbook" `Quick test_karatsuba;
    Alcotest.test_case "arena reconstruct matches list twin" `Quick
      test_arena_reconstruct_matches_list;
    Alcotest.test_case "coin-expose run matches reference" `Quick
      test_run_matches_reference;
    Alcotest.test_case "traced pool draws are unperturbed" `Quick
      test_pool_traced_parity;
    QCheck_alcotest.to_alcotest ~long:false prop_subset_entry_points;
  ]
