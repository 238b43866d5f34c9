(* Equivalence of the precomputed evaluation-grid kernels (lib/kernel)
   with the naive Poly/Shamir paths they replace, across every field
   backend, the dot-product kernel and the grid entries built on it,
   plus each Gf2k multiplication regime against the naive
   reference: tables over the full domain for k <= 12, the carry-less
   product at every k in 17..32, the word loop above. Fields are exact,
   so the kernels must agree bit-for-bit, not approximately. *)

module Check (F : Field_intf.S) (Tag : sig val tag : string end) = struct
  module S = Shamir.Make (F)
  module P = S.P
  module G = S.G

  let qtest name arb f =
    QCheck.Test.make ~count:150 ~name:(Printf.sprintf "%s: %s" Tag.tag name)
      arb f

  (* (seed, n, t) with 0 <= t < n; n kept small enough for every
     backend's of_int grid. *)
  let arb_session =
    QCheck.make
      ~print:(fun (s, n, t) -> Printf.sprintf "seed=%d n=%d t=%d" s n t)
      QCheck.Gen.(
        map
          (fun (s, n, frac) -> (s, n, frac mod n))
          (triple int (int_range 1 16) (int_range 0 15)))

  let shares_of_poly n f = Array.init n (fun i -> P.eval f (S.eval_point i))

  let props =
    [
      qtest "plan deal = naive deal (same draws)" arb_session
        (fun (seed, n, t) ->
          let g1 = Prng.of_int seed and g2 = Prng.of_int seed in
          let secret = F.random (Prng.of_int (seed + 1)) in
          let planned = S.deal g1 ~t ~n ~secret in
          let naive = S.deal_naive g2 ~t ~n ~secret in
          Array.for_all2 F.equal planned naive);
      qtest "eval_poly handles dropped leading coefficients" arb_session
        (fun (seed, n, t) ->
          (* A polynomial whose sampled degree-t coefficient is zero
             normalizes shorter than t + 1; the plan must not care. *)
          let g = Prng.of_int seed in
          let d = if t = 0 then 0 else t - 1 in
          let f = P.random g ~degree:d in
          let plan = S.grid ~n ~t in
          Array.for_all2 F.equal (G.eval_poly plan f) (shares_of_poly n f));
      qtest "plan fits = naive fits_degree (full grid)"
        (QCheck.pair arb_session QCheck.bool)
        (fun ((seed, n, t), corrupt) ->
          let g = Prng.of_int seed in
          let f = P.random g ~degree:t in
          let values = shares_of_poly n f in
          if corrupt then begin
            let i = Prng.int g n in
            values.(i) <- F.add values.(i) F.one
          end;
          let points =
            List.init n (fun i -> (S.eval_point i, values.(i)))
          in
          G.fits (S.grid ~n ~t) values
          = P.fits_degree points ~max_degree:t);
      qtest "plan fits_on = naive fits_degree (subsets)"
        (QCheck.pair arb_session QCheck.bool)
        (fun ((seed, n, t), corrupt) ->
          let g = Prng.of_int seed in
          let f = P.random g ~degree:t in
          let size = 1 + Prng.int g n in
          let ids = Prng.sample_distinct g size n in
          let points =
            List.map (fun i -> (i, P.eval f (S.eval_point i))) ids
          in
          let points =
            if corrupt then
              match points with
              | (i, v) :: rest -> (i, F.add v F.one) :: rest
              | [] -> []
            else points
          in
          let naive =
            List.map (fun (i, v) -> (S.eval_point i, v)) points
          in
          G.fits_on (S.grid ~n ~t) points
          = P.fits_degree naive ~max_degree:t);
      qtest "plan reconstruct_zero = naive interpolate_at" arb_session
        (fun (seed, n, t) ->
          let g = Prng.of_int seed in
          let f = P.random g ~degree:t in
          let size = 1 + Prng.int g n in
          let ids = Prng.sample_distinct g size n in
          let points =
            List.map (fun i -> (i, P.eval f (S.eval_point i))) ids
          in
          let naive =
            P.interpolate_at
              (List.map (fun (i, v) -> (S.eval_point i, v)) points)
              F.zero
          in
          F.equal (G.reconstruct_zero (S.grid ~n ~t) points) naive);
      qtest "reconstruct_zero_checked agrees with Shamir.reconstruct"
        arb_session
        (fun (seed, n, t) ->
          let g = Prng.of_int (seed + 7) in
          let secret = F.random g in
          let shares = S.deal g ~t ~n ~secret in
          let size = t + 1 + Prng.int g (n - t) in
          let ids = Prng.sample_distinct g size n in
          let points = List.map (fun i -> (i, shares.(i))) ids in
          match G.reconstruct_zero_checked (S.grid ~n ~t) points with
          | None -> false
          | Some v -> F.equal v secret);
      qtest "reconstruct_zero_checked rejects corrupted and duplicate shares"
        arb_session
        (fun (seed, n, t) ->
          QCheck.assume (t + 1 < n);
          let g = Prng.of_int (seed + 11) in
          let shares = S.deal g ~t ~n ~secret:(F.random g) in
          let ids = Prng.sample_distinct g (t + 2) n in
          let points = List.map (fun i -> (i, shares.(i))) ids in
          let corrupted =
            match points with
            | (i, v) :: rest -> (i, F.add v F.one) :: rest
            | [] -> []
          in
          let duplicated =
            match points with p :: _ -> p :: points | [] -> []
          in
          let plan = S.grid ~n ~t in
          G.reconstruct_zero_checked plan corrupted = None
          && G.reconstruct_zero_checked plan duplicated = None);
      qtest "interpolate_checked = the dealt polynomial, None off it"
        (QCheck.pair arb_session QCheck.bool)
        (fun ((seed, n, t), corrupt) ->
          (* Degree t - 1 half the time: the read-off must come back
             with a zero top coefficient, not a different polynomial. *)
          let g = Prng.of_int seed in
          let d = if t > 0 && Prng.bool g then t - 1 else t in
          let f = P.random g ~degree:d in
          let values = shares_of_poly n f in
          let off = corrupt && t + 1 < n in
          if off then begin
            let i = Prng.int g n in
            values.(i) <- F.add values.(i) F.one
          end;
          match G.interpolate_checked (S.grid ~n ~t) values with
          | None -> off
          | Some coeffs ->
              let got = P.coeffs (P.of_coeffs coeffs) and want = P.coeffs f in
              (not off)
              && Array.length coeffs = t + 1
              && Array.length got = Array.length want
              && Array.for_all2 F.equal got want);
    ]

  (* Degenerate shapes the generators reach only rarely. *)
  let test_degenerate () =
    let plan = S.grid ~n:1 ~t:0 in
    let g = Prng.of_int 3 in
    let secret = F.random g in
    let shares = S.deal_with plan g ~secret in
    Alcotest.(check bool) "t=0, n=1: share is the constant" true
      (F.equal shares.(0) secret);
    Alcotest.(check bool) "singleton subset reconstructs" true
      (F.equal (G.reconstruct_zero plan [ (0, shares.(0)) ]) secret);
    Alcotest.(check bool) "singleton fits trivially" true
      (G.fits_on plan [ (0, shares.(0)) ]);
    (* t = 0 over a wider grid: constants fit, non-constants do not. *)
    let plan = S.grid ~n:5 ~t:0 in
    let flat = Array.make 5 secret in
    Alcotest.(check bool) "constant vector fits t=0" true (G.fits plan flat);
    let bent = Array.copy flat in
    bent.(3) <- F.add bent.(3) F.one;
    Alcotest.(check bool) "bent vector rejected at t=0" false
      (G.fits plan bent)

  let test_metric_ticks () =
    (* The kernels mirror the naive paths' interpolation accounting:
       exactly one tick per check or reconstruction. *)
    let plan = S.grid ~n:7 ~t:2 in
    let g = Prng.of_int 9 in
    let shares = S.deal_with plan g ~secret:(F.random g) in
    let points = [ (0, shares.(0)); (2, shares.(2)); (5, shares.(5)) ] in
    let _, s1 = Metrics.with_counting (fun () -> G.fits plan shares) in
    let _, s2 =
      Metrics.with_counting (fun () -> G.reconstruct_zero plan points)
    in
    let _, s3 =
      Metrics.with_counting (fun () ->
          G.reconstruct_zero_checked plan points)
    in
    Alcotest.(check int) "fits ticks one interpolation" 1
      s1.Metrics.interpolations;
    Alcotest.(check int) "reconstruct ticks one interpolation" 1
      s2.Metrics.interpolations;
    Alcotest.(check int) "checked reconstruct ticks one interpolation" 1
      s3.Metrics.interpolations

  let suite =
    [
      Alcotest.test_case (Tag.tag ^ ": degenerate grids") `Quick
        test_degenerate;
      Alcotest.test_case (Tag.tag ^ ": metric ticks") `Quick
        test_metric_ticks;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
end

module Check_gf2k = Check (Gf2k.GF16) (struct let tag = "gf2k-16" end)
module Check_wide = Check (Gf2_wide.GF64) (struct let tag = "gf2-wide-64" end)
module Q97 = Zq_table.Make (struct let q = 97 end)
module Check_zq = Check (Q97) (struct let tag = "zq-97" end)
module Check_fft =
  Check (Fft_field.GF_k64) (struct let tag = "fft-k64" end)

(* The dot-product kernel ({!Field_intf.S.dot}) and the grid products
   routed through it. For every field instance, [Grid.dot] (the kernel
   with bulk ticks, or the loop where the field has none) must equal
   the ticked accumulate-from-zero loop at every length 0..8 and tick
   exactly what it ticks, and a field's own kernel (the carry-less
   GF(2^k) ones) must equal it while ticking nothing. Each grid entry built on [dot] must tick the mults,
   adds and interpolations the per-product loops ticked, early exits
   included: rows_done * (t + 1) per degree check, t + 1 per
   reconstruction, one interpolation per call. *)
module Dot_check
    (F : Field_intf.S)
    (Tag : sig
      val tag : string

      val special : Prng.t -> F.t
      (** An extreme operand: for GF(2^k), 2^k - 1, a lone top bit, or a
          top-heavy value whose products spill past the second fold. *)
    end) =
struct
  module G = Grid.Make (F)

  let loop a b len =
    let acc = ref F.zero in
    for j = 0 to len - 1 do
      acc := F.add !acc (F.mul a.(j) b.(j))
    done;
    !acc

  let costs (s : Metrics.snapshot) =
    (s.Metrics.field_mults, s.Metrics.field_adds, s.Metrics.field_invs,
     s.Metrics.interpolations)

  let ticks f =
    let _, s = Metrics.with_counting f in
    costs s

  let test_dot () =
    let g = Prng.of_int 4242 in
    let operand () = if Prng.int g 3 = 0 then Tag.special g else F.random g in
    for len = 0 to 8 do
      for trial = 1 to 150 do
        let a = Array.init (len + Prng.int g 2) (fun _ -> operand ())
        and b = Array.init (len + Prng.int g 2) (fun _ -> operand ()) in
        if trial = 1 then begin
          Array.fill a 0 len (Tag.special g);
          Array.fill b 0 len (Tag.special g)
        end;
        let want, loop_ticks = Metrics.with_counting (fun () -> loop a b len) in
        let got, grid_ticks = Metrics.with_counting (fun () -> G.dot a b len) in
        if not (F.equal got want) then
          Alcotest.failf "%s: Grid.dot diverges from the loop at len %d" Tag.tag len;
        Alcotest.(check (pair (pair int int) (pair int int)))
          (Printf.sprintf "%s: Grid.dot ticks like the loop at len %d" Tag.tag len)
          (let m, a, i, p = costs loop_ticks in ((m, a), (i, p)))
          (let m, a, i, p = costs grid_ticks in ((m, a), (i, p)));
        match F.dot with
        | None -> ()
        | Some kernel ->
            let raw, raw_ticks = Metrics.with_counting (fun () -> kernel a b len) in
            if not (F.equal raw want) then
              Alcotest.failf "%s: dot kernel diverges from the loop at len %d"
                Tag.tag len;
            Alcotest.(check bool)
              (Printf.sprintf "%s: dot kernel ticks nothing" Tag.tag)
              true
              (costs raw_ticks = (0, 0, 0, 0))
      done
    done

  let test_grid_ticks () =
    let n = 13 and t = 2 in
    let b = t + 1 and rows = n - t - 1 in
    let plan = G.make ~n ~t in
    let g = Prng.of_int 1313 in
    let cs = Array.init b (fun _ -> F.random g) in
    let values =
      Metrics.without_counting (fun () -> G.eval_poly plan (G.P.of_coeffs cs))
    in
    let off r =
      let v = Array.copy values in
      v.(b + r) <- Metrics.without_counting (fun () -> F.add v.(b + r) F.one);
      v
    in
    let off0 = off 0 and off2 = off 2 and off4 = off 4 and last = off (rows - 1) in
    let check label want f =
      ignore (f ());
      (* caches warmed: only the steady-state ticks are compared *)
      let m, a, i, p = ticks f in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%s: %s (mults, adds), (invs, interps)" Tag.tag label)
        ((want, want), (0, 1))
        ((m, a), (i, p))
    in
    check "fits" (rows * b) (fun () -> assert (G.fits plan values));
    check "fits, first row off" b (fun () -> assert (not (G.fits plan off0)));
    check "fits, fifth row off" (5 * b) (fun () ->
        assert (not (G.fits plan off4)));
    check "interpolate_checked" ((rows * b) + (b * b)) (fun () ->
        assert (G.interpolate_checked plan values <> None));
    check "interpolate_checked, third row off" (3 * b) (fun () ->
        assert (G.interpolate_checked plan off2 = None));
    let ids = Array.init n Fun.id in
    check "full reconstruct" ((rows * b) + b) (fun () ->
        assert (G.reconstruct_zero_checked_into plan ~ids ~ys:values ~len:n <> None));
    check "full reconstruct, last row off" (rows * b) (fun () ->
        assert (
          G.reconstruct_zero_checked_into plan ~ids ~ys:last ~len:n
          = None));
    (* A subset in inbox order with two players missing, shuffled. *)
    let sub = [| 4; 0; 2; 3; 6; 7; 8; 9; 10; 12; 11 |] in
    let s = Array.length sub in
    let sys = Array.map (fun i -> values.(i)) sub in
    check "subset reconstruct" (((s - b) * b) + b) (fun () ->
        assert (G.reconstruct_zero_checked_into plan ~ids:sub ~ys:sys ~len:s <> None));
    let points = Array.to_list (Array.map (fun i -> (i, values.(i))) sub) in
    check "list reconstruct_zero_checked" (((s - b) * b) + b) (fun () ->
        assert (G.reconstruct_zero_checked plan points <> None));
    check "list fits_on" ((s - b) * b) (fun () -> assert (G.fits_on plan points));
    check "list reconstruct_zero" s (fun () -> G.reconstruct_zero plan points)

  let suite =
    [
      Alcotest.test_case (Tag.tag ^ ": dot = the ticked loop, len 0..8") `Quick
        test_dot;
      Alcotest.test_case (Tag.tag ^ ": grid entries tick as before") `Quick
        test_grid_ticks;
    ]
end

let gf2k_special (type a) (module M : Gf2k.S with type t = a) g =
  let k = M.k_bits in
  let top = (1 lsl k) - 1 in
  M.of_repr
    (match Prng.int g 3 with
    | 0 -> top
    | 1 -> 1 lsl (k - 1)
    | _ -> Prng.bits g k lor (top lxor (top lsr 3)))

let field_special (type a) (module M : Field_intf.S with type t = a) g =
  match Prng.int g 3 with 0 -> M.neg M.one | 1 -> M.one | _ -> M.zero

module GF24 = Gf2k.Make (struct let k = 24 end)
module GF33 = Gf2k.Make (struct let k = 33 end)
module GF32_untabled = Gf2k.Make_untabled (struct let k = 32 end)
module P97 = Zp.Make (struct let p = 97 end)

module Dot_gf16 =
  Dot_check (Gf2k.GF16) (struct
    let tag = "dot gf2k-16 tabled"
    let special = gf2k_special (module Gf2k.GF16)
  end)

module Dot_gf24 =
  Dot_check (GF24) (struct
    let tag = "dot gf2k-24 carry-less"
    let special = gf2k_special (module GF24)
  end)

module Dot_gf32 =
  Dot_check (Gf2k.GF32) (struct
    let tag = "dot gf2k-32 carry-less"
    let special = gf2k_special (module Gf2k.GF32)
  end)

module Dot_gf33 =
  Dot_check (GF33) (struct
    let tag = "dot gf2k-33 word"
    let special = gf2k_special (module GF33)
  end)

module Dot_untabled =
  Dot_check (GF32_untabled) (struct
    let tag = "dot gf2k-32 untabled"
    let special = gf2k_special (module GF32_untabled)
  end)

module Dot_zp =
  Dot_check (P97) (struct
    let tag = "dot zp-97"
    let special = field_special (module P97)
  end)

module Dot_zq =
  Dot_check (Q97) (struct
    let tag = "dot zq-97"
    let special = field_special (module Q97)
  end)

module Dot_wide =
  Dot_check (Gf2_wide.GF64) (struct
    let tag = "dot gf2-wide-64"
    let special = field_special (module Gf2_wide.GF64)
  end)

module Dot_fft =
  Dot_check (Fft_field.GF_k64) (struct
    let tag = "dot fft-k64"
    let special = field_special (module Fft_field.GF_k64)
  end)

(* The carry-less kernel folds the xor of the unreduced products once.
   At every width in 17..32 the sum must still agree with the reference
   loop when it spills past the first fold, which top-heavy operands
   make common: each width whose modulus can spill (deg r >= 2) must
   meet at least 100 such sums. *)
let test_clmul_dot_second_fold () =
  let clmul a b =
    let acc = ref 0 in
    for i = 0 to 31 do
      if a land (1 lsl i) <> 0 then acc := !acc lxor (b lsl i)
    done;
    !acc
  in
  for k = 17 to 32 do
    let module M = Gf2k.Make (struct let k = k end) in
    let dot = Option.get M.dot in
    let deg_r = Gf2k.degree (M.modulus lxor (1 lsl k)) in
    let top = (1 lsl k) - 1 in
    let g = Prng.of_int (1900 + k) in
    let high () = Prng.bits g k lor (top lxor (top lsr 3)) in
    let spilled = ref 0 in
    for trial = 0 to 999 do
      let len = 1 + (trial mod 8) in
      let a = Array.init len (fun _ -> high ()) in
      let b = Array.init len (fun _ -> if trial = 0 then top else high ()) in
      let z = ref 0 in
      for j = 0 to len - 1 do
        z := !z lxor clmul a.(j) b.(j)
      done;
      if Gf2k.degree (!z lsr k) + deg_r >= k then incr spilled;
      let want = ref M.zero in
      for j = 0 to len - 1 do
        want := M.add !want (M.mul_naive (M.of_repr a.(j)) (M.of_repr b.(j)))
      done;
      let got = dot (Array.map M.of_repr a) (Array.map M.of_repr b) len in
      if not (M.equal got !want) then
        Alcotest.failf "k=%d: dot diverges from the naive loop (trial %d)" k trial
    done;
    if deg_r >= 2 && !spilled < 100 then
      Alcotest.failf "k=%d: only %d sums reach the second fold" k !spilled
  done

(* Tabled GF(2^k) multiplication must agree with the naive
   shift-and-xor reference on the complete a x b domain for every
   k <= 12 — the exhaustive regime the issue pins down; k = 16 is
   sampled (the full 2^32 domain is out of test budget). *)
let test_tabled_mul_exhaustive () =
  for k = 1 to 12 do
    let module M = Gf2k.Make (struct let k = k end) in
    Alcotest.(check bool)
      (Printf.sprintf "k=%d is tabled" k)
      true M.tabled;
    let size = 1 lsl k in
    for a = 0 to size - 1 do
      for b = 0 to size - 1 do
        let x = M.of_int a and y = M.of_int b in
        if not (M.equal (M.mul x y) (M.mul_naive x y)) then
          Alcotest.failf "k=%d: mul %d %d diverges from naive" k a b
      done
    done
  done

let test_tabled_mul_sampled_16 () =
  let module M = Gf2k.GF16 in
  let g = Prng.of_int 1616 in
  Alcotest.(check bool) "GF16 is tabled" true M.tabled;
  Alcotest.(check bool) "GF32 is not tabled" false Gf2k.GF32.tabled;
  for _ = 1 to 200_000 do
    let a = M.random g and b = M.random g in
    if not (M.equal (M.mul a b) (M.mul_naive a b)) then
      Alcotest.failf "GF16: mul %s %s diverges from naive" (M.to_string a)
        (M.to_string b)
  done

let test_tabled_mul_ticks () =
  let module M = Gf2k.GF16 in
  let g = Prng.of_int 42 in
  let a = M.random g and b = M.random g in
  let _, tabled = Metrics.with_counting (fun () -> M.mul a b) in
  let _, naive = Metrics.with_counting (fun () -> M.mul_naive a b) in
  Alcotest.(check int) "tabled mul ticks one mult" 1
    tabled.Metrics.field_mults;
  Alcotest.(check int) "naive mul ticks one mult" 1 naive.Metrics.field_mults;
  let _, ti = Metrics.with_counting (fun () -> M.inv a) in
  Alcotest.(check int) "tabled inv ticks one inv" 1 ti.Metrics.field_invs

(* Above the table threshold [mul] is the carry-less product up to
   k = 32 and the word loop beyond: it must agree with the shift-and-xor
   reference at every carry-less width (each of their trinomial and
   pentanomial moduli) and on either side of the word loop's range, on
   random pairs and on the extreme operands 0, 1, 2^(k-1) and 2^k - 1,
   and tick one mult and no add like the reference; [inv] must agree
   with Fermat's a^(2^k - 2). *)
let test_word_mul_matches_naive () =
  List.iter
    (fun k ->
      let module M = Gf2k.Make (struct let k = k end) in
      Alcotest.(check bool) (Printf.sprintf "k=%d is untabled" k) false M.tabled;
      let g = Prng.of_int (7000 + k) in
      let extremes =
        List.map M.of_repr [ 0; 1; 1 lsl (k - 1); (1 lsl k) - 1 ]
      in
      let operands = extremes @ List.init 60 (fun _ -> M.random g) in
      let agree a b =
        if not (M.equal (M.mul a b) (M.mul_naive a b)) then
          Alcotest.failf "k=%d: mul %s %s diverges from naive" k
            (M.to_string a) (M.to_string b)
      in
      List.iter (fun a -> List.iter (agree a) operands) operands;
      for _ = 1 to 20_000 do
        agree (M.random g) (M.random g)
      done;
      let a = M.random g and b = M.random g in
      let _, c = Metrics.with_counting (fun () -> M.mul a b) in
      Alcotest.(check (pair int int))
        (Printf.sprintf "k=%d mul ticks (mults, adds)" k)
        (1, 0)
        (c.Metrics.field_mults, c.Metrics.field_adds);
      List.iter
        (fun a ->
          if not (M.equal a M.zero) then
            if not (M.equal (M.inv a) (M.pow a ((1 lsl k) - 2))) then
              Alcotest.failf "k=%d: inv %s <> a^(2^k-2)" k (M.to_string a))
        operands)
    (List.init 16 (fun i -> 17 + i) @ [ 33; 61 ])

(* The carry-less product reduces x^k + r in two folds; the second
   matters only when the first leaves bits at k or above, i.e. when the
   high half h of the unreduced product has deg h + deg r >= k. Operands
   with their top bits set make that common; each width whose modulus
   can spill (deg r >= 2) must meet at least 100 such pairs, and every
   pair must agree with the reference. *)
let test_clmul_second_fold () =
  let clmul a b =
    let acc = ref 0 in
    for i = 0 to 31 do
      if a land (1 lsl i) <> 0 then acc := !acc lxor (b lsl i)
    done;
    !acc
  in
  for k = 17 to 32 do
    let module M = Gf2k.Make (struct let k = k end) in
    let deg_r = Gf2k.degree (M.modulus lxor (1 lsl k)) in
    let spills a b = Gf2k.degree (clmul a b lsr k) + deg_r >= k in
    let top = (1 lsl k) - 1 and half = 1 lsl (k - 1) in
    let g = Prng.of_int (1700 + k) in
    let high () = Prng.bits g k lor (top lxor (top lsr 3)) in
    let pairs =
      [ (top, top); (half, half); (half, top) ]
      @ List.init 2_000 (fun _ -> (high (), high ()))
    in
    let spilled = ref 0 in
    List.iter
      (fun (a, b) ->
        if spills a b then incr spilled;
        let x = M.of_repr a and y = M.of_repr b in
        if not (M.equal (M.mul x y) (M.mul_naive x y)) then
          Alcotest.failf "k=%d: mul 0x%x 0x%x diverges from naive" k a b)
      pairs;
    if deg_r >= 2 && !spilled < 100 then
      Alcotest.failf "k=%d: only %d pairs reach the second fold" k !spilled
  done

(* [Make] refuses at instantiation a modulus its multiply cannot
   reduce; every supported k must instantiate, tabled exactly up to
   the threshold, with [mul] agreeing with the reference. *)
let test_make_every_k () =
  for k = 1 to 61 do
    let module M = Gf2k.Make (struct let k = k end) in
    Alcotest.(check bool)
      (Printf.sprintf "k=%d tabled" k)
      (k <= Gf2k.table_threshold) M.tabled;
    let g = Prng.of_int (6100 + k) in
    for _ = 1 to 200 do
      let a = M.random g and b = M.random g in
      if not (M.equal (M.mul a b) (M.mul_naive a b)) then
        Alcotest.failf "k=%d: mul %s %s diverges from naive" k
          (M.to_string a) (M.to_string b)
    done
  done

(* [Gf2k.degree] is a binary search; a scan down from bit 62 is its
   reference, over random words of every length and both signs. *)
let test_degree_matches_scan () =
  let scan x =
    let rec go i =
      if i < 0 then -1 else if x land (1 lsl i) <> 0 then i else go (i - 1)
    in
    go 62
  in
  let g = Prng.of_int 6262 in
  let words =
    [ 0; 1; 2; 3; max_int; min_int; -1 ]
    @ List.init 63 (fun i -> 1 lsl i)
    @ List.init 2000 (fun _ -> Prng.bits g (1 + Prng.int g 62))
    @ List.init 200 (fun _ -> Int64.to_int (Prng.next_int64 g))
  in
  List.iter
    (fun x ->
      Alcotest.(check int) (Printf.sprintf "degree 0x%x" x) (scan x)
        (Gf2k.degree x))
    words

let suite =
  Check_gf2k.suite @ Check_wide.suite @ Check_zq.suite @ Check_fft.suite
  @ Dot_gf16.suite @ Dot_gf24.suite @ Dot_gf32.suite @ Dot_gf33.suite
  @ Dot_untabled.suite @ Dot_zp.suite @ Dot_zq.suite @ Dot_wide.suite
  @ Dot_fft.suite
  @ [
      Alcotest.test_case "carry-less dot = naive loop past the second fold"
        `Quick test_clmul_dot_second_fold;
      Alcotest.test_case "tabled mul = naive mul (exhaustive, k<=12)" `Slow
        test_tabled_mul_exhaustive;
      Alcotest.test_case "tabled mul = naive mul (sampled, k=16)" `Quick
        test_tabled_mul_sampled_16;
      Alcotest.test_case "tabled ops tick like naive ops" `Quick
        test_tabled_mul_ticks;
      Alcotest.test_case "word mul = naive mul, inv = a^(2^k-2) (k>16)" `Quick
        test_word_mul_matches_naive;
      Alcotest.test_case "carry-less mul = naive mul past the second fold"
        `Quick test_clmul_second_fold;
      Alcotest.test_case "Make instantiates every k in 1..61" `Quick
        test_make_every_k;
      Alcotest.test_case "degree = scan from bit 62" `Quick
        test_degree_matches_scan;
    ]
