(* One function per experiment in DESIGN.md's index (E1-E14). Each
   prints a table of measured values next to the paper's claim. Ambient
   Metrics counters are totals across all players; per-player figures
   divide by n (DESIGN.md, "accounting convention"). *)

module type Wide_field = sig
  include Field_intf.S

  val mul_schoolbook : t -> t -> t
  val mul_karatsuba : t -> t -> t
end

let fi = float_of_int

let per_run f =
  let _, snap = Metrics.with_counting f in
  snap

(* ------------------------------------------------------------- E1 -- *)

let lemma1 ~quick =
  let trials = if quick then 4000 else 20000 in
  let n = 7 and t = 2 in
  let rows =
    List.map
      (fun k ->
        let module Fk = Gf2k.Make (struct let k = k end) in
        let module Vk = Vss.Make (Fk) in
        let g = Prng.of_int (1000 + k) in
        let accepts = ref 0 in
        for _ = 1 to trials do
          let guess = Fk.random_nonzero g in
          let alpha, beta = Vk.targeted_cheating_dealing g ~n ~t ~guess in
          if Vk.run ~n ~t ~alpha ~beta ~r:(Fk.random g) () = Vk.Accept then
            incr accepts
        done;
        Table.
          [
            I k;
            I (1 lsl k);
            I trials;
            I !accepts;
            P (fi !accepts /. fi trials);
            P (1.0 /. fi (1 lsl k));
          ])
      [ 4; 6; 8; 10 ]
  in
  Table.print ~title:"E1 (Lemma 1): single-VSS soundness, optimal cheating dealer"
    ~claim:"a cheating dealer passes protocol VSS with probability <= 1/p"
    ~headers:[ "k"; "p"; "trials"; "accepts"; "measured"; "bound 1/p" ]
    rows

(* ------------------------------------------------------------- E2 -- *)

let lemma2 ~quick =
  ignore quick;
  let module F = Gf2k.GF32 in
  let module V = Vss.Make (F) in
  let module O = Coin_oracle.Make (F) in
  let rows =
    List.map
      (fun t ->
        let n = (3 * t) + 1 in
        let g = Prng.of_int (2000 + t) in
        let oracle = O.simulated_shared (Prng.split g) ~n ~t in
        let snap =
          per_run (fun () ->
              let alpha = V.honest_dealing g ~n ~t ~secret:(F.random g) in
              let beta = V.honest_dealing g ~n ~t ~secret:(F.random g) in
              let r = O.draw oracle in
              ignore (V.run ~n ~t ~alpha ~beta ~r ()))
        in
        Table.
          [
            I n;
            I t;
            F (fi snap.Metrics.field_adds /. fi n);
            F (fi snap.Metrics.field_mults /. fi n);
            F (fi snap.Metrics.interpolations /. fi n);
            I snap.Metrics.messages;
            I (3 * n);
            I snap.Metrics.bytes;
            I snap.Metrics.rounds;
          ])
      [ 1; 2; 4; 8 ]
  in
  Table.print
    ~title:"E2 (Lemma 2): single VSS cost per player (incl. coin expose)"
    ~claim:
      "n + k log k + 1 additions, 2 interpolations per player; 2 rounds of n \
       messages of size k (expose adds n more messages and a round)"
    ~headers:
      [
        "n"; "t"; "adds/pl"; "mults/pl"; "interps/pl"; "msgs"; "pred msgs";
        "bytes"; "rounds";
      ]
    rows

(* ------------------------------------------------------------- E3 -- *)

let lemma3 ~quick =
  let trials = if quick then 4000 else 20000 in
  let n = 7 and t = 2 in
  let k = 8 in
  let module Fk = Gf2k.Make (struct let k = 8 end) in
  let module Vk = Vss.Make (Fk) in
  let rows =
    List.map
      (fun m ->
        let g = Prng.of_int (3000 + m) in
        let accepts = ref 0 in
        for _ = 1 to trials do
          let roots =
            Array.of_list
              (List.map
                 (fun i -> Fk.of_int (i + 1))
                 (Prng.sample_distinct g m ((1 lsl k) - 1)))
          in
          let shares = Vk.batch_targeted_cheating_dealing g ~n ~t ~roots in
          if Vk.run_batch ~n ~t ~shares ~r:(Fk.random g) () = Vk.Accept then
            incr accepts
        done;
        Table.
          [
            I m;
            I trials;
            I !accepts;
            P (fi !accepts /. fi trials);
            P (fi m /. fi (1 lsl k));
          ])
      [ 2; 4; 8; 16 ]
  in
  Table.print
    ~title:"E3 (Lemma 3): Batch-VSS soundness, optimal cheating dealer (k=8)"
    ~claim:"a cheating dealer passes Batch-VSS with probability <= M/p"
    ~headers:[ "M"; "trials"; "accepts"; "measured"; "bound M/p" ]
    rows

(* ------------------------------------------------------------- E4 -- *)

let corollary1 ~quick =
  let module F = Gf2k.GF32 in
  let module V = Vss.Make (F) in
  let module O = Coin_oracle.Make (F) in
  let n = 7 and t = 2 in
  let ms = if quick then [ 1; 4; 16; 64; 256 ] else [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ] in
  let rows =
    List.map
      (fun m ->
        let g = Prng.of_int (4000 + m) in
        let oracle = O.simulated_shared (Prng.split g) ~n ~t in
        let secrets = Array.init m (fun _ -> F.random g) in
        let shares = V.batch_honest_dealing g ~n ~t ~secrets in
        let snap =
          per_run (fun () ->
              let r = O.draw oracle in
              ignore (V.run_batch ~n ~t ~shares ~r ()))
        in
        Table.
          [
            I m;
            F (fi snap.Metrics.field_adds /. fi n /. fi m);
            F (fi snap.Metrics.field_mults /. fi n /. fi m);
            F (fi snap.Metrics.interpolations /. fi n /. fi m);
            F (fi snap.Metrics.messages /. fi m);
            F (fi snap.Metrics.bytes /. fi m);
          ])
      ms
  in
  Table.print
    ~title:"E4 (Corollary 1): Batch-VSS amortized verification cost per secret"
    ~claim:
      "amortized 2k log k additions per player and O(1) communication per \
       secret; interpolations vanish as 2/M"
    ~headers:
      [ "M"; "adds/pl/sec"; "mults/pl/sec"; "interps/pl/sec"; "msgs/sec"; "bytes/sec" ]
    rows

(* ------------------------------------------------------------- E5 -- *)

let lemma5 ~quick =
  let trials = if quick then 400 else 1500 in
  let t = 2 in
  let n = 13 in
  let m = 4 in
  let rows =
    List.map
      (fun k ->
        let module Fk = Gf2k.Make (struct let k = k end) in
        let module BGk = Bit_gen.Make (Fk) in
        let g = Prng.of_int (5000 + k) in
        let accepts = ref 0 in
        for s = 1 to trials do
          let prng = Prng.of_int ((7919 * k) + s) in
          let r = Fk.random g in
          let views, _ =
            BGk.run ~dealer_behavior:(BGk.Bad_degree [ 0 ]) ~prng ~n ~t ~m
              ~dealer:0 ~r ()
          in
          if Array.exists (fun v -> v.BGk.check_poly <> None) views then
            incr accepts
        done;
        Table.
          [
            I k;
            I trials;
            I !accepts;
            P (fi !accepts /. fi trials);
            P (fi m /. fi (1 lsl k));
          ])
      [ 4; 6; 8 ]
  in
  Table.print
    ~title:"E5 (Lemma 5): Bit-Gen soundness without broadcast (M=4, n=13, t=2)"
    ~claim:
      "a dealing with some degree-> t polynomial is accepted by any player \
       with probability <= M/p"
    ~headers:[ "k"; "trials"; "accepts"; "measured"; "bound M/p" ]
    rows

(* ------------------------------------------------------------- E6 -- *)

let corollary2 ~quick =
  let module F = Gf2k.GF32 in
  let module BG = Bit_gen.Make (F) in
  let n = 13 and t = 2 in
  let k_bits = F.k_bits in
  let ms = if quick then [ 1; 8; 64; 256 ] else [ 1; 4; 16; 64; 256; 1024 ] in
  let rows =
    List.map
      (fun m ->
        let prng = Prng.of_int (6000 + m) in
        let r = F.random (Prng.split prng) in
        let snap =
          per_run (fun () -> ignore (BG.run ~prng ~n ~t ~m ~dealer:0 ~r ()))
        in
        let bits = fi (m * k_bits) in
        Table.
          [
            I m;
            I (m * k_bits);
            F (fi snap.Metrics.field_adds /. fi n /. bits);
            F (fi snap.Metrics.field_mults /. fi n /. bits);
            F (fi snap.Metrics.messages /. bits);
            F (fi snap.Metrics.bytes /. bits);
            F (fi snap.Metrics.interpolations /. fi n);
          ])
      ms
  in
  Table.print
    ~title:"E6 (Corollary 2): Bit-Gen amortized cost per generated bit"
    ~claim:
      "n log k + O(log k) additions and n + O(1) communication per bit; \
       interpolations per player stay constant in M"
    ~headers:
      [ "M"; "bits"; "adds/pl/bit"; "mults/pl/bit"; "msgs/bit"; "bytes/bit"; "interps/pl" ]
    rows

(* ---------------------------------------------------------- E7/E8 -- *)

module F16 = Gf2k.GF16
module CG16 = Coin_gen.Make (F16)
module CE16 = Coin_expose.Make (F16)
module C16 = Sealed_coin.Make (F16)
module AT16 = Attacks.Make (F16)

let ideal_oracle seed =
  let g = Prng.of_int seed in
  fun () -> Metrics.without_counting (fun () -> F16.random g)

let lemma7 ~quick =
  let runs = if quick then 15 else 50 in
  let n = 13 and t = 2 and m = 4 in
  let g = Prng.of_int 70707 in
  let completed = ref 0 in
  let holds = ref 0 in
  let min_clique = ref n and min_trusted = ref n in
  for seed = 1 to runs do
    let faults = Net.Faults.random g ~n ~t in
    let adversary = AT16.mixed_adversary g ~n ~m faults in
    match
      CG16.run ~adversary ~prng:(Prng.of_int seed)
        ~oracle:(ideal_oracle (seed + 5000)) ~n ~t ~m ()
    with
    | None -> ()
    | Some batch ->
        incr completed;
        let honest = Net.Faults.honest faults in
        let universally_trusted =
          List.filter
            (fun j ->
              List.mem j honest
              && List.for_all (fun i -> batch.CG16.trusted.(i).(j)) honest)
            (List.init n Fun.id)
        in
        let clique_size = List.length batch.CG16.dealers in
        min_clique := min !min_clique clique_size;
        min_trusted := min !min_trusted (List.length universally_trusted);
        if
          clique_size >= n - (2 * t)
          && List.length universally_trusted >= (2 * t) + 1
        then incr holds
  done;
  Table.print
    ~title:"E7 (Lemma 7): Coin-Gen clique guarantees under mixed attacks"
    ~claim:
      "|U| >= n-2t = 4t+1 at all honest players, identical across them, with \
       >= 2t+1 honest universally-usable reconstructors"
    ~headers:
      [ "runs"; "completed"; "guarantee held"; "min |C_l|"; "min honest trusted" ]
    [ Table.[ I runs; I !completed; I !holds; I !min_clique; I !min_trusted ] ]

let lemma8 ~quick =
  let runs = if quick then 40 else 120 in
  let n = 13 and t = 2 and m = 2 in
  let g = Prng.of_int 80808 in
  let histogram = Hashtbl.create 8 in
  let total = ref 0 and completed = ref 0 in
  for seed = 1 to runs do
    let faults = Net.Faults.random g ~n ~t in
    (* Worst case for termination: faulty leaders' proposals fail and
       faulty players vote the BA down. *)
    let adversary =
      CG16.faulty_with ~as_ba:(Phase_king.Fixed false) faults
    in
    match
      CG16.run ~adversary ~prng:(Prng.of_int (seed * 31))
        ~oracle:(ideal_oracle (seed + 9000)) ~n ~t ~m ()
    with
    | None -> ()
    | Some batch ->
        incr completed;
        total := !total + batch.CG16.ba_iterations;
        Hashtbl.replace histogram batch.CG16.ba_iterations
          (1 + Option.value ~default:0
             (Hashtbl.find_opt histogram batch.CG16.ba_iterations))
  done;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []
    |> List.sort compare
    |> List.map (fun (iters, count) -> Table.[ I iters; I count ])
  in
  Table.print
    ~title:"E8 (Lemma 8): Coin-Gen BA iterations until success (adversarial)"
    ~claim:
      (Printf.sprintf
         "constant expected iterations: success prob >= (n-t)/n per draw, so \
          mean <= n/(n-t) = %.2f; measured mean %.2f over %d runs"
         (fi n /. fi (n - t))
         (fi !total /. fi (max 1 !completed))
         !completed)
    ~headers:[ "BA iterations"; "runs" ]
    rows

(* ------------------------------------------------------------- E9 -- *)

let corollary3 ~quick =
  let params = [ (1, 7); (2, 13) ] in
  let ms = if quick then [ 4; 16; 64 ] else [ 4; 16; 64; 256 ] in
  let rows =
    List.concat_map
      (fun (t, n) ->
        List.map
          (fun m ->
            let prng = Prng.of_int ((100 * t) + m) in
            let snap =
              per_run (fun () ->
                  match
                    CG16.run ~prng ~oracle:(ideal_oracle (m + (17 * t))) ~n ~t
                      ~m ()
                  with
                  | Some batch ->
                      (* Expose every coin: the full life cycle. *)
                      for h = 0 to m - 1 do
                        ignore (CE16.run (CG16.coin batch h))
                      done
                  | None -> failwith "Coin-Gen failed")
            in
            Table.
              [
                I n;
                I t;
                I m;
                F (fi (snap.Metrics.field_adds + snap.Metrics.field_mults)
                   /. fi n /. fi m);
                F (fi snap.Metrics.interpolations /. fi n /. fi m);
                F (fi snap.Metrics.messages /. fi m);
                F (fi snap.Metrics.bytes /. fi m);
              ])
          ms)
      params
  in
  Table.print
    ~title:
      "E9 (Theorem 2 / Corollary 3): Coin-Gen + expose, amortized cost per \
       k-ary coin"
    ~claim:
      "amortized O(n log k) operations per coin and n + O(n^4/M) \
       communication: the per-coin overhead of generation dies off as M \
       grows, leaving the exposure interpolation as the bottleneck"
    ~headers:
      [ "n"; "t"; "M"; "ops/pl/coin"; "interps/pl/coin"; "msgs/coin"; "bytes/coin" ]
    rows

(* ------------------------------------------------------------ E10 -- *)

let vss_comparison ~quick =
  ignore quick;
  let module F = Gf2k.GF16 in
  let module V = Vss.Make (F) in
  let module O = Coin_oracle.Make (F) in
  let module CC = Cut_and_choose_vss.Make (F) in
  let n = 7 and t = 2 in
  let g = Prng.of_int 10101 in
  (* bit-operation estimate: one w-bit field addition ~ w bit ops, one
     naive multiplication ~ w^2 — the unit the paper states its costs
     in, and the only fair way to set a 16-bit GF(2^k) next to a
     modular field. *)
  let bitops ~w snap =
    (fi snap.Metrics.field_adds *. fi w)
    +. (fi snap.Metrics.field_mults *. fi w *. fi w)
  in
  let row ?(w = 16) label secrets snap =
    Table.
      [
        S label;
        F (fi snap.Metrics.field_adds /. fi n /. fi secrets);
        F (fi snap.Metrics.field_mults /. fi n /. fi secrets);
        F (fi snap.Metrics.interpolations /. fi n /. fi secrets);
        F (fi snap.Metrics.messages /. fi secrets);
        F (fi snap.Metrics.bytes /. fi secrets);
        F (bitops ~w snap /. fi n /. fi secrets);
      ]
  in
  let ours_single =
    let oracle = O.simulated_shared (Prng.split g) ~n ~t in
    per_run (fun () ->
        let alpha = V.honest_dealing g ~n ~t ~secret:(F.random g) in
        let beta = V.honest_dealing g ~n ~t ~secret:(F.random g) in
        let r = O.draw oracle in
        ignore (V.run ~n ~t ~alpha ~beta ~r ()))
  in
  let m = 64 in
  let ours_batch =
    let oracle = O.simulated_shared (Prng.split g) ~n ~t in
    per_run (fun () ->
        let secrets = Array.init m (fun _ -> F.random g) in
        let shares = V.batch_honest_dealing g ~n ~t ~secrets in
        let r = O.draw oracle in
        ignore (V.run_batch ~n ~t ~shares ~r ()))
  in
  let cc_rounds = 16 (* soundness 2^-16 = our 1/p at k=16 *) in
  let cut_and_choose =
    per_run (fun () ->
        let d = CC.honest_dealing g ~n ~t ~rounds:cc_rounds ~secret:(F.random g) in
        let challenges = Array.init cc_rounds (fun _ -> Prng.bool g) in
        ignore (CC.run ~n ~t ~challenges d))
  in
  let feldman =
    per_run (fun () ->
        let d =
          Feldman_vss.honest_dealing g ~n ~t ~secret:(Feldman_vss.Fq.random g)
        in
        ignore (Feldman_vss.run ~n ~t d))
  in
  Table.print
    ~title:
      "E10 (Section 1.4): VSS scheme comparison, per secret per player \
       (k=16; n=7, t=2)"
    ~claim:
      "paper VSS: 1 check interpolation, error 1/p | CCD cut-and-choose: one \
       interpolation per challenge round (16 rounds ~ same error) | Feldman: \
       t exponentiations = t log p multiplications; measured at a 30-bit p \
       (no bignum installed), the last row extrapolates to the paper's \
       1024-bit p"
    ~headers:
      [ "scheme"; "adds/pl"; "mults/pl"; "interps/pl"; "msgs"; "bytes"; "bitops/pl" ]
    [
      row "paper VSS (Fig. 2)" 1 ours_single;
      row (Printf.sprintf "paper Batch-VSS M=%d" m) m ours_batch;
      row "cut-and-choose (CCD88)" 1 cut_and_choose;
      row ~w:30 "Feldman (dlog, 30-bit p)" 1 feldman;
      (let exps = fi (t + 1) *. 1.5 *. 1024.0 in
       Table.
         [
           S "Feldman @ 1024-bit p (extrapolated)";
           F 0.0;
           F exps;
           F 0.0;
           F 15.0;
           F (fi ((t + 1) * 128) +. fi (n * 128 / n));
           F (exps *. 1024.0 *. 1024.0);
         ]);
    ]

(* ------------------------------------------------------------ E11 -- *)

let coin_comparison ~quick =
  let module F = Gf2k.GF16 in
  let module CB = Coin_baselines.Make (F) in
  let n = 13 and t = 2 in
  let ms = if quick then [ 16; 64 ] else [ 16; 64; 256 ] in
  let dprbg_rows =
    List.map
      (fun m ->
        let prng = Prng.of_int (11000 + m) in
        let snap =
          per_run (fun () ->
              match
                CG16.run ~prng ~oracle:(ideal_oracle (m + 23)) ~n ~t ~m ()
              with
              | Some batch ->
                  for h = 0 to m - 1 do
                    ignore (CE16.run (CG16.coin batch h))
                  done
              | None -> failwith "Coin-Gen failed")
        in
        Table.
          [
            S (Printf.sprintf "D-PRBG batch M=%d" m);
            F (fi (snap.Metrics.field_adds + snap.Metrics.field_mults)
               /. fi n /. fi m);
            F (fi snap.Metrics.interpolations /. fi n /. fi m);
            F (fi snap.Metrics.messages /. fi m);
            F (fi snap.Metrics.bytes /. fi m);
          ])
      ms
  in
  let baseline label f =
    let coins = 20 in
    let g = Prng.of_int 11999 in
    let snap =
      per_run (fun () ->
          for _ = 1 to coins do
            ignore (f g ~n ~t)
          done)
    in
    Table.
      [
        S label;
        F (fi (snap.Metrics.field_adds + snap.Metrics.field_mults)
           /. fi n /. fi coins);
        F (fi snap.Metrics.interpolations /. fi n /. fi coins);
        F (fi snap.Metrics.messages /. fi coins);
        F (fi snap.Metrics.bytes /. fi coins);
      ]
  in
  Table.print
    ~title:"E11 (Section 1.4): amortized cost per shared coin, vs from-scratch"
    ~claim:
      "the D-PRBG's amortized per-coin cost approaches a single exposure \
       interpolation as M grows (Section 5: 'the amortized cost of our \
       method does not exceed this value'); from-scratch needs t+1 of them \
       plus dealing every time; the per-coin dealer needs a trusted party \
       forever"
    ~headers:[ "scheme"; "ops/pl/coin"; "interps/pl/coin"; "msgs/coin"; "bytes/coin" ]
    (dprbg_rows
    @ [
        baseline "from-scratch (t+1 dealers)" (fun g ~n ~t ->
            CB.from_scratch_coin g ~n ~t);
        baseline "trusted dealer per coin" (fun g ~n ~t ->
            CB.trusted_dealer_coin g ~n ~t);
      ])

(* ------------------------------------------------------------ E12 -- *)

let bootstrap ~quick =
  let module F = Gf2k.GF16 in
  let module Pool = Pool.Make (F) in
  let module CGp = Pool.CG in
  let module CEp = Pool.CE in
  let n = 13 and t = 2 in
  let draws = if quick then 150 else 500 in
  let g = Prng.of_int 121212 in
  let fault_sets = Array.init 256 (fun _ -> Net.Faults.random g ~n ~t) in
  let adversary refill =
    CGp.faulty_with ~as_dealer:(CGp.BG.Bad_degree [ 0 ])
      ~as_ba:(Phase_king.Fixed false)
      fault_sets.(refill mod 256)
  in
  let expose_behavior refill i =
    if Net.Faults.is_faulty fault_sets.(refill mod 256) i then
      CEp.Send (F.of_int 0xAB)
    else CEp.Honest
  in
  let pool =
    Pool.create ~adversary ~expose_behavior ~prng:(Prng.split g) ~n ~t
      ~batch_size:64 ~refill_threshold:3 ~initial_seed:6 ()
  in
  for _ = 1 to draws do
    ignore (Pool.draw_kary pool)
  done;
  let s = Pool.stats pool in
  Table.print
    ~title:"E12 (Fig. 1): bootstrapped pool under a mobile adversary"
    ~claim:
      "the initial dealer seed is consumed once; every subsequent batch is \
       generated from surviving coins; supply never pauses even though the \
       corrupted set changes every refill"
    ~headers:
      [
        "draws"; "refills"; "dealer coins"; "generated"; "seed consumed";
        "unanimity failures";
      ]
    [
      Table.
        [
          I s.Pool.coins_exposed;
          I s.Pool.refills;
          I s.Pool.dealer_coins;
          I s.Pool.generated_coins;
          I s.Pool.seed_coins_consumed;
          I s.Pool.unanimity_failures;
        ];
    ]

(* ------------------------------------------------------------ E13 -- *)

(* ns per product of [mul], chained over 256 random non-zero elements:
   warm up, then time batches until >= 0.2 s elapsed. *)
let time_mul ?(seed = 13131) random_nonzero mul =
  let g = Prng.of_int seed in
  let xs = Array.init 256 (fun _ -> random_nonzero g) in
  let batch () =
    let acc = ref xs.(0) in
    for i = 1 to 255 do
      acc := mul !acc xs.(i)
    done;
    !acc
  in
  ignore (batch ());
  let start = Sys.time () in
  let iters = ref 0 in
  while Sys.time () -. start < 0.2 do
    ignore (batch ());
    incr iters
  done;
  let elapsed = Sys.time () -. start in
  elapsed /. fi (!iters * 255) *. 1e9

let time_mults (type a) (module F : Field_intf.S with type t = a) =
  time_mul F.random_nonzero F.mul

let field_crossover ~quick =
  ignore quick;
  (* The naive rows time the shift-and-xor / schoolbook reference
     explicitly: [Gf2k.Make.mul] runs off exp/log tables up to k = 16,
     the carry-less product up to 32 and a branch-free word loop above,
     and [Gf2_wide.mul] dispatches to Karatsuba above the limb
     threshold; either would silently turn a paper-baseline row into the
     production path. *)
  let time_naive (module K : Gf2k.S) = time_mul K.random_nonzero K.mul_naive in
  let time_schoolbook (module W : Wide_field) =
    time_mul W.random_nonzero W.mul_schoolbook
  in
  let naive =
    [
      ("naive GF(2^16)", 16, time_naive (module Gf2k.GF16));
      ("naive GF(2^32)", 32, time_naive (module Gf2k.GF32));
      ("naive GF(2^61)", 61, time_naive (module Gf2k.GF61));
      ("naive GF(2^64) wide", 64, time_schoolbook (module Gf2_wide.GF64));
      ("naive GF(2^128) wide", 128, time_schoolbook (module Gf2_wide.GF128));
      ("naive GF(2^256) wide", 256, time_schoolbook (module Gf2_wide.GF256));
    ]
  in
  let fft =
    [
      ("FFT GF(q^l) ~k=64", 64, time_mults (module Fft_field.GF_k64));
      ("FFT GF(q^l) ~k=128", 128, time_mults (module Fft_field.GF_k128));
      ("FFT GF(q^l) ~k=256", 256, time_mults (module Fft_field.GF_k256));
    ]
  in
  (* Production rows (optimizations, not the paper's baseline): the
     same fields' [mul] — tabled at k = 16, the carry-less product at 32,
     the word loop at 61, Karatsuba on the wide words. *)
  let time_karatsuba (module W : Wide_field) =
    time_mul ~seed:13132 W.random_nonzero W.mul_karatsuba
  in
  let production =
    [
      ("tabled GF(2^16)", 16, time_mults (module Gf2k.GF16));
      ("carry-less GF(2^32)", 32, time_mults (module Gf2k.GF32));
      ("word GF(2^61)", 61, time_mults (module Gf2k.GF61));
      ("karatsuba GF(2^128)", 128, time_karatsuba (module Gf2_wide.GF128));
      ("karatsuba GF(2^256)", 256, time_karatsuba (module Gf2_wide.GF256));
    ]
  in
  Table.print
    ~title:"E13 (Section 2): naive vs FFT field multiplication"
    ~claim:
      "'in practice, when k is small, working over GF(2^k) with the naive \
       O(k^2) multiplication is faster than working over our special field \
       with the O(k log k) multiplication, because of the sizes of the \
       constants involved. So an implementation should be careful about \
       which method it uses.'"
    ~headers:[ "field"; "k"; "ns/mult" ]
    (List.map
       (fun (label, k, ns) -> Table.[ S label; I k; F ns ])
       (naive @ fft @ production));
  (* Fit the two asymptotic models on the wide-word points and report the
     predicted crossover — the 'figure' of this experiment. *)
  let fit points f =
    let pts = List.filter (fun (_, k, _) -> k >= 64) points in
    List.fold_left (fun acc (_, k, ns) -> acc +. (ns /. f (fi k))) 0.0 pts
    /. fi (List.length pts)
  in
  let c_naive = fit naive (fun k -> k *. k) in
  let c_fft = fit fft (fun k -> k *. (log k /. log 2.0)) in
  let rec solve k i =
    if i = 0 then k
    else solve (c_fft *. (log k /. log 2.0) /. c_naive) (i - 1)
  in
  let k_star = solve 512.0 40 in
  Printf.printf
    "fit: naive ~ %.3f*k^2 ns, FFT ~ %.3f*k*log2(k) ns => predicted \
     crossover at k ~ %.0f bits\n\
     (matches the paper: at the security parameters the protocols use, the \
     naive method wins)\n"
    c_naive c_fft k_star

(* ------------------------------------------------------------ E14 -- *)

let unanimity ~quick =
  let module F8 = Gf2k.Make (struct let k = 8 end) in
  let module CG8 = Coin_gen.Make (F8) in
  let module CE8 = Coin_expose.Make (F8) in
  let module AT8 = Attacks.Make (F8) in
  let n = 13 and t = 2 and m = 4 in
  let runs = if quick then 150 else 600 in
  let g = Prng.of_int 141414 in
  let oracle seed =
    let og = Prng.of_int seed in
    fun () -> Metrics.without_counting (fun () -> F8.random og)
  in
  let completed = ref 0 and bad_dealer_in = ref 0 and failures = ref 0 in
  for seed = 1 to runs do
    let faults = Net.Faults.make ~n ~faulty:[ 2; 9 ] in
    (* The optimal attack: faulty dealers deal high-degree sharings whose
       batch combination collapses to degree t on a guessed set of coin
       values (Lemma 3's construction), hoping the exposed r lands there;
       if it does, the bad dealer enters the clique and the batch's coins
       are not degree-t shared — the event behind the M n 2^-k unanimity
       bound. *)
    let adversary =
      {
        (CG8.faulty_with faults) with
        CG8.as_dealer =
          (fun i ->
            if Net.Faults.is_faulty faults i then
              CG8.BG.Matrix (AT8.unanimity_attack_matrix g ~n ~t ~m)
            else CG8.BG.Honest_dealer);
        as_gamma = (fun _ -> CG8.Honest_vec);
      }
    in
    match
      CG8.run ~adversary ~prng:(Prng.of_int (seed * 101)) ~oracle:(oracle seed)
        ~n ~t ~m ()
    with
    | None -> ()
    | Some batch ->
        incr completed;
        let bad_in = List.mem 2 batch.CG8.dealers || List.mem 9 batch.CG8.dealers in
        if bad_in then incr bad_dealer_in;
        for h = 0 to m - 1 do
          let values = CE8.run (CG8.coin batch h) in
          let honest = Net.Faults.honest faults in
          let honest_values = List.map (fun i -> values.(i)) honest in
          let ok =
            match honest_values with
            | Some first :: rest ->
                List.for_all
                  (function Some v -> F8.equal v first | None -> false)
                  rest
            | _ -> false
          in
          if not ok then incr failures
        done
  done;
  Table.print
    ~title:"E14: unanimity bound under the optimal bad-dealer attack (k=8)"
    ~claim:
      (Printf.sprintf
         "coins are unanimous except with probability <= M n 2^-k; the attack \
          vehicle (bad dealer slipping into the clique) succeeds per dealer \
          with probability ~ M/p = %.4f, and only those batches can fail"
         (fi m /. 256.0))
    ~headers:
      [ "runs"; "completed"; "bad dealer in clique"; "non-unanimous coins" ]
    [ Table.[ I runs; I !completed; I !bad_dealer_in; I !failures ] ]

(* ------------------------------------------------------------------ *)

let all ~quick =
  lemma1 ~quick;
  lemma2 ~quick;
  lemma3 ~quick;
  corollary1 ~quick;
  lemma5 ~quick;
  corollary2 ~quick;
  lemma7 ~quick;
  lemma8 ~quick;
  corollary3 ~quick;
  vss_comparison ~quick;
  coin_comparison ~quick;
  bootstrap ~quick;
  field_crossover ~quick;
  unanimity ~quick
