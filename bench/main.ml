(* Benchmark harness.

   Two parts:
   1. The experiment tables (E1-E14 in DESIGN.md): every lemma, theorem
      and comparison in the paper re-measured and printed next to the
      paper's claim. This is the default output.
   2. A bechamel wall-clock suite with one kernel per experiment table,
      run with --micro.

   Usage:
     dune exec bench/main.exe            # all tables, full workloads
     dune exec bench/main.exe -- --quick # all tables, reduced workloads
     dune exec bench/main.exe -- --micro # bechamel timings only
     dune exec bench/main.exe -- --json [--smoke] [--out FILE]
                                         # kernel trajectory: naive vs plan
                                         # ns/op + mult counts, written as
                                         # JSON (default BENCH_latest.json);
                                         # exits non-zero on any plan/naive
                                         # divergence
     dune exec bench/main.exe -- --check-conformance
                                         # measure VSS / Batch-VSS / Bit-Gen
                                         # / Coin-Gen against the paper's
                                         # cost formulas (Lemmas 2/4/6,
                                         # Theorem 2); exit 3 on violation
     dune exec bench/main.exe -- --gate --baseline F --fresh F
                                 [--tolerance PCT] [--alloc-tolerance PCT]
                                         # compare two --json outputs; exit 4
                                         # on op-count regression > PCT
                                         # (default 25), plan allocation
                                         # regression > alloc PCT (default
                                         # 10) or a vanished entry
     dune exec bench/main.exe -- --check-trajectory [--file F]
                                         # validate every BENCH_history.jsonl
                                         # row against its schema; exit 4 on
                                         # malformed rows, duplicate keys or
                                         # an unknown schema
*)

module F32 = Gf2k.GF32
module F16 = Gf2k.GF16
module V32 = Vss.Make (F32)
module V16 = Vss.Make (F16)
module CC16 = Cut_and_choose_vss.Make (F16)
module BG32 = Bit_gen.Make (F32)
module CG32 = Coin_gen.Make (F32)
module CE32 = Coin_expose.Make (F32)
module Pool32 = Pool.Make (F32)
module CB16 = Coin_baselines.Make (F16)

let ideal_oracle seed =
  let g = Prng.of_int seed in
  fun () -> Metrics.without_counting (fun () -> F32.random g)

(* --- bechamel kernels: one per experiment table ------------------- *)

let kernel_e1_vss_soundness_trial () =
  let g = Prng.of_int 1 in
  let n = 7 and t = 2 in
  fun () ->
    let guess = F16.random_nonzero g in
    let alpha, beta = V16.targeted_cheating_dealing g ~n ~t ~guess in
    ignore (V16.run ~n ~t ~alpha ~beta ~r:(F16.random g) ())

let kernel_e2_single_vss () =
  let g = Prng.of_int 2 in
  let n = 7 and t = 2 in
  fun () ->
    let alpha = V32.honest_dealing g ~n ~t ~secret:(F32.random g) in
    let beta = V32.honest_dealing g ~n ~t ~secret:(F32.random g) in
    ignore (V32.run ~n ~t ~alpha ~beta ~r:(F32.random g) ())

let kernel_e4_batch_vss () =
  let g = Prng.of_int 3 in
  let n = 7 and t = 2 and m = 64 in
  fun () ->
    let secrets = Array.init m (fun _ -> F32.random g) in
    let shares = V32.batch_honest_dealing g ~n ~t ~secrets in
    ignore (V32.run_batch ~n ~t ~shares ~r:(F32.random g) ())

let kernel_e6_bit_gen () =
  let prng = Prng.of_int 4 in
  let g = Prng.split prng in
  let n = 13 and t = 2 and m = 64 in
  fun () -> ignore (BG32.run ~prng ~n ~t ~m ~dealer:0 ~r:(F32.random g) ())

let kernel_e9_coin_gen () =
  let prng = Prng.of_int 5 in
  let oracle = ideal_oracle 55 in
  let n = 13 and t = 2 and m = 16 in
  fun () ->
    match CG32.run ~prng ~oracle ~n ~t ~m () with
    | Some _ -> ()
    | None -> failwith "Coin-Gen failed"

let kernel_e10_cut_and_choose () =
  let g = Prng.of_int 6 in
  let n = 7 and t = 2 in
  fun () ->
    let d = CC16.honest_dealing g ~n ~t ~rounds:16 ~secret:(F16.random g) in
    let challenges = Array.init 16 (fun _ -> Prng.bool g) in
    ignore (CC16.run ~n ~t ~challenges d)

let kernel_e10_feldman () =
  let g = Prng.of_int 7 in
  let n = 7 and t = 2 in
  fun () ->
    let d = Feldman_vss.honest_dealing g ~n ~t ~secret:(Feldman_vss.Fq.random g) in
    ignore (Feldman_vss.run ~n ~t d)

let kernel_e11_from_scratch_coin () =
  let g = Prng.of_int 8 in
  fun () -> ignore (CB16.from_scratch_coin g ~n:13 ~t:2)

let kernel_e12_pool_draw () =
  let pool =
    Pool32.create ~prng:(Prng.of_int 9) ~n:13 ~t:2 ~batch_size:64
      ~refill_threshold:3 ~initial_seed:6 ()
  in
  fun () -> ignore (Pool32.draw_kary pool)

let kernel_e14_coin_expose () =
  let module C32 = Sealed_coin.Make (F32) in
  let g = Prng.of_int 10 in
  let coin = C32.dealer_coin g ~n:13 ~t:2 in
  fun () -> ignore (CE32.run coin)

let kernel_field mul random =
  let g = Prng.of_int 11 in
  let a = random g and b = random g in
  fun () -> ignore (mul a b)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let stage f = Staged.stage (f ()) in
  let tests =
    Test.make_grouped ~name:"dprbg" ~fmt:"%s %s"
      [
        Test.make ~name:"E1:vss-soundness-trial"
          (stage kernel_e1_vss_soundness_trial);
        Test.make ~name:"E2:single-vss" (stage kernel_e2_single_vss);
        Test.make ~name:"E4:batch-vss-M64" (stage kernel_e4_batch_vss);
        Test.make ~name:"E6:bit-gen-M64" (stage kernel_e6_bit_gen);
        Test.make ~name:"E9:coin-gen-M16" (stage kernel_e9_coin_gen);
        Test.make ~name:"E10:cut-and-choose" (stage kernel_e10_cut_and_choose);
        Test.make ~name:"E10:feldman" (stage kernel_e10_feldman);
        Test.make ~name:"E11:from-scratch-coin"
          (stage kernel_e11_from_scratch_coin);
        Test.make ~name:"E12:pool-draw" (stage kernel_e12_pool_draw);
        Test.make ~name:"E14:coin-expose" (stage kernel_e14_coin_expose);
        Test.make ~name:"E13:mult-gf32"
          (stage (fun () -> kernel_field F32.mul F32.random));
        Test.make ~name:"E13:mult-wide128"
          (stage (fun () ->
               kernel_field Gf2_wide.GF128.mul Gf2_wide.GF128.random));
        Test.make ~name:"E13:mult-fft128"
          (stage (fun () ->
               kernel_field Fft_field.GF_k128.mul Fft_field.GF_k128.random));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  print_endline "\n== bechamel wall-clock (monotonic ns per run) ==";
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, r) ->
         let ns =
           match Analyze.OLS.estimates r with
           | Some [ x ] -> Printf.sprintf "%12.1f" x
           | _ -> "     (n/a)"
         in
         Printf.printf "  %-34s %s ns\n" name ns)

(* The acceptance grid for --check-conformance: both deployment sizes of
   the ROADMAP, amortized and single-coin batches. Coin-Gen runs at
   t' = min t ((n-1)/6) inside the suite (it needs n >= 6t+1). *)
let conformance () =
  let ppf = Format.std_formatter in
  let ok =
    List.for_all
      (fun (n, t, m) ->
        Format.fprintf ppf "== conformance at n=%d t=%d M=%d ==@." n t m;
        Conformance.report ppf (Conformance.suite ~n ~t ~m))
      [ (16, 5, 1); (16, 5, 64); (32, 10, 1); (32, 10, 64) ]
  in
  if ok then print_endline "conformance: all formulas hold"
  else begin
    print_endline "conformance: FAILED (measured costs left the paper's bounds)";
    exit 3
  end

let gate args =
  let rec find flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find flag rest
    | [] -> None
  in
  let required flag =
    match find flag args with
    | Some v -> v
    | None ->
        Printf.eprintf "--gate requires %s FILE\n" flag;
        exit 2
  in
  let tolerance =
    match find "--tolerance" args with
    | Some v -> float_of_string v /. 100.
    | None -> 0.25
  in
  let alloc_tolerance =
    match find "--alloc-tolerance" args with
    | Some v -> float_of_string v /. 100.
    | None -> 0.10
  in
  if
    not
      (Bench_gate.run ~tolerance ~alloc_tolerance
         ~baseline_path:(required "--baseline")
         ~fresh_path:(required "--fresh") ())
  then exit 4

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let micro_only = List.mem "--micro" args in
  let json_only = List.mem "--json" args in
  let rec out_path = function
    | "--out" :: p :: _ -> p
    | _ :: rest -> out_path rest
    | [] -> "BENCH_latest.json"
  in
  if List.mem "--check-conformance" args then conformance ()
  else if List.mem "--check-trajectory" args then begin
    let rec file_path = function
      | "--file" :: p :: _ -> p
      | _ :: rest -> file_path rest
      | [] -> "BENCH_history.jsonl"
    in
    if not (Trajectory.run ~path:(file_path args) ()) then exit 4
  end
  else if List.mem "--gate" args then gate args
  else if json_only then
    Bench_json.run ~smoke:(List.mem "--smoke" args) ~path:(out_path args)
  else if micro_only then micro ()
  else begin
    Printf.printf
      "D-PRBG experiment harness (Bellare-Garay-Rabin, PODC 1996)\n\
       mode: %s | counters are totals over all players; /pl = per player\n"
      (if quick then "quick" else "full");
    Experiments.all ~quick;
    print_endline "\n---- ablations (DESIGN.md §5) ----";
    Ablations.all ();
    print_endline "\n(run with --micro for bechamel wall-clock timings)"
  end
