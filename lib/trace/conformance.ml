(* The paper's cost formulas (Lemmas 2/4/6, Theorem 2), measured against
   honest protocol runs. Derivations are in the .mli and DESIGN.md
   section 13. Fixed to GF(2^16) — every checked quantity except the
   byte counts is field-independent, and the byte formulas use
   F.byte_size explicitly. *)

module F = Gf2k.GF16
module V = Vss.Make (F)
module BG = Bit_gen.Make (F)
module CG = Coin_gen.Make (F)
module S = Shamir.Make (F)

type bound = Exact of int | At_most of int

type check = {
  lemma : string;
  protocol : string;
  n : int;
  t : int;
  m : int;
  quantity : string;
  formula : string;
  bound : bound;
  measured : int;
}

let passed c =
  match c.bound with
  | Exact v -> c.measured = v
  | At_most v -> c.measured <= v

(* Run [f] under a trace collector and return the metrics snapshot of
   the first span named [name] — the protocol's own cost delta, which
   excludes anything the closure does around it (dealing randomness,
   oracle setup). *)
let measure_span name f =
  let _, trace = Trace.collect f in
  match Trace.find trace ~name with
  | Some s -> s.Trace.metrics
  | None -> failwith (Printf.sprintf "Conformance: no span named %S" name)

let make ~lemma ~protocol ~n ~t ~m (snap : Metrics.snapshot) rows =
  List.map
    (fun (quantity, formula, bound, measured_of) ->
      { lemma; protocol; n; t; m; quantity; formula; bound;
        measured = measured_of snap })
    rows

let adds s = s.Metrics.field_adds
let mults s = s.Metrics.field_mults
let invs s = s.Metrics.field_invs
let interps s = s.Metrics.interpolations
let msgs s = s.Metrics.messages
let byts s = s.Metrics.bytes
let rounds s = s.Metrics.rounds
let bas s = s.Metrics.ba_runs
let gcs s = s.Metrics.gradecasts

(* Grid plans, field tables and other memoized session state tick
   counters when first built; one throwaway run makes the measured run
   see only steady-state protocol costs (the same warm-cache convention
   the bench uses). *)
let warm_grid ~n ~t = ignore (S.grid ~n ~t)

(* ---- Lemma 2: VSS (Fig. 2) -------------------------------------- *)

let vss_checks ~n ~t =
  warm_grid ~n ~t;
  let g = Prng.of_int 0xC0FFEE in
  let run () =
    let alpha = V.honest_dealing g ~n ~t ~secret:(F.random g) in
    let beta = V.honest_dealing g ~n ~t ~secret:(F.random g) in
    ignore (V.run ~n ~t ~alpha ~beta ~r:(F.random g) ())
  in
  run ();
  let snap = measure_span "vss" run in
  let op_ceiling = 2 * n * (1 + ((n - t) * (t + 1))) in
  make ~lemma:"Lemma 2" ~protocol:"vss" ~n ~t ~m:1 snap
    [
      ("rounds", "2", Exact 2, rounds);
      ("messages", "2n", Exact (2 * n), msgs);
      ("bytes", "2n*k/8", Exact (2 * n * F.byte_size), byts);
      ("interpolations", "n", Exact n, interps);
      ("gradecasts", "0", Exact 0, gcs);
      ("ba_runs", "0", Exact 0, bas);
      ("field_mults", "<= 2n(1 + (n-t)(t+1))", At_most op_ceiling, mults);
      ("field_adds", "<= 2n(1 + (n-t)(t+1))", At_most op_ceiling, adds);
      ("field_invs", "0", At_most 0, invs);
    ]

(* ---- Lemma 4: Batch-VSS (Fig. 3) -------------------------------- *)

let batch_vss_checks ~n ~t ~m =
  warm_grid ~n ~t;
  let g = Prng.of_int 0xBA7C4 in
  let secrets = Array.init m (fun _ -> F.random g) in
  let shares = V.batch_honest_dealing g ~n ~t ~secrets in
  let run () = ignore (V.run_batch ~n ~t ~shares ~r:(F.random g) ()) in
  run ();
  let snap = measure_span "batch-vss" run in
  let op_ceiling = 2 * n * (m + ((n - t) * (t + 1))) in
  make ~lemma:"Lemma 4" ~protocol:"batch-vss" ~n ~t ~m snap
    [
      ("rounds", "1", Exact 1, rounds);
      ("messages", "n", Exact n, msgs);
      ("bytes", "n*k/8", Exact (n * F.byte_size), byts);
      ("interpolations", "n", Exact n, interps);
      ("field_mults", "<= 2n(M + (n-t)(t+1))", At_most op_ceiling, mults);
      ("field_adds", "<= 2n(M + (n-t)(t+1))", At_most op_ceiling, adds);
      ("field_invs", "0", At_most 0, invs);
    ]

(* ---- Lemma 6: Bit-Gen (Fig. 4) ---------------------------------- *)

(* One Berlekamp-Welch decode over n points at error budget
   e = (n-t-1)/2 solves an (n x ~n) locator system by Gaussian
   elimination: O(n^3) mults/adds and <= n pivot inversions. 4n^3
   gives the decoder >= 3x headroom at every deployed size. *)
let bw_mult_ceiling n = 4 * n * n * n

let bit_gen_checks ~n ~t ~m =
  warm_grid ~n ~t;
  let g = Prng.of_int 0xB17 in
  let run () =
    let prng = Prng.split g in
    ignore (BG.run ~prng ~n ~t ~m ~dealer:0 ~r:(F.random g) ())
  in
  run ();
  let snap = measure_span "bit-gen" run in
  let op_ceiling = n * (m + bw_mult_ceiling n) in
  make ~lemma:"Lemma 6" ~protocol:"bit-gen" ~n ~t ~m snap
    [
      ("rounds", "2", Exact 2, rounds);
      ("messages", "n^2 - 1", Exact ((n * n) - 1), msgs);
      ("interpolations", "n", Exact n, interps);
      ("gradecasts", "0", Exact 0, gcs);
      ("field_mults", "<= n(M + 4n^3)", At_most op_ceiling, mults);
      ("field_adds", "<= n(M + 4n^3)", At_most op_ceiling, adds);
      (* Every gamma vector fits: no Berlekamp-Welch pivot runs. *)
      ("field_invs", "0", Exact 0, invs);
    ]

(* ---- Theorem 2: Coin-Gen (Fig. 5) ------------------------------- *)

let coin_gen_checks ~n ~t ~m =
  if n < (6 * t) + 1 then
    invalid_arg "Conformance.coin_gen_checks: requires n >= 6t+1";
  warm_grid ~n ~t;
  let g = Prng.of_int 0xC01 in
  let run () =
    let prng = Prng.split g in
    let sg = Prng.split g in
    let oracle () = Metrics.without_counting (fun () -> F.random sg) in
    match CG.run ~prng ~oracle ~n ~t ~m () with
    | Some _ -> ()
    | None -> failwith "Conformance: honest Coin-Gen did not terminate"
  in
  run ();
  let snap = measure_span "coin-gen" run in
  (* Honest runs always accept the first leader: one BA iteration. *)
  let exact_rounds = 5 + (2 * (t + 1)) in
  let exact_msgs = (5 * n * (n - 1)) + ((t + 1) * ((n * n) - 1)) in
  let op_ceiling = (n * n * m) + (6 * n * n * n * n * n) in
  make ~lemma:"Theorem 2" ~protocol:"coin-gen" ~n ~t ~m snap
    [
      ("rounds", "5 + 2(t+1)", Exact exact_rounds, rounds);
      ("messages", "5n(n-1) + (t+1)(n^2-1)", Exact exact_msgs, msgs);
      ("interpolations", "n^2", Exact (n * n), interps);
      ("gradecasts", "n", Exact n, gcs);
      ("ba_runs", "1", Exact 1, bas);
      ("field_mults", "<= n^2 M + 6n^5", At_most op_ceiling, mults);
      ("field_adds", "<= n^2 M + 6n^5", At_most op_ceiling, adds);
      ("field_invs", "0", Exact 0, invs);
      (* The amortization claim: total messages are independent of M, so
         per-coin communication is n + O(n^3/M). *)
      ( "messages (amortized)",
        "<= nM + 6n^3 (n + O(n^3/M) per coin)",
        At_most ((n * m) + (6 * n * n * n)),
        msgs );
    ]

let suite ~n ~t ~m =
  let t_cg = min t ((n - 1) / 6) in
  vss_checks ~n ~t
  @ batch_vss_checks ~n ~t ~m
  @ bit_gen_checks ~n ~t ~m
  @ coin_gen_checks ~n ~t:t_cg ~m

let pp_check ppf c =
  let bound_str =
    match c.bound with
    | Exact v -> Printf.sprintf "= %d" v
    | At_most v -> Printf.sprintf "<= %d" v
  in
  Fmt.pf ppf "%-9s %-10s (n=%-2d t=%-2d M=%-3d) %-22s %10d %-14s %s  [%s]"
    c.lemma c.protocol c.n c.t c.m c.quantity c.measured bound_str c.formula
    (if passed c then "OK" else "FAIL")

let report ppf checks =
  let failures = List.filter (fun c -> not (passed c)) checks in
  List.iter (fun c -> Fmt.pf ppf "%a@." pp_check c) checks;
  Fmt.pf ppf "conformance: %d checks, %d failed@."
    (List.length checks) (List.length failures);
  failures = []
