module F = Gf2k.GF16
module C = Sealed_coin.Make (F)
module PL = Pool.Make (F)
module CE = Coin_expose.Make (F)

let n = 13
let t = 2

let roundtrip coin =
  let w = Wire.Writer.create () in
  C.write w coin;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  let back = C.read r in
  Wire.Reader.expect_end r;
  back

let test_dealer_coin_roundtrip () =
  let g = Prng.of_int 1 in
  for _ = 1 to 20 do
    let coin = C.dealer_coin g ~n ~t in
    let back = roundtrip coin in
    Alcotest.(check int) "n" coin.C.n back.C.n;
    Alcotest.(check int) "t" coin.C.fault_bound back.C.fault_bound;
    Alcotest.(check bool) "shares" true
      (Array.for_all2 F.equal coin.C.shares back.C.shares);
    Alcotest.(check bool) "trusted" true (back.C.trusted = None);
    Alcotest.(check bool) "same value" true
      (F.equal
         (Option.get (C.ground_truth coin))
         (Option.get (C.ground_truth back)))
  done

let test_generated_coin_roundtrip () =
  (* Coins with trusted matrices (from a real Coin-Gen batch) must
     survive, including their exposure behaviour. *)
  let module CG = Coin_gen.Make (F) in
  let og = Prng.of_int 2 in
  let oracle () = Metrics.without_counting (fun () -> F.random og) in
  match CG.run ~prng:(Prng.of_int 3) ~oracle ~n ~t ~m:3 () with
  | None -> Alcotest.fail "coin-gen failed"
  | Some batch ->
      for h = 0 to 2 do
        let coin = CG.coin batch h in
        let back = roundtrip coin in
        Alcotest.(check bool) "trusted present" true (back.C.trusted <> None);
        let v1 = (CE.run coin).(0) and v2 = (CE.run back).(0) in
        Alcotest.(check bool) "same exposure" true
          (match (v1, v2) with Some a, Some b -> F.equal a b | _ -> false)
      done

let test_read_rejects_garbage () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Wire.Reader: truncated input") (fun () ->
      ignore (C.read (Wire.Reader.of_bytes (Bytes.of_string "xy"))))

let test_pool_save_restore () =
  let p =
    PL.create ~prng:(Prng.of_int 4) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  for _ = 1 to 25 do
    ignore (PL.draw_kary p)
  done;
  let saved = PL.save p in
  let before = PL.stats p in
  let q =
    PL.load ~prng:(Prng.of_int 999) ~batch_size:16 ~refill_threshold:3 saved
  in
  let after = PL.stats q in
  Alcotest.(check int) "available preserved" (PL.available p) (PL.available q);
  Alcotest.(check bool) "ledger preserved" true (before = after);
  (* The restored pool keeps serving — without a new dealer. *)
  for _ = 1 to 30 do
    ignore (PL.draw_kary q)
  done;
  let s = PL.stats q in
  Alcotest.(check int) "dealer coins unchanged" 6 s.PL.dealer_coins;
  Alcotest.(check int) "draws served" 55 s.PL.coins_exposed;
  Alcotest.(check int) "no unanimity failures" 0 s.PL.unanimity_failures

(* CRC-32s of [Pool.save] recorded before the stock became a FIFO: the
   same coins in the same order must still produce the same bytes, after
   draws that cross refills and after a proactive refresh. A reload
   rebuilds the stock in that order, so saving it again is
   byte-identical. *)
let test_pool_snapshot_known_answers () =
  let p =
    PL.create ~prng:(Prng.of_int 4) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  for _ = 1 to 25 do
    ignore (PL.draw_kary p)
  done;
  Alcotest.(check int) "the draws cross two refills" 2 (PL.stats p).PL.refills;
  let after_draws = PL.save p in
  Alcotest.(check int) "CRC-32 after the draws" 0xcda97319
    (Wire.Crc32.digest after_draws);
  PL.refresh p;
  Alcotest.(check int) "one refresh ran" 1 (PL.stats p).PL.refreshes;
  let after_refresh = PL.save p in
  Alcotest.(check int) "CRC-32 after the refresh" 0x712b3663
    (Wire.Crc32.digest after_refresh);
  List.iter
    (fun saved ->
      let q =
        PL.load ~prng:(Prng.of_int 9) ~batch_size:16 ~refill_threshold:3 saved
      in
      Alcotest.(check bool) "load then save is byte-identical" true
        (Bytes.equal saved (PL.save q)))
    [ after_draws; after_refresh ]

let test_restore_validation () =
  let p =
    PL.create ~prng:(Prng.of_int 5) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  let saved = PL.save p in
  (* Header-stage diagnostics embed the byte count (satellite 1). *)
  Alcotest.check_raises "bad magic"
    (PL.Corrupt_snapshot
       (Printf.sprintf "Pool.load: bad magic [bytes=%d]" (Bytes.length saved)))
    (fun () ->
      let corrupted = Bytes.copy saved in
      Bytes.set_uint8 corrupted 0 0x00;
      ignore
        (PL.load ~prng:(Prng.of_int 1) ~batch_size:16 ~refill_threshold:3
           corrupted));
  (* Bad parameters alongside intact bytes stay Invalid_argument —
     distinct from corruption. *)
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Pool.load: refill_threshold must be >= 2") (fun () ->
      ignore
        (PL.load ~prng:(Prng.of_int 1) ~batch_size:16 ~refill_threshold:1
           saved))

(* The satellite-2 guarantee: no matter which byte of a snapshot is
   damaged, [load] reports [Corrupt_snapshot] — never a raw decode
   exception from deep inside the payload reader. *)
let load_expecting_corrupt ~ctx bytes =
  match
    PL.load ~prng:(Prng.of_int 1) ~batch_size:16 ~refill_threshold:3 bytes
  with
  | (_ : PL.t) -> Alcotest.failf "%s: corrupted snapshot was accepted" ctx
  | exception PL.Corrupt_snapshot _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt_snapshot, got %s" ctx
        (Printexc.to_string e)

let test_load_rejects_every_flip () =
  let p =
    PL.create ~prng:(Prng.of_int 6) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  let saved = PL.save p in
  for pos = 0 to Bytes.length saved - 1 do
    for bit = 0 to 7 do
      let corrupted = Bytes.copy saved in
      Bytes.set_uint8 corrupted pos
        (Bytes.get_uint8 corrupted pos lxor (1 lsl bit));
      load_expecting_corrupt
        ~ctx:(Printf.sprintf "flip byte %d bit %d" pos bit)
        corrupted
    done
  done

let test_load_rejects_truncation_and_garbage () =
  let p =
    PL.create ~prng:(Prng.of_int 7) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  let saved = PL.save p in
  (* Every proper prefix, including the empty one. *)
  List.iter
    (fun len ->
      load_expecting_corrupt
        ~ctx:(Printf.sprintf "truncated to %d bytes" len)
        (Bytes.sub saved 0 len))
    [ 0; 1; 10; 11; Bytes.length saved / 2; Bytes.length saved - 1 ];
  (* Trailing garbage breaks the declared payload length. *)
  load_expecting_corrupt ~ctx:"trailing byte"
    (Bytes.cat saved (Bytes.make 1 '\x00'));
  (* Arbitrary garbage of assorted sizes. *)
  let g = Prng.of_int 8 in
  for trial = 1 to 50 do
    let len = Prng.int g 64 in
    let garbage = Bytes.init len (fun _ -> Char.chr (Prng.int g 256)) in
    load_expecting_corrupt ~ctx:(Printf.sprintf "garbage trial %d" trial)
      garbage
  done

(* Satellite 2: the v3 snapshot carries the sentinel ledger; evidence
   counts and (recomputed) quarantine flags survive a save/load cycle. *)
let test_ledger_roundtrip () =
  let config = Sentinel.active ~threshold:6 () in
  let p =
    PL.create ~sentinel:(Some config) ~prng:(Prng.of_int 9) ~n ~t
      ~batch_size:16 ~refill_threshold:3 ~initial_seed:6 ()
  in
  let ledger = Option.get (PL.ledger p) in
  Sentinel.Ledger.record ledger ~player:4 Sentinel.Bad_share;
  Sentinel.Ledger.record ledger ~player:7 Sentinel.Silent;
  Sentinel.Ledger.record ledger ~player:11 Sentinel.Equivocation;
  Sentinel.Ledger.record ledger ~player:11 Sentinel.Equivocation;
  Alcotest.(check (list int)) "p11 quarantined before save" [ 11 ]
    (Sentinel.Ledger.quarantine_set ledger);
  let q =
    PL.load ~sentinel:(Some config) ~prng:(Prng.of_int 10) ~batch_size:16
      ~refill_threshold:3 (PL.save p)
  in
  let back = Option.get (PL.ledger q) in
  Alcotest.(check bool) "counts preserved" true
    (Sentinel.Ledger.dump ledger = Sentinel.Ledger.dump back);
  Alcotest.(check (list int)) "quarantine recomputed" [ 11 ]
    (Sentinel.Ledger.quarantine_set back);
  Alcotest.(check int) "score preserved"
    (Sentinel.Ledger.score ledger ~player:4)
    (Sentinel.Ledger.score back ~player:4);
  (* A ledger-free load of the same bytes discards the counts. *)
  let bare =
    PL.load ~sentinel:None ~prng:(Prng.of_int 11) ~batch_size:16
      ~refill_threshold:3 (PL.save p)
  in
  Alcotest.(check bool) "None config discards" true (PL.ledger bare = None)

(* The snapshot formats' magics, pinned here so the fixtures below
   catch a change to them. *)
let pool_magic = 0xD9B6
let beacon_magic = 0xBEA1

let unseal ~magic ~version bytes =
  match Wire.Record.unseal ~magic ~versions:(version, version) bytes with
  | Ok (_, payload) -> payload
  | Error msg -> Alcotest.failf "unseal: %s" msg

(* Keep reading v-previous: a v2 snapshot is exactly the v3 payload
   without the ledger section, under a version-2 header. *)
let make_v2_snapshot () =
  let p =
    PL.create ~sentinel:None ~prng:(Prng.of_int 12) ~n ~t ~batch_size:16
      ~refill_threshold:3 ~initial_seed:6 ()
  in
  for _ = 1 to 10 do
    ignore (PL.draw_kary p)
  done;
  let v3 = unseal ~magic:pool_magic ~version:3 (PL.save p) in
  (* A sentinel-free pool's v3 payload ends with the single flag byte
     0x00; strip it and reseal as version 2. *)
  let payload = Bytes.sub v3 0 (Bytes.length v3 - 1) in
  ( Wire.Record.seal ~magic:pool_magic ~version:2 payload,
    PL.stats p,
    PL.available p )

let test_load_reads_v2 () =
  let v2, saved_stats, saved_avail = make_v2_snapshot () in
  let q = PL.load ~prng:(Prng.of_int 13) ~batch_size:16 ~refill_threshold:3 v2 in
  Alcotest.(check int) "coins preserved" saved_avail (PL.available q);
  Alcotest.(check bool) "stats preserved" true (PL.stats q = saved_stats);
  (* v2 restores with a fresh (all-zero) ledger under the default
     passive config. *)
  let ledger = Option.get (PL.ledger q) in
  Alcotest.(check (list int)) "no suspects" [] (Sentinel.Ledger.suspects ledger);
  (* The restored pool keeps serving. *)
  for _ = 1 to 5 do
    ignore (PL.draw_kary q)
  done;
  (* Versions newer than the writer's are still rejected. *)
  let v9 = Bytes.copy v2 in
  Bytes.set_uint8 v9 2 9;
  load_expecting_corrupt ~ctx:"future version" v9

(* Every-bit-flip hardening holds for v2 bytes too. *)
let test_v2_rejects_every_flip () =
  let v2, _, _ = make_v2_snapshot () in
  for pos = 0 to Bytes.length v2 - 1 do
    for bit = 0 to 7 do
      let corrupted = Bytes.copy v2 in
      Bytes.set_uint8 corrupted pos
        (Bytes.get_uint8 corrupted pos lxor (1 lsl bit));
      load_expecting_corrupt
        ~ctx:(Printf.sprintf "v2 flip byte %d bit %d" pos bit)
        corrupted
    done
  done

(* --- crash-consistent truncation hardening (both snapshot formats) --- *)

(* A crash mid-write can leave any prefix of a snapshot on disk (the
   atomic temp+rename path makes this unreachable in production, but
   the loader is the last line of defense): every proper prefix of
   both snapshot formats must be rejected as Corrupt_snapshot, at
   every byte offset. *)
let test_pool_truncation_every_offset () =
  let p =
    PL.create ~prng:(Prng.of_int 14) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  for _ = 1 to 8 do
    ignore (PL.draw_kary p)
  done;
  let saved = PL.save p in
  for len = 0 to Bytes.length saved - 1 do
    load_expecting_corrupt
      ~ctx:(Printf.sprintf "pool snapshot truncated to %d bytes" len)
      (Bytes.sub saved 0 len)
  done

module BC = Beacon.Make (F)

let make_beacon_snapshot seed =
  let pool =
    PL.create ~prng:(Prng.of_int seed) ~n ~t ~batch_size:16 ~refill_threshold:3
      ~initial_seed:6 ()
  in
  let b = BC.create ~key:"persist-key" ~pool () in
  for _ = 1 to 3 do
    for _ = 1 to 2 do
      match BC.request b ~callback:ignore () with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r)
    done;
    match BC.close_epoch b with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "close failed: %s" msg
  done;
  (BC.save b, b)

let beacon_load_expecting_corrupt ~ctx bytes =
  match
    BC.load ~key:"persist-key" ~prng:(Prng.of_int 1) ~batch_size:16
      ~refill_threshold:3 bytes
  with
  | (_ : BC.t) -> Alcotest.failf "%s: corrupted snapshot was accepted" ctx
  | exception BC.Corrupt_snapshot _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt_snapshot, got %s" ctx
        (Printexc.to_string e)

let test_beacon_truncation_every_offset () =
  let saved, _ = make_beacon_snapshot 15 in
  for len = 0 to Bytes.length saved - 1 do
    beacon_load_expecting_corrupt
      ~ctx:(Printf.sprintf "beacon snapshot truncated to %d bytes" len)
      (Bytes.sub saved 0 len)
  done;
  beacon_load_expecting_corrupt ~ctx:"beacon trailing byte"
    (Bytes.cat saved (Bytes.make 1 '\x00'))

(* Keep reading beacon-v1: exactly the v2 payload without the
   [next_request_id] word, under a version-1 header. Restored ids
   restart at 1 — the pre-journal behavior. *)
let test_beacon_load_reads_v1 () =
  let v2, b = make_beacon_snapshot 16 in
  let payload = unseal ~magic:beacon_magic ~version:2 v2 in
  (* u32 next_seq + 16-byte head + five u32 counters = 40 bytes, then
     the u32 next_request_id v1 lacks. *)
  let v1_payload =
    Bytes.cat (Bytes.sub payload 0 40)
      (Bytes.sub payload 44 (Bytes.length payload - 44))
  in
  let q =
    BC.load ~key:"persist-key" ~prng:(Prng.of_int 17) ~batch_size:16
      ~refill_threshold:3
      (Wire.Record.seal ~magic:beacon_magic ~version:1 v1_payload)
  in
  Alcotest.(check int) "chain position preserved" (BC.next_seq b)
    (BC.next_seq q);
  Alcotest.(check bool) "head preserved" true
    (Beacon_hash.equal (BC.head b) (BC.head q));
  (* The restored beacon keeps serving on the same chain. *)
  (match BC.request q ~callback:ignore () with
  | Ok id -> Alcotest.(check int) "ids restart at 1" 1 id
  | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r));
  match BC.close_epoch q with
  | Ok e -> Alcotest.(check int) "chain continues" (BC.next_seq b) e.BC.seq
  | Error msg -> Alcotest.failf "close failed: %s" msg

let suite =
  [
    Alcotest.test_case "dealer coin roundtrip" `Quick test_dealer_coin_roundtrip;
    Alcotest.test_case "generated coin roundtrip" `Quick
      test_generated_coin_roundtrip;
    Alcotest.test_case "read rejects garbage" `Quick test_read_rejects_garbage;
    Alcotest.test_case "pool save/restore" `Quick test_pool_save_restore;
    Alcotest.test_case "pool snapshot known answers" `Quick
      test_pool_snapshot_known_answers;
    Alcotest.test_case "restore validation" `Quick test_restore_validation;
    Alcotest.test_case "load rejects every bit flip" `Quick
      test_load_rejects_every_flip;
    Alcotest.test_case "load rejects truncation and garbage" `Quick
      test_load_rejects_truncation_and_garbage;
    Alcotest.test_case "ledger roundtrip (v3)" `Quick test_ledger_roundtrip;
    Alcotest.test_case "load reads v2 snapshots" `Quick test_load_reads_v2;
    Alcotest.test_case "v2 rejects every bit flip" `Quick
      test_v2_rejects_every_flip;
    Alcotest.test_case "pool truncation at every offset" `Quick
      test_pool_truncation_every_offset;
    Alcotest.test_case "beacon truncation at every offset" `Quick
      test_beacon_truncation_every_offset;
    Alcotest.test_case "beacon load reads v1 snapshots" `Quick
      test_beacon_load_reads_v1;
  ]
