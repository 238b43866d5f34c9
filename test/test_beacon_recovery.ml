(* Crash-consistent beacon durability: journal framing and torn-tail
   recovery, write-ahead attach/replay semantics, request dedup across
   restarts, recovery under a degraded or safe-moded pool, and the
   deterministic crash-point harness sweep. *)

module F = Gf2k.GF16
module BC = Beacon.Make (F)
module PL = BC.P
module CE = PL.CE
module CG = Coin_gen.Make (F)
module J = Beacon_journal

let n = 13
let t = 2

let mk_pool ?adversary ?expose_behavior ?max_ba_iterations
    ?max_refill_attempts ?sentinel seed =
  PL.create ?adversary ?expose_behavior ?max_ba_iterations
    ?max_refill_attempts ?sentinel ~prng:(Prng.of_int seed) ~n ~t
    ~batch_size:16 ~refill_threshold:3 ~initial_seed:6 ()

let mk ?key ?(seed = 1) () = BC.create ?key ~pool:(mk_pool seed) ()

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Per-test scratch directories: unique under the system temp dir,
   recursively cleared so reruns start clean. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dprbg-recovery-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let in_scratch name f =
  let dir = scratch name in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- journal framing ------------------------------------------------ *)

let test_journal_roundtrip () =
  in_scratch "roundtrip" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let w = J.create ~sync:J.Flush_only path in
  let payloads = [ "alpha"; ""; String.make 300 'z' ] in
  List.iter (fun p -> J.append w (Bytes.of_string p)) payloads;
  J.sync w;
  J.close w;
  let r = J.recover path in
  Alcotest.(check int) "no torn bytes" 0 r.J.torn_bytes;
  Alcotest.(check int) "seq past the appends" (List.length payloads)
    r.J.next_record_seq;
  Alcotest.(check (list string)) "payloads back verbatim" payloads
    (List.map Bytes.to_string r.J.records);
  (* close is idempotent. *)
  J.close w

let test_journal_open_append_continues () =
  in_scratch "append" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let w = J.create ~sync:J.Flush_only path in
  J.append w (Bytes.of_string "one");
  J.close w;
  let r, w2 = J.open_append ~sync:J.Flush_only path in
  Alcotest.(check int) "one record back" 1 (List.length r.J.records);
  J.append w2 (Bytes.of_string "two");
  J.close w2;
  let r2 = J.recover path in
  Alcotest.(check (list string)) "appended after the existing tail"
    [ "one"; "two" ]
    (List.map Bytes.to_string r2.J.records);
  Alcotest.(check int) "record seq continued" 2 r2.J.next_record_seq;
  (* reset starts the numbering over with an empty file. *)
  let w3 = J.reset ~sync:J.Flush_only path in
  J.close w3;
  let r3 = J.recover path in
  Alcotest.(check int) "reset empties the journal" 0
    (List.length r3.J.records);
  Alcotest.(check int) "reset restarts the seq" 0 r3.J.next_record_seq

(* The tentpole framing guarantee: truncating the file at EVERY byte
   offset yields a clean recovery of a record prefix — never an
   exception, never a half-parsed record. *)
let test_journal_torn_tail_every_offset () =
  in_scratch "torn" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let w = J.create ~sync:J.Flush_only path in
  let payloads = [ "first-record"; "second"; String.make 64 'q' ] in
  List.iter (fun p -> J.append w (Bytes.of_string p)) payloads;
  J.close w;
  let whole =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let torn_path = Filename.concat dir "torn" in
  for cut = 0 to String.length whole - 1 do
    let oc = open_out_bin torn_path in
    output_string oc (String.sub whole 0 cut);
    close_out oc;
    let r = J.recover torn_path in
    let got = List.map Bytes.to_string r.J.records in
    let expect_prefix l = got = List.filteri (fun i _ -> i < l) payloads in
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d recovers a record prefix (got %d)" cut
         (List.length got))
      true
      (expect_prefix (List.length got));
    Alcotest.(check int)
      (Printf.sprintf "cut at %d accounts for every torn byte" cut)
      cut
      (r.J.valid_len + r.J.torn_bytes)
  done

let test_journal_mid_corruption_fatal () =
  in_scratch "mid" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let w = J.create ~sync:J.Flush_only path in
  J.append w (Bytes.of_string "record-zero");
  J.append w (Bytes.of_string "record-one");
  J.close w;
  (* Flip a payload byte of record 0: the damage sits before an intact
     record, so it cannot be a torn write and must be fatal. The
     payload starts after the 3-byte header and the 8-byte frame. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (3 + 8 + 6) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  (match J.recover path with
  | (_ : J.recovery) -> Alcotest.fail "mid-journal corruption was accepted"
  | exception J.Corrupt_journal msg ->
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic names the record: %s" msg)
        true
        (String.length msg > 0));
  (* A wrong magic is fatal too — it is some other file, not a torn
     journal. *)
  let other = Filename.concat dir "other" in
  let oc = open_out_bin other in
  output_string oc "not a journal at all";
  close_out oc;
  match J.recover other with
  | (_ : J.recovery) -> Alcotest.fail "foreign file accepted as a journal"
  | exception J.Corrupt_journal _ -> ()

(* No single-bit flip before the final record may pass as a torn tail.
   A flipped length field makes an interior record overrun end-of-file
   exactly like a cut append; the intact record after it is what gives
   the damage away. Only the final record's own frame is left to the
   torn-tail verdict. *)
let test_journal_flip_before_final_record_fatal () =
  in_scratch "flips" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let w = J.create ~sync:J.Flush_only path in
  let bodies = [ String.make 20 'a'; String.make 21 'b'; String.make 20 'c' ] in
  List.iter (fun b -> J.append w (Bytes.of_string b)) (bodies @ [ "final" ]);
  J.close w;
  let whole =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Bytes.of_string s
  in
  (* 3-byte header, then per record an 8-byte frame and a 4-byte seq. *)
  let final_at =
    List.fold_left (fun at b -> at + 12 + String.length b) 3 bodies
  in
  Alcotest.(check int) "100 bytes precede the final record" 100 final_at;
  let flipped = Filename.concat dir "flipped" in
  for pos = 0 to final_at - 1 do
    for bit = 0 to 7 do
      let b = Bytes.copy whole in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
      let oc = open_out_bin flipped in
      output_bytes oc b;
      close_out oc;
      match J.recover flipped with
      | r ->
          Alcotest.failf
            "flip at byte %d bit %d recovered %d of 4 records with no error"
            pos bit (List.length r.J.records)
      | exception J.Corrupt_journal _ -> ()
    done
  done

let test_crash_point_budget () =
  in_scratch "budget" @@ fun dir ->
  let path = Filename.concat dir "j" in
  let workload () =
    (try Sys.remove path with Sys_error _ -> ());
    let w = J.create ~sync:J.Flush_only path in
    J.append w (Bytes.of_string "aaaa");
    J.append w (Bytes.of_string "bbbb");
    J.close w
  in
  let (), points = J.Crash_point.count workload in
  Alcotest.(check bool)
    (Printf.sprintf "workload has points (%d)" points)
    true (points > 0);
  (* Budget 0 crashes on the very first byte; a budget beyond the count
     completes. Either way the ambient mode is restored. *)
  (match J.Crash_point.with_budget 0 workload with
  | `Crashed -> ()
  | `Completed () -> Alcotest.fail "zero budget did not crash");
  (match J.Crash_point.with_budget (points + 1) workload with
  | `Completed () -> ()
  | `Crashed -> Alcotest.fail "over-budget run crashed");
  let (), again = J.Crash_point.count workload in
  Alcotest.(check int) "counting is deterministic" points again

let test_write_file_atomic () =
  in_scratch "atomic" @@ fun dir ->
  let path = Filename.concat dir "f" in
  J.write_file_atomic path (Bytes.of_string "v1");
  J.write_file_atomic path (Bytes.of_string "v2-longer");
  let ic = open_in_bin path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "last write wins" "v2-longer" got;
  Alcotest.(check bool) "no temp left behind" false
    (Sys.file_exists (path ^ ".tmp"))

(* --- durable beacon: attach / replay -------------------------------- *)

let serve_durable ?(epochs = 3) ?(requests = 2) d =
  List.init epochs (fun _ ->
      for _ = 1 to requests do
        match BC.Durable.request d ~callback:ignore () with
        | Ok _ -> ()
        | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r)
      done;
      ok_or_fail (BC.Durable.close_epoch d))

let test_empty_journal_attach () =
  in_scratch "empty" @@ fun dir ->
  let jp = Filename.concat dir "j" in
  let d, rs = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  Alcotest.(check int) "nothing replayed" 0
    (List.length rs.BC.Durable.replayed);
  Alcotest.(check int) "nothing torn" 0 rs.BC.Durable.torn_bytes;
  Alcotest.(check bool) "journal file created" true (Sys.file_exists jp);
  let served = serve_durable d in
  BC.Durable.close d;
  Alcotest.(check int) "served" 3 (List.length served)

let test_journal_only_recovery () =
  in_scratch "journal-only" @@ fun dir ->
  let jp = Filename.concat dir "j" in
  (* Incarnation 1: no snapshot ever written — crash before the first
     rotation. *)
  let d1, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  let served = serve_durable ~epochs:4 d1 in
  BC.Durable.close d1;
  (* Incarnation 2: a freshly created beacon (same seed) replays the
     whole chain from the genesis head. *)
  let b2 = mk () in
  let d2, rs = BC.Durable.attach ~journal:jp ~sync:J.Flush_only b2 in
  Alcotest.(check int) "all four epochs replayed" 4
    (List.length rs.BC.Durable.replayed);
  Alcotest.(check int) "resumes past the replayed tail" 4 (BC.next_seq b2);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d replays digest-identical" a.BC.seq)
        true
        (Beacon_hash.equal a.BC.digest b.BC.digest))
    served rs.BC.Durable.replayed;
  (* The restored incarnation keeps extending the same verifiable
     chain. *)
  let more = serve_durable ~epochs:2 d2 in
  BC.Durable.close d2;
  (match BC.verify_chain ~key:"dprbg-beacon" (rs.BC.Durable.replayed @ more)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "recovered chain rejected: %s" msg);
  match BC.verify_chain ~key:"dprbg-beacon" more with
  | Ok () -> () (* a slice starting mid-chain verifies too *)
  | Error msg -> Alcotest.failf "chain slice rejected: %s" msg

let test_snapshot_plus_journal_recovery () =
  in_scratch "snap-journal" @@ fun dir ->
  let jp = Filename.concat dir "j" and sp = Filename.concat dir "s" in
  let d1, _ =
    BC.Durable.attach ~journal:jp ~snapshot:sp ~sync:J.Flush_only (mk ())
  in
  let first = serve_durable ~epochs:2 d1 in
  BC.Durable.snapshot d1;
  Alcotest.(check int) "rotation empties the journal" 0
    (List.length (J.recover jp).J.records);
  let second = serve_durable ~epochs:2 d1 in
  BC.Durable.close d1;
  (* Restore from the snapshot; only the post-rotation epochs replay. *)
  let snap =
    let ic = open_in_bin sp in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Bytes.of_string s
  in
  let b2 =
    BC.load ~prng:(Prng.of_int 1) ~batch_size:16 ~refill_threshold:3 snap
  in
  Alcotest.(check int) "snapshot covers the first two" 2 (BC.next_seq b2);
  let d2, rs = BC.Durable.attach ~journal:jp ~snapshot:sp ~sync:J.Flush_only b2 in
  Alcotest.(check int) "journal window replays" 2
    (List.length rs.BC.Durable.replayed);
  Alcotest.(check int) "recovered to the true head" 4 (BC.next_seq b2);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "window digests match" true
        (Beacon_hash.equal a.BC.digest b.BC.digest))
    second rs.BC.Durable.replayed;
  ignore first;
  BC.Durable.close d2

(* The crash window between snapshot rename and journal reset: the
   snapshot already covers every journal record. Replay must skip them
   (no double-count, no link failure) while still recovering their
   dedup entries. *)
let test_snapshot_newer_than_journal_tail () =
  in_scratch "overlap" @@ fun dir ->
  let jp = Filename.concat dir "j" and sp = Filename.concat dir "s" in
  let b1 = mk () in
  let d1, _ = BC.Durable.attach ~journal:jp ~snapshot:sp ~sync:J.Flush_only b1 in
  let served = serve_durable ~epochs:3 d1 in
  (* Write the snapshot bytes WITHOUT rotating the journal — exactly
     the state a crash between rename and reset leaves behind. *)
  J.write_file_atomic sp (BC.save b1);
  BC.Durable.close d1;
  let snap =
    let ic = open_in_bin sp in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Bytes.of_string s
  in
  let b2 =
    BC.load ~prng:(Prng.of_int 1) ~batch_size:16 ~refill_threshold:3 snap
  in
  let d2, rs = BC.Durable.attach ~journal:jp ~snapshot:sp ~sync:J.Flush_only b2 in
  Alcotest.(check int) "every record skipped" 0
    (List.length rs.BC.Durable.replayed);
  Alcotest.(check bool) "dedup entries still recovered" true
    (rs.BC.Durable.deduped > 0);
  Alcotest.(check int) "position from the snapshot" 3 (BC.next_seq b2);
  (* The chain continues exactly where the snapshot says. *)
  let e = List.hd (serve_durable ~epochs:1 d2) in
  Alcotest.(check int) "next close takes seq 3" 3 e.BC.seq;
  Alcotest.(check bool) "and links to the snapshot head" true
    (Beacon_hash.equal e.BC.prev (List.nth served 2).BC.digest);
  BC.Durable.close d2

let test_duplicate_request_id_replays_bit_identical () =
  in_scratch "dedup" @@ fun dir ->
  let jp = Filename.concat dir "j" in
  let d1, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  let got = Hashtbl.create 4 in
  List.iter
    (fun (id, nbits) ->
      match
        BC.Durable.request d1 ~id ~nbits
          ~callback:(fun f -> Hashtbl.replace got f.BC.request_id f)
          ()
      with
      | Ok id' -> Alcotest.(check int) "explicit id echoed" id id'
      | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r))
    [ (10, 9); (11, 21) ];
  let e = ok_or_fail (BC.Durable.close_epoch d1) in
  BC.Durable.close d1;
  (* Restart: the same ids must not trigger a fresh draw — the original
     fulfillment comes back bit for bit, stamped with the original
     epoch, even though the new incarnation's pool randomness
     differs. *)
  let d2, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  List.iter
    (fun (id, _) ->
      let replayed = ref None in
      (match
         BC.Durable.request d2 ~id ~nbits:5 (* recorded nbits wins *)
           ~callback:(fun f -> replayed := Some f)
           ()
       with
      | Ok id' -> Alcotest.(check int) "replay echoes the id" id id'
      | Error r -> Alcotest.failf "replay rejected: %s" (BC.reject_name r));
      match (!replayed, Hashtbl.find_opt got id) with
      | Some f, Some orig ->
          Alcotest.(check bool)
            (Printf.sprintf "id %d replays bit-identical" id)
            true
            (f.BC.bits = orig.BC.bits);
          Alcotest.(check int) "original epoch stamp" orig.BC.epoch f.BC.epoch;
          Alcotest.(check int) "original width"
            (Array.length orig.BC.bits)
            (Array.length f.BC.bits)
      | _ -> Alcotest.failf "id %d did not replay synchronously" id)
    [ (10, 9); (11, 21) ];
  (* Replay lookups see the same window; unknown ids miss. *)
  Alcotest.(check bool) "window replay hits" true
    (BC.Durable.replay d2 ~id:11 <> None);
  Alcotest.(check bool) "unknown id misses" true
    (BC.Durable.replay d2 ~id:999 = None);
  (* A genuinely new id queues for the next epoch instead. *)
  (match BC.Durable.request d2 ~id:999 ~callback:ignore () with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "new id rejected: %s" (BC.reject_name r));
  Alcotest.(check int) "new id is pending, not replayed" 1
    (BC.pending (BC.Durable.beacon d2));
  let e2 = ok_or_fail (BC.Durable.close_epoch d2) in
  Alcotest.(check int) "chain resumed past the replayed epoch" (e.BC.seq + 1)
    e2.BC.seq;
  BC.Durable.close d2

(* Recovery onto a pool that trips Safe_mode while paying the replay
   debt: the beacon must come back Halted — vending after recovery
   would reuse coin positions the published chain already exposed. *)
let test_recovery_halts_on_safe_mode () =
  in_scratch "safe-mode" @@ fun dir ->
  let jp = Filename.concat dir "j" in
  let d1, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  ignore (serve_durable ~epochs:4 d1);
  BC.Durable.close d1;
  (* The restarted node's pool has more liars than the fault bound and
     a hair-trigger active sentinel: the debt draws push it over. *)
  let liars = [ 0; 1; 2 ] in
  let expose_behavior _refill i =
    if List.mem i liars then CE.Send (F.of_int 0xBEEF) else CE.Honest
  in
  let pool =
    mk_pool ~expose_behavior
      ~sentinel:(Some (Sentinel.active ~threshold:1 ()))
      1
  in
  let b2 = BC.create ~pool () in
  let d2, rs = BC.Durable.attach ~journal:jp ~sync:J.Flush_only b2 in
  Alcotest.(check int) "chain state still recovered" 4 (BC.next_seq b2);
  Alcotest.(check int) "all epochs replayed" 4
    (List.length rs.BC.Durable.replayed);
  (match BC.state b2 with
  | BC.Halted _ -> ()
  | s -> Alcotest.failf "expected Halted, got %s" (BC.state_label s));
  (match BC.Durable.close_epoch d2 with
  | Ok _ -> Alcotest.fail "halted beacon vended an epoch"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal is diagnostic: %s" msg)
        true
        (String.length msg > 0));
  BC.Durable.close d2

(* Recovery onto a pool that starves mid-debt: the beacon degrades,
   close_epoch refuses while the debt is outstanding, and the refusal
   names the reason. Starvation depends on which Coin-Gen leaders the
   seed draws, so scan seeds for one that starves during attach —
   every run is deterministic given its seed. *)
let test_recovery_degrades_on_starvation () =
  in_scratch "starved" @@ fun dir ->
  let jp = Filename.concat dir "j" in
  let d1, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only (mk ()) in
  ignore (serve_durable ~epochs:8 ~requests:1 d1);
  BC.Durable.close d1;
  let adversary _refill =
    CG.faulty_with ~as_gradecast_dealer:Gradecast.Dealer_silent
      ~as_ba:(Phase_king.Fixed false)
      (Net.Faults.make ~n ~faulty:[ 0; 1 ])
  in
  let try_seed seed =
    let pool =
      mk_pool ~adversary ~max_ba_iterations:1 ~max_refill_attempts:1 seed
    in
    let b2 = BC.create ~pool () in
    let d2, _ = BC.Durable.attach ~journal:jp ~sync:J.Flush_only b2 in
    match BC.state b2 with
    | BC.Degraded _ -> Some (b2, d2)
    | _ ->
        BC.Durable.close d2;
        None
  in
  let rec scan seed =
    if seed > 256 then
      Alcotest.fail "no seed starved the 8-epoch replay debt (256 tried)"
    else match try_seed seed with Some hit -> hit | None -> scan (seed + 1)
  in
  let b2, d2 = scan 0 in
  Alcotest.(check int) "chain state recovered before the debt" 8
    (BC.next_seq b2);
  (match BC.Durable.close_epoch d2 with
  | Ok _ -> Alcotest.fail "vended with replay debt outstanding"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal names the debt: %s" msg)
        true
        (let needle = "replay debt" in
         let nl = String.length needle and hl = String.length msg in
         let rec go i =
           i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
         in
         go 0));
  BC.Durable.close d2

(* --- the crash-point harness ---------------------------------------- *)

module Harness = Beacon_crash_harness.Make (F)

let test_harness_sweep () =
  in_scratch "harness" @@ fun dir ->
  let seed = 42 and key = "harness-key" in
  let mk_fresh () = BC.create ~key ~pool:(mk_pool seed) () in
  let mk_restore bytes =
    BC.load ~key ~prng:(Prng.of_int seed) ~batch_size:16 ~refill_threshold:3
      bytes
  in
  match
    Harness.run ~epochs:3 ~requests:2 ~snapshot_every:2 ~stride:7 ~key
      ~mk_fresh ~mk_restore ~dir ()
  with
  | Error msg -> Alcotest.failf "harness found a violation: %s" msg
  | Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "swept real crash points (%d)" r.Harness.points)
        true
        (r.Harness.points > 0);
      Alcotest.(check bool)
        (Printf.sprintf "crashes actually fired (%d)" r.Harness.crashes)
        true
        (r.Harness.crashes > 0);
      Alcotest.(check int) "every run converged to the full chain" 3
        r.Harness.epochs

let suite =
  [
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal open_append continues" `Quick
      test_journal_open_append_continues;
    Alcotest.test_case "journal torn tail at every offset" `Quick
      test_journal_torn_tail_every_offset;
    Alcotest.test_case "journal mid-corruption is fatal" `Quick
      test_journal_mid_corruption_fatal;
    Alcotest.test_case "journal flip before the final record is fatal" `Quick
      test_journal_flip_before_final_record_fatal;
    Alcotest.test_case "crash-point counting and budget" `Quick
      test_crash_point_budget;
    Alcotest.test_case "write_file_atomic" `Quick test_write_file_atomic;
    Alcotest.test_case "attach on an empty journal" `Quick
      test_empty_journal_attach;
    Alcotest.test_case "journal-only recovery" `Quick
      test_journal_only_recovery;
    Alcotest.test_case "snapshot + journal recovery" `Quick
      test_snapshot_plus_journal_recovery;
    Alcotest.test_case "snapshot newer than journal tail" `Quick
      test_snapshot_newer_than_journal_tail;
    Alcotest.test_case "duplicate id replays bit-identical" `Quick
      test_duplicate_request_id_replays_bit_identical;
    Alcotest.test_case "recovery halts on safe mode" `Quick
      test_recovery_halts_on_safe_mode;
    Alcotest.test_case "recovery degrades on starvation" `Quick
      test_recovery_degrades_on_starvation;
    Alcotest.test_case "crash-point harness sweep" `Quick test_harness_sweep;
  ]
