(* Beacon service: batched vending, chain integrity, backpressure,
   degraded/halted surfacing, and mid-epoch snapshot resume. *)

module F = Gf2k.GF16
module BC = Beacon.Make (F)
module PL = BC.P
module CE = PL.CE

let n = 13
let t = 2

let mk_pool ?expose_behavior ?sentinel seed =
  PL.create ?expose_behavior ?sentinel ~prng:(Prng.of_int seed) ~n ~t
    ~batch_size:16 ~refill_threshold:3 ~initial_seed:6 ()

let mk ?key ?max_pending ?(seed = 1) () =
  BC.create ?key ?max_pending ~pool:(mk_pool seed) ()

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* --- hash ----------------------------------------------------------- *)

let test_hash_basics () =
  let d1 = Beacon_hash.digest (Bytes.of_string "hello beacon") in
  let d2 = Beacon_hash.digest (Bytes.of_string "hello beacon") in
  let d3 = Beacon_hash.digest (Bytes.of_string "hello beacoN") in
  Alcotest.(check bool) "digest is deterministic" true (Beacon_hash.equal d1 d2);
  Alcotest.(check bool) "one flipped byte changes it" false
    (Beacon_hash.equal d1 d3);
  let m1 = Beacon_hash.mac ~key:"k1" (Bytes.of_string "msg") in
  let m2 = Beacon_hash.mac ~key:"k2" (Bytes.of_string "msg") in
  Alcotest.(check bool) "MAC separates keys" false (Beacon_hash.equal m1 m2);
  Alcotest.(check bool) "MAC separates from digest" false
    (Beacon_hash.equal m1 (Beacon_hash.digest (Bytes.of_string "msg")));
  Alcotest.(check bool) "hex round-trips" true
    (match Beacon_hash.of_hex (Beacon_hash.to_hex d1) with
    | Ok d -> Beacon_hash.equal d d1
    | Error _ -> false);
  Alcotest.(check bool) "bytes round-trip" true
    (Beacon_hash.equal (Beacon_hash.of_bytes (Beacon_hash.to_bytes d1)) d1);
  Alcotest.(check bool) "bad hex is rejected" true
    (Result.is_error (Beacon_hash.of_hex "zz"))

(* --- known answers ----------------------------------------------------- *)

(* Digests, MACs, a chain head and vended bits recorded with the
   record-based sponge and the per-request preimage writer that came
   before the allocation-free vend path. Journals and snapshots written
   by that build must still verify on replay, and dedup must return the
   bits it first vended, so none of these values may ever change. *)

let kat_lengths = List.init 18 Fun.id @ [ 33 ]

let kat_message len =
  Bytes.init len (fun i -> Char.chr (((i * 131) + 7) land 0xFF))

let kat_digests =
  [
    "5649eed9dd9581e2939b9390480ff45b";
    "e9f0dfa6f7e99580773022c34bd5244a";
    "90070409f8bfe4ce0d5313e3da6f87c8";
    "d685f34f795bdc8aeca634c68b2ceea4";
    "a75ce7fe9628691ca7c5ddbb6117be81";
    "20d262b59f7f7931b9a36b533e9a81d5";
    "81d1fc7f776c6c49ef59aa1535c3b302";
    "63cca42063d1b2ddf197b4bbdcc6edfb";
    "9cc2c74f05b337743b758554c49aea61";
    "5035e7d81be922452f97e06e4c841f52";
    "b91aefed6bfa9b5c20ee4264241f8483";
    "bb27b6959ecf574964dd15e4649465c0";
    "e4b0182fbdf25df34df1343d21548ec5";
    "93aaa23f2aeae09cfda5e025c6ba133f";
    "b73f578c51aad9630fac334112a73161";
    "0127790d3102e008750cf4938ed6b15f";
    "1a20e8ee3a82ad6a5aa5f39a9d530d73";
    "420f2f9574f8feb478524935f411bf4a";
    "fbdb9ab2f24b5c61cb14d25616940004";
  ]

let kat_macs =
  [
    ( "",
      [
        "d8488a7464a9d57b8391439b4fe5cadd";
        "0aaed4c4d18c9d061091a55c1ebcfef0";
        "6fab065f1834ee513c7cd235e16fa428";
        "c39e30d98f9302325e4b5b89e16a9f8f";
        "412a9050f04d5f3811f1c98e0151348c";
        "5809d9043ba214f95655414b035c581c";
        "2606b05099201cf434da1b8ed493d7ec";
        "8b14e32bba28b7a2d8d037976fca4040";
        "bd8358d34cfc74fcb729c2690cae7834";
        "e157b9d8bf55ad0f47d9dff632df6e6d";
        "2742f6b404b86533b3e001dd75343211";
        "7e1c084d55870a5de68b68705137e23f";
        "db5fe5a100218aca8b4ce0b6ee999003";
        "4fec81d537ba5dd364436e968bf37367";
        "3164173e06f2df2907cb437c16bf1ce6";
        "213279af554399c381f747ba75b9677f";
        "a5943277af2e1091cce82baeb141766a";
        "cc757ea90e7f8365e8e0d4679ce039ac";
        "9ebcb253184c5dde0b5e2feec79829c0";
      ] );
    ( "dprbg-beacon",
      [
        "7cee419be3b2e3b15d2611d0f4488b6b";
        "284fdf14ac648742afed0739fdec3795";
        "b685aa1ab46d8d81507a68e1327850bc";
        "00ed699ee12c3efee8cb72432927b625";
        "704e7cc0a604046317fddd230dcb6712";
        "fa831ab61e6b0f0ee2450bd59723da49";
        "4a568837a4b9a34a62ad4856fc8f7cdd";
        "9fc83df987fac1e019c35c6b2d798701";
        "2c7199bb98c40f630577236886e11657";
        "0e33a3e2f7b527a5493a2ad7ab6ccd5a";
        "599a923151c4b4b5a5cc2372980b6eb1";
        "470cc53044d1859447b70ce4ca75c02a";
        "7ac3552d709ac9cdc3d877d3dabcc9ff";
        "a887a767c0c874c49e53a7cabf078d2c";
        "626ce22a14e36da5d5cf3e391fdca7d0";
        "b88d9ef78b52596823363f1400169aff";
        "badecbeb365d7cde27581bee257ad4f1";
        "09ca26100b1b153f5e986c66d323c3b0";
        "a8decc6872e1663f340479d336923578";
      ] );
    ( "nine-byte",
      [
        "b4febceb1c89ac7c53b83cf8faf8015d";
        "ab229e49a97e2e72e952677a2f053ebf";
        "cfb9b32689342044bac8243688c80f6c";
        "cd6e98e4bf8ffa4f440b9c4d410da982";
        "bd7c652d872daa81007d38c0f1ad8654";
        "201fa57e8c06de7d4f31bc17f2691480";
        "1192c56d9a5210953a6b4efa67258075";
        "6c26aaebbb7700311f57ebf6179642c4";
        "afca6435e273a0116ff9d6e53eb1c6bf";
        "20cd643b4bc71fa571a182365e78a0a8";
        "787ddcd8c279f539a4e273e79dcf6baf";
        "d34888278c20c3e2d005d6934858da95";
        "1e80ba51ff4077821da1f46360800d28";
        "fcd908f4fb357a6ee021a858022471a5";
        "dfa31449eeb024b509d4f87cbf37132b";
        "0d2de08251c78d32b9e0439fe009d440";
        "f2fd1ccffd47958a9b02c7de71bfdba2";
        "5ad5d9154217919641c73a6bb5468ba3";
        "4a411c0299723e5bd6778701079cb601";
      ] );
  ]

let test_hash_known_answers () =
  let hexes f =
    List.map (fun len -> Beacon_hash.to_hex (f (kat_message len))) kat_lengths
  in
  Alcotest.(check (list string))
    "digests" kat_digests (hexes Beacon_hash.digest);
  List.iter
    (fun (key, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "MACs under key %S" key)
        expected
        (hexes (Beacon_hash.mac ~key)))
    kat_macs;
  Alcotest.(check (list int64))
    "PRNG seeds"
    [ 5159774897943201474L; -5360551849850826856L; -1813281731970194524L ]
    (List.map
       (fun len -> Beacon_hash.to_seed (Beacon_hash.digest (kat_message len)))
       [ 0; 9; 33 ])

(* Six epochs over a GF(2^16) pool, crossing a refill, with widths 1,
   16 (the field's default), 64 and 65 and with every other request
   under a client id. The vended bits are hashed with MD5, which
   nothing in the beacon uses. *)
let test_vend_known_answers () =
  let b = BC.create ~key:"kat-key" ~pool:(mk_pool 2024) () in
  let vended = Buffer.create 1024 in
  let record f =
    Buffer.add_string vended
      (Printf.sprintf "%d@%d:" f.BC.request_id f.BC.epoch);
    Array.iter
      (fun bit -> Buffer.add_char vended (if bit then '1' else '0'))
      f.BC.bits;
    Buffer.add_char vended '\n'
  in
  for epoch = 0 to 5 do
    List.iteri
      (fun j nbits ->
        let id =
          if j mod 2 = 1 then Some ((1000 * (epoch + 1)) + j) else None
        in
        match BC.request b ?id ~nbits ~callback:record () with
        | Ok _ -> ()
        | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r))
      [ 1; 16; 64; 65 ];
    ignore (ok_or_fail (BC.close_epoch b))
  done;
  Alcotest.(check int) "the run crosses a refill" 1
    (PL.stats (BC.pool b)).PL.refills;
  Alcotest.(check string) "chain head" "9d08376c3ada705f9208afc46ebbfcee"
    (Beacon_hash.to_hex (BC.head b));
  Alcotest.(check string) "vended bits" "2ec659c99e98b5496b45620f98e4d51e"
    (Digest.to_hex (Digest.string (Buffer.contents vended)))

(* The sponge against a verbatim copy of the record-based one it
   replaced, over messages of 0-64 bytes (every partial-block length)
   and keys of 0-24 bytes. *)
let prop_sponge_matches_reference =
  let module R = Beacon_hash_reference in
  QCheck.Test.make ~count:500 ~name:"sponge matches the record-based reference"
    QCheck.(
      pair
        (string_of_size (Gen.int_range 0 64))
        (string_of_size (Gen.int_range 0 24)))
    (fun (msg, key) ->
      let b = Bytes.of_string msg in
      let same h r =
        Bytes.equal (Beacon_hash.to_bytes h) (R.to_bytes r)
        && Int64.equal (Beacon_hash.to_seed h) (R.to_seed r)
      in
      let d = Beacon_hash.digest b and m = Beacon_hash.mac ~key b in
      same d (R.digest b)
      && same m (R.mac ~key b)
      && Bytes.to_string b = msg)

(* --- liveness and amortization -------------------------------------- *)

let test_vend_liveness () =
  let b = mk () in
  let got = ref [] in
  let ids =
    List.init 10 (fun _ ->
        match BC.request b ~callback:(fun f -> got := f :: !got) () with
        | Ok id -> id
        | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r))
  in
  Alcotest.(check int) "all queued" 10 (BC.pending b);
  let e = ok_or_fail (BC.close_epoch b) in
  Alcotest.(check int) "one coin vends all ten" 10 e.BC.vended;
  Alcotest.(check int) "queue drained" 0 (BC.pending b);
  Alcotest.(check (list int)) "callbacks fire in admission order" ids
    (List.rev_map (fun f -> f.BC.request_id) !got);
  List.iter
    (fun f ->
      Alcotest.(check int) "field-width bits by default" F.k_bits
        (Array.length f.BC.bits);
      Alcotest.(check int) "stamped with the vending epoch" e.BC.seq
        f.BC.epoch)
    !got;
  let s = BC.stats b in
  Alcotest.(check int) "stats count the vends" 10 s.BC.vended;
  Alcotest.(check int) "one epoch" 1 s.BC.epochs

let test_vend_determinism () =
  let run () =
    let b = mk () in
    let bits = ref [] in
    for _ = 1 to 3 do
      for _ = 1 to 5 do
        match BC.request b ~nbits:17 ~callback:(fun f -> bits := f.BC.bits :: !bits) () with
        | Ok _ -> ()
        | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r)
      done;
      ignore (ok_or_fail (BC.close_epoch b))
    done;
    (List.map (fun e -> Beacon_hash.to_hex e.BC.digest) (BC.chain b), !bits)
  in
  let chain1, bits1 = run () in
  let chain2, bits2 = run () in
  Alcotest.(check (list string)) "same seed, same chain" chain1 chain2;
  Alcotest.(check bool) "same seed, same vended bits" true (bits1 = bits2);
  (* Distinct requests in one epoch must not share a stream. *)
  match bits1 with
  | a :: b :: _ -> Alcotest.(check bool) "streams differ per request" false (a = b)
  | _ -> Alcotest.fail "expected vended bits"

(* --- chain integrity ------------------------------------------------ *)

let serve_epochs ?(epochs = 4) ?(requests = 3) b =
  for _ = 1 to epochs do
    for _ = 1 to requests do
      match BC.request b ~callback:ignore () with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r)
    done;
    ignore (ok_or_fail (BC.close_epoch b))
  done

let test_chain_verifies_and_tamper_detected () =
  let b = mk ~key:"test-key" () in
  serve_epochs b;
  let chain = BC.chain b in
  (match BC.verify_chain ~key:"test-key" chain with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "honest chain rejected: %s" msg);
  (match BC.verify_chain ~key:"wrong-key" chain with
  | Ok () -> Alcotest.fail "wrong key accepted"
  | Error msg ->
      Alcotest.(check bool) "wrong key fails on the MAC" true
        (String.length msg > 0));
  let tampered =
    List.map
      (fun e -> if e.BC.seq = 2 then { e with BC.vended = e.BC.vended + 1 } else e)
      chain
  in
  (match BC.verify_chain ~key:"test-key" tampered with
  | Ok () -> Alcotest.fail "tampered field accepted"
  | Error _ -> ());
  let dropped = List.filter (fun e -> e.BC.seq <> 1) chain in
  match BC.verify_chain ~key:"test-key" dropped with
  | Ok () -> Alcotest.fail "dropped epoch accepted"
  | Error _ -> ()

let test_transcript_roundtrip () =
  let b = mk ~key:"test-key" () in
  serve_epochs b;
  let chain = BC.chain b in
  let parsed =
    List.map
      (fun e ->
        match BC.epoch_of_json (BC.epoch_to_json e) with
        | Ok e' -> e'
        | Error msg -> Alcotest.failf "roundtrip failed: %s" msg)
      chain
  in
  Alcotest.(check bool) "roundtrip preserves every field" true (parsed = chain);
  (match BC.verify_chain ~key:"test-key" parsed with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "parsed chain rejected: %s" msg);
  Alcotest.(check bool) "garbage line is an Error, not an exception" true
    (Result.is_error (BC.epoch_of_json "{\"schema\":\"nope\"}"))

(* --- admission control ---------------------------------------------- *)

let test_queue_full_sheds () =
  let b = mk ~max_pending:2 () in
  let admit () = BC.request b ~callback:ignore () in
  Alcotest.(check bool) "first admitted" true (Result.is_ok (admit ()));
  Alcotest.(check bool) "second admitted" true (Result.is_ok (admit ()));
  (match admit () with
  | Error BC.Queue_full -> ()
  | Ok _ -> Alcotest.fail "third admitted past max_pending"
  | Error r -> Alcotest.failf "wrong reject: %s" (BC.reject_name r));
  let e = ok_or_fail (BC.close_epoch b) in
  Alcotest.(check int) "both queued vend" 2 e.BC.vended;
  Alcotest.(check int) "shed recorded on the epoch" 1 e.BC.shed;
  Alcotest.(check int) "shed attributed to the queue bound" 1
    (BC.stats b).BC.shed_queue_full

(* Exactly t persistent liars under an active sentinel: quarantine
   evidence accumulates, the beacon turns Degraded (still vending), and
   admission above the soft cap sheds with Pool_pressure. *)
let test_quarantine_degrades_and_soft_cap_sheds () =
  let liars = [ 0; 1 ] in
  let expose_behavior _refill i =
    if List.mem i liars then CE.Send (F.of_int 0xBEEF) else CE.Honest
  in
  let pool =
    mk_pool ~expose_behavior
      ~sentinel:(Some (Sentinel.active ~threshold:6 ()))
      7100
  in
  let b = BC.create ~max_pending:4 ~pool () in
  for _ = 1 to 40 do
    ignore (ok_or_fail (BC.close_epoch b))
  done;
  (match BC.state b with
  | BC.Degraded _ -> ()
  | s -> Alcotest.failf "expected Degraded, got %s" (BC.state_label s));
  let admit () = BC.request b ~callback:ignore () in
  Alcotest.(check bool) "under soft cap admitted" true (Result.is_ok (admit ()));
  Alcotest.(check bool) "at soft cap admitted" true (Result.is_ok (admit ()));
  (match admit () with
  | Error BC.Pool_pressure -> ()
  | Ok _ -> Alcotest.fail "admitted past the degraded soft cap"
  | Error r -> Alcotest.failf "wrong reject: %s" (BC.reject_name r));
  let e = ok_or_fail (BC.close_epoch b) in
  Alcotest.(check string) "epoch is flagged degraded" "degraded" e.BC.flags;
  Alcotest.(check int) "both admitted requests vend" 2 e.BC.vended

(* Past the fault bound the pool refuses in Safe_mode; the beacon must
   surface that as a sticky Halted state — shedding, not crashing. *)
let test_safe_mode_halts () =
  let liars = [ 0; 1; 2 ] in
  let expose_behavior _refill i =
    if List.mem i liars then CE.Send (F.of_int 0xBEEF) else CE.Honest
  in
  let pool =
    mk_pool ~expose_behavior
      ~sentinel:(Some (Sentinel.active ~threshold:6 ()))
      7200
  in
  let b = BC.create ~pool () in
  let vends = ref 0 in
  let halted = ref None in
  (try
     (* One request pending at every close: the one in flight when the
        pool trips Safe_mode must be shed, not vended. *)
     for _ = 1 to 40 do
       ignore (BC.request b ~callback:(fun _ -> incr vends) ());
       match BC.close_epoch b with
       | Ok _ -> ()
       | Error msg ->
           halted := Some msg;
           raise Exit
     done
   with Exit -> ());
  Alcotest.(check int) "pre-halt epochs vended, the in-flight one did not"
    (BC.stats b).BC.epochs !vends;
  (match !halted with
  | None -> Alcotest.fail "beacon kept vending past the fault bound"
  | Some _ -> ());
  (match BC.state b with
  | BC.Halted _ -> ()
  | s -> Alcotest.failf "expected Halted, got %s" (BC.state_label s));
  Alcotest.(check int) "pending shed at halt" 0 (BC.pending b);
  Alcotest.(check bool) "halt shed is attributed" true
    ((BC.stats b).BC.shed_halted >= 1);
  (match BC.request b ~callback:ignore () with
  | Error (BC.Beacon_halted _) -> ()
  | Ok _ -> Alcotest.fail "admission after halt"
  | Error r -> Alcotest.failf "wrong reject: %s" (BC.reject_name r));
  match BC.close_epoch b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "epoch emitted after halt"

(* --- persistence ----------------------------------------------------- *)

(* Snapshot taken mid-epoch (requests pending, chain at seq 3): the
   restored beacon resumes the sequence exactly — no seq reused, none
   skipped — and the transcript spanning the restart still verifies.
   Pending requests are not persisted; the restart sheds them. *)
let test_snapshot_resumes_sequence () =
  let b = mk ~key:"test-key" ~seed:42 () in
  serve_epochs ~epochs:3 b;
  ignore (BC.request b ~callback:ignore ());
  ignore (BC.request b ~callback:ignore ());
  let before = BC.chain b in
  let head = BC.head b in
  let bytes = BC.save b in
  let b' =
    BC.load ~key:"test-key" ~expect_head:head ~prng:(Prng.of_int 43)
      ~batch_size:16 ~refill_threshold:3 bytes
  in
  Alcotest.(check int) "sequence resumes at the next epoch" 3 (BC.next_seq b');
  Alcotest.(check bool) "head carried over" true
    (Beacon_hash.equal head (BC.head b'));
  Alcotest.(check int) "pending queue is not persisted" 0 (BC.pending b');
  Alcotest.(check int) "lifetime counters survive" 9 (BC.stats b').BC.vended;
  serve_epochs ~epochs:2 b';
  let combined = before @ BC.chain b' in
  Alcotest.(check (list int)) "gapless seq across the restart"
    [ 0; 1; 2; 3; 4 ]
    (List.map (fun e -> e.BC.seq) combined);
  match BC.verify_chain ~key:"test-key" combined with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "chain broken across restart: %s" msg

let test_snapshot_rejects_mismatch_and_damage () =
  let b = mk ~seed:42 () in
  serve_epochs ~epochs:2 b;
  let bytes = BC.save b in
  (* A head the snapshot does not extend: refuse to restore. *)
  (match
     BC.load ~expect_head:Beacon_hash.zero ~prng:(Prng.of_int 43)
       ~batch_size:16 ~refill_threshold:3 bytes
   with
  | _ -> Alcotest.fail "restored a snapshot with the wrong chain head"
  | exception BC.Corrupt_snapshot msg ->
      Alcotest.(check bool) "diagnostic names the mismatch" true
        (String.length msg > 0));
  (* One flipped payload byte: the checksum must catch it. *)
  let damaged = Bytes.copy bytes in
  let i = Bytes.length damaged - 1 in
  Bytes.set damaged i (Char.chr (Char.code (Bytes.get damaged i) lxor 1));
  match
    BC.load ~prng:(Prng.of_int 43) ~batch_size:16 ~refill_threshold:3 damaged
  with
  | _ -> Alcotest.fail "restored a damaged snapshot"
  | exception BC.Corrupt_snapshot _ -> ()

(* Ids are u32 on the wire. An id that does not fit is refused at
   admission, before any state changes; admitted, it used to make the
   next close raise mid-vend, after earlier callbacks had fired for an
   epoch that never entered the chain. *)
let test_out_of_range_ids_rejected () =
  let b = mk () in
  let fired = ref [] in
  let callback f = fired := f :: !fired in
  let admit ?id b =
    match BC.request b ?id ~callback () with
    | Ok id -> id
    | Error r -> Alcotest.failf "rejected: %s" (BC.reject_name r)
  in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was admitted" what
    | exception Invalid_argument _ -> ()
  in
  let first = admit b in
  let client = admit ~id:77 b in
  refused "id 2^32" (fun () -> BC.request b ~id:(1 lsl 32) ~callback ());
  refused "id 0" (fun () -> BC.request b ~id:0 ~callback ());
  refused "a negative id" (fun () -> BC.request b ~id:(-5) ~callback ());
  let top = admit ~id:0xFFFF_FFFF b in
  refused "an assigned id past 0xFFFF_FFFF" (fun () ->
      BC.request b ~callback ());
  Alcotest.(check int) "a queued id still resubmits" top (admit ~id:top b);
  Alcotest.(check int) "refusals left the queue alone" 3 (BC.pending b);
  let e = ok_or_fail (BC.close_epoch b) in
  Alcotest.(check int) "every admitted request vends" 3 e.BC.vended;
  Alcotest.(check int) "next_seq advances" 1 (BC.next_seq b);
  Alcotest.(check (list int)) "one callback each, in admission order"
    [ first; client; top ]
    (List.rev_map (fun f -> f.BC.request_id) !fired);
  List.iter
    (fun f -> Alcotest.(check int) "stamped with the sealed epoch" 0 f.BC.epoch)
    !fired;
  let b' =
    BC.load ~prng:(Prng.of_int 5) ~batch_size:16 ~refill_threshold:3
      (BC.save b)
  in
  Alcotest.(check int) "the restored beacon resumes the chain" 1
    (BC.next_seq b');
  refused "an assigned id after restore" (fun () ->
      BC.request b' ~callback ());
  ignore (admit ~id:9 b');
  let e' = ok_or_fail (BC.close_epoch b') in
  Alcotest.(check int) "client ids still vend after restore" 1 e'.BC.vended

(* --- tracing --------------------------------------------------------- *)

let test_vend_trace_events () =
  let b = mk () in
  let (), trace =
    Trace.collect (fun () ->
        for _ = 1 to 3 do
          ignore (BC.request b ~callback:ignore ())
        done;
        ignore (ok_or_fail (BC.close_epoch b)))
  in
  let jsonl = Fmt.str "%a" Trace.pp_jsonl trace in
  let count_occurrences needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i acc =
      if i + nl > hl then acc
      else go (i + 1) (if String.sub hay i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one vend event per request" 3
    (count_occurrences "\"event\":\"vend\"" jsonl);
  Alcotest.(check bool) "vends sit inside the beacon.epoch span" true
    (count_occurrences "beacon.epoch" jsonl >= 1)

(* --- arrivals -------------------------------------------------------- *)

let test_arrivals () =
  let mean samples =
    float_of_int (List.fold_left ( + ) 0 samples)
    /. float_of_int (List.length samples)
  in
  let draw arr k = List.init k (fun _ -> BC.Arrival.next arr) in
  let p1 = BC.Arrival.poisson ~rate:50. ~seed:9 in
  let p2 = BC.Arrival.poisson ~rate:50. ~seed:9 in
  let s1 = draw p1 400 and s2 = draw p2 400 in
  Alcotest.(check bool) "poisson is seed-deterministic" true (s1 = s2);
  let m = mean s1 in
  Alcotest.(check bool) "poisson mean near the rate" true (m > 40. && m < 60.);
  Alcotest.(check bool) "no negative arrivals" true
    (List.for_all (fun k -> k >= 0) s1);
  (* Large rate exercises the normal-approximation branch. *)
  let big = mean (draw (BC.Arrival.poisson ~rate:1000. ~seed:3) 200) in
  Alcotest.(check bool) "large-rate mean near the rate" true
    (big > 900. && big < 1100.);
  let bm = mean (draw (BC.Arrival.bursty ~rate:50. ~seed:11 ()) 2000) in
  Alcotest.(check bool) "bursty long-run mean near the rate" true
    (bm > 40. && bm < 60.);
  Alcotest.(check string) "names" "poisson" (BC.Arrival.name p1);
  Alcotest.(check string) "names" "bursty"
    (BC.Arrival.name (BC.Arrival.bursty ~rate:1. ~seed:1 ()))

let suite =
  [
    Alcotest.test_case "hash: digest/mac/hex basics" `Quick test_hash_basics;
    Alcotest.test_case "hash: known answers" `Quick test_hash_known_answers;
    Alcotest.test_case "vend: known chain head and bits" `Quick
      test_vend_known_answers;
    Alcotest.test_case "vend: liveness and amortization" `Quick
      test_vend_liveness;
    Alcotest.test_case "vend: deterministic, per-request streams" `Quick
      test_vend_determinism;
    Alcotest.test_case "chain: verifies; tamper and drop detected" `Quick
      test_chain_verifies_and_tamper_detected;
    Alcotest.test_case "chain: transcript JSON roundtrip" `Quick
      test_transcript_roundtrip;
    Alcotest.test_case "admission: hard queue bound sheds" `Quick
      test_queue_full_sheds;
    Alcotest.test_case "admission: quarantine degrades, soft cap sheds" `Quick
      test_quarantine_degrades_and_soft_cap_sheds;
    Alcotest.test_case "safe mode surfaces as a sticky halt" `Quick
      test_safe_mode_halts;
    Alcotest.test_case "snapshot: mid-epoch save resumes the sequence" `Quick
      test_snapshot_resumes_sequence;
    Alcotest.test_case "snapshot: head mismatch and damage rejected" `Quick
      test_snapshot_rejects_mismatch_and_damage;
    Alcotest.test_case "trace: one vend event per request" `Quick
      test_vend_trace_events;
    Alcotest.test_case "arrivals: deterministic, mean-correct" `Quick
      test_arrivals;
    Alcotest.test_case "admission: out-of-range ids refused" `Quick
      test_out_of_range_ids_rejected;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_sponge_matches_reference ]
