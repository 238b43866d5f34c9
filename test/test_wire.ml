module F = Gf2k.GF32
module C = Wire.Codec (F)

let test_int_roundtrips () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0xBEEF;
  Wire.Writer.u32 w 0xDEADBEEF;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Wire.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  Wire.Reader.expect_end r

let test_writer_range_checks () =
  let w = Wire.Writer.create () in
  Alcotest.check_raises "u8" (Invalid_argument "Wire.Writer.u8: out of range")
    (fun () -> Wire.Writer.u8 w 256);
  Alcotest.check_raises "u16" (Invalid_argument "Wire.Writer.u16: out of range")
    (fun () -> Wire.Writer.u16 w (-1))

let test_reader_truncation () =
  let r = Wire.Reader.of_bytes (Bytes.of_string "x") in
  Alcotest.check_raises "u16 short" (Invalid_argument "Wire.Reader: truncated input")
    (fun () -> ignore (Wire.Reader.u16 r))

let test_trailing_rejected () =
  let r = Wire.Reader.of_bytes (Bytes.of_string "xy") in
  ignore (Wire.Reader.u8 r);
  Alcotest.check_raises "trailing" (Invalid_argument "Wire.Reader: trailing bytes")
    (fun () -> Wire.Reader.expect_end r)

let prop_elt_roundtrip =
  QCheck.Test.make ~count:300 ~name:"element roundtrip" QCheck.int (fun seed ->
      let x = F.random (Prng.of_int seed) in
      F.equal x (C.decode_elt (C.encode_elt x)))

let prop_elt_array_roundtrip =
  QCheck.Test.make ~count:200 ~name:"element array roundtrip"
    QCheck.(pair int (int_range 0 40))
    (fun (seed, n) ->
      let g = Prng.of_int seed in
      let a = Array.init n (fun _ -> F.random g) in
      let w = Wire.Writer.create () in
      C.write_elt_array w a;
      Alcotest.(check int) "size" (C.elt_array_size n) (Wire.Writer.size w);
      let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
      let b = C.read_elt_array r in
      Wire.Reader.expect_end r;
      Array.length a = Array.length b && Array.for_all2 F.equal a b)

let prop_opt_elt_array_roundtrip =
  QCheck.Test.make ~count:200 ~name:"optional element array roundtrip"
    QCheck.(pair int (int_range 0 40))
    (fun (seed, n) ->
      let g = Prng.of_int seed in
      let a =
        Array.init n (fun _ -> if Prng.bool g then Some (F.random g) else None)
      in
      let w = Wire.Writer.create () in
      C.write_opt_elt_array w a;
      Alcotest.(check int) "size" (C.opt_elt_array_size a) (Wire.Writer.size w);
      let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
      let b = C.read_opt_elt_array r in
      Wire.Reader.expect_end r;
      a = b
      || Array.for_all2
           (fun x y ->
             match (x, y) with
             | None, None -> true
             | Some u, Some v -> F.equal u v
             | _ -> false)
           a b)

let test_codec_composes () =
  (* Two arrays back-to-back decode cleanly: self-delimiting framing. *)
  let g = Prng.of_int 7 in
  let a = Array.init 5 (fun _ -> F.random g) in
  let b = Array.init 3 (fun _ -> if Prng.bool g then Some (F.random g) else None) in
  let w = Wire.Writer.create () in
  C.write_elt_array w a;
  C.write_opt_elt_array w b;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  let a' = C.read_elt_array r in
  let b' = C.read_opt_elt_array r in
  Wire.Reader.expect_end r;
  Alcotest.(check bool) "first" true (Array.for_all2 F.equal a a');
  Alcotest.(check int) "second length" 3 (Array.length b')

let test_non_canonical_rejected () =
  (* A GF(2^20) element with bits above k must be refused. *)
  let module F20 = Gf2k.Make (struct let k = 20 end) in
  let bad = Bytes.make 3 '\xFF' in
  Alcotest.check_raises "non-canonical"
    (Invalid_argument "GF(2^20).of_bytes: non-canonical value") (fun () ->
      ignore (F20.of_bytes bad))

(* ------------------ transport frames (Frame) --------------------- *)

let frame_kinds = [ Frame.Msg; Frame.Round; Frame.End_of_round; Frame.Stop ]

let prop_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame roundtrip"
    QCheck.(quad (int_range 0 3) (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF))
        (int_range 0 0xFFFFFFFF) (string_of_size (QCheck.Gen.int_range 0 512)))
    (fun (k, (src, dst), uid, payload) ->
      let kind = List.nth frame_kinds k in
      let payload = Bytes.of_string payload in
      let frame = Frame.encode kind ~src ~dst ~uid ~payload in
      let hdr, payload' = Frame.decode frame in
      hdr.Frame.kind = kind && hdr.Frame.src = src && hdr.Frame.dst = dst
      && hdr.Frame.uid = uid
      && hdr.Frame.length = Bytes.length payload
      && Bytes.equal payload payload')

(* Hostile input must surface as the typed Frame.Error — never an
   out-of-bounds access, a giant allocation, or a silent success. *)
let prop_frame_garbage_is_typed =
  QCheck.Test.make ~count:500 ~name:"garbage frames raise typed errors"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      match Frame.decode (Bytes.of_string s) with
      | _ -> true (* vanishingly unlikely, but legal *)
      | exception Frame.Error _ -> true
      | exception _ -> false)

let frame_error exp f =
  match f () with
  | _ -> Alcotest.fail "expected Frame.Error"
  | exception Frame.Error e ->
      Alcotest.(check string) "error" exp (Fmt.str "%a" Frame.pp_error e)

let test_frame_adversarial () =
  let good = Frame.encode Frame.Msg ~src:3 ~dst:4 ~uid:77 ~payload:(Bytes.of_string "hi") in
  (* Truncations at every prefix length must be typed, never a crash. *)
  for len = 0 to Bytes.length good - 1 do
    match Frame.decode (Bytes.sub good 0 len) with
    | _ -> Alcotest.fail "truncated frame decoded"
    | exception Frame.Error (Frame.Truncated _) -> ()
    | exception e -> Alcotest.fail ("truncation raised " ^ Printexc.to_string e)
  done;
  frame_error "3 trailing bytes after frame" (fun () ->
      Frame.decode (Bytes.cat good (Bytes.of_string "xyz")));
  let mangle pos v =
    let b = Bytes.copy good in
    Bytes.set_uint8 b pos v;
    b
  in
  frame_error "bad frame magic 0xD900" (fun () -> Frame.decode (mangle 0 0x00));
  frame_error "unsupported frame version 9" (fun () ->
      Frame.decode (mangle 2 9));
  frame_error "unknown frame kind 200" (fun () -> Frame.decode (mangle 3 200));
  (* An announced length beyond the cap is refused before allocation. *)
  let oversized = Bytes.copy good in
  Bytes.set_uint16_le oversized 12 0xFFFF;
  Bytes.set_uint16_le oversized 14 0xFFFF;
  frame_error
    (Printf.sprintf "oversized frame payload: %d bytes (limit %d)" 0xFFFFFFFF
       Frame.max_payload)
    (fun () -> Frame.decode oversized);
  (* Encoder refuses out-of-range fields. *)
  Alcotest.check_raises "src range"
    (Invalid_argument "Frame.encode: src 70000 out of u16 range") (fun () ->
      ignore (Frame.encode Frame.Msg ~src:70000 ~dst:0 ~uid:0 ~payload:Bytes.empty))

(* ------------- checksummed records (Wire.Record) ----------------- *)

(* The snapshot and journal formats differ only in magic and accepted
   versions, so the property draws both at random. Each case seals one
   payload at every version of the accepted range and attacks the
   result. A flipped version bit that lands on another accepted version
   is the one flip the codec cannot see (the CRC covers the payload):
   it must surface as that other version, never as the sealed one, so
   the loader's per-version decode gets the last word. *)
let prop_record_seal_unseal =
  QCheck.Test.make ~count:40 ~name:"record seal/unseal and every damage"
    QCheck.(
      quad (int_range 0 0xFFFF) (int_range 0 0xFF) (int_range 0 2)
        (string_of_size (QCheck.Gen.int_range 0 300)))
    (fun (magic, oldest, span, payload) ->
      let newest = min 0xFF (oldest + span) in
      let versions = (oldest, newest) in
      let payload = Bytes.of_string payload in
      let unseal = Wire.Record.unseal ~magic ~versions in
      let rejected b = Result.is_error (unseal b) in
      let holds_at v sealed =
        let size = Bytes.length sealed in
        let every_prefix_rejected =
          List.for_all (fun len -> rejected (Bytes.sub sealed 0 len))
            (List.init size Fun.id)
        in
        let every_flip_caught =
          List.for_all
            (fun i ->
              let b = Bytes.copy sealed in
              let pos = i / 8 in
              Bytes.set_uint8 b pos
                (Bytes.get_uint8 b pos lxor (1 lsl (i mod 8)));
              match unseal b with
              | Error _ -> true
              | Ok (v', p) -> pos = 2 && v' <> v && Bytes.equal p payload)
            (List.init (8 * size) Fun.id)
        in
        let every_appended_byte_rejected =
          List.for_all
            (fun x -> rejected (Bytes.cat sealed (Bytes.make 1 (Char.chr x))))
            (List.init 256 Fun.id)
        in
        unseal sealed = Ok (v, payload)
        && Wire.Record.read_frame sealed Wire.Record.header_len
           = Intact { payload; stop = size }
        && every_prefix_rejected && every_flip_caught
        && every_appended_byte_rejected
        && Wire.Record.unseal ~magic:(magic lxor 0x8000) ~versions sealed
           = Error "bad magic"
      in
      let out_of_range v =
        v < 0 || v > 0xFF
        || unseal (Wire.Record.seal ~magic ~version:v payload)
           = Error (Printf.sprintf "unsupported version %d" v)
      in
      List.for_all
        (fun v -> holds_at v (Wire.Record.seal ~magic ~version:v payload))
        (List.init (newest - oldest + 1) (fun k -> oldest + k))
      && out_of_range (oldest - 1)
      && out_of_range (newest + 1))

(* The journal reads frames one at a time from a shared buffer: a
   frame cut short anywhere runs past the end, and a flip in its CRC or
   payload fails the checksum at the end its length declares. *)
let prop_record_read_frame =
  QCheck.Test.make ~count:100 ~name:"record frame reader verdicts"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 40))
              (string_of_size (QCheck.Gen.int_range 0 64)))
    (fun (prefix, payload) ->
      let at = String.length prefix and payload = Bytes.of_string payload in
      let buf =
        Bytes.cat (Bytes.of_string prefix) (Wire.Record.frame payload)
      in
      let size = Bytes.length buf in
      let read b = Wire.Record.read_frame b at in
      read buf = Intact { payload; stop = size }
      && List.for_all
           (fun len -> read (Bytes.sub buf 0 len) = Past_end)
           (List.init (size - at) (fun k -> at + k))
      && List.for_all
           (fun i ->
             let b = Bytes.copy buf in
             let pos = at + 4 + (i / 8) in
             Bytes.set_uint8 b pos
               (Bytes.get_uint8 b pos lxor (1 lsl (i mod 8)));
             read b = Checksum_failed { stop = size })
           (List.init (8 * (size - at - 4)) Fun.id))

let test_payload_size_formula () =
  Alcotest.(check int) "empty" 4 (C.payload_size ~clique:[] ~poly_sizes:[]);
  Alcotest.(check int) "typical"
    (4 + (2 * 3) + (3 * (4 + (2 * F.byte_size))))
    (C.payload_size ~clique:[ 1; 2; 3 ] ~poly_sizes:[ 2; 2; 2 ])

let suite =
  [
    Alcotest.test_case "int roundtrips" `Quick test_int_roundtrips;
    Alcotest.test_case "writer range checks" `Quick test_writer_range_checks;
    Alcotest.test_case "reader truncation" `Quick test_reader_truncation;
    Alcotest.test_case "trailing rejected" `Quick test_trailing_rejected;
    Alcotest.test_case "codec composes" `Quick test_codec_composes;
    Alcotest.test_case "non-canonical rejected" `Quick test_non_canonical_rejected;
    Alcotest.test_case "payload size formula" `Quick test_payload_size_formula;
    Alcotest.test_case "frame adversarial inputs" `Quick test_frame_adversarial;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_elt_roundtrip;
        prop_elt_array_roundtrip;
        prop_opt_elt_array_roundtrip;
        prop_frame_roundtrip;
        prop_frame_garbage_is_typed;
        prop_record_seal_unseal;
        prop_record_read_frame;
      ]
