module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.Writer.u8: out of range";
    Buffer.add_uint8 t v

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Wire.Writer.u16: out of range";
    Buffer.add_uint16_le t v

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Writer.u32: out of range";
    Buffer.add_uint16_le t (v land 0xFFFF);
    Buffer.add_uint16_le t (v lsr 16)

  let raw t b = Buffer.add_bytes t b
  let contents t = Buffer.to_bytes t
  let size t = Buffer.length t
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }

  let need t n =
    if t.pos + n > Bytes.length t.data then
      invalid_arg "Wire.Reader: truncated input"

  let u8 t =
    need t 1;
    let v = Bytes.get_uint8 t.data t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_le t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    let low = u16 t in
    let high = u16 t in
    (high lsl 16) lor low

  let raw t n =
    need t n;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let is_exhausted t = t.pos = Bytes.length t.data

  let expect_end t =
    if not (is_exhausted t) then invalid_arg "Wire.Reader: trailing bytes"
end

module Crc32 = struct
  (* CRC-32 (IEEE 802.3), reflected, table-driven. *)
  let table =
    lazy
      (Array.init 256 (fun i ->
           let c = ref i in
           for _ = 1 to 8 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let digest_sub b pos len =
    let table = Lazy.force table in
    let crc = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Bytes.get_uint8 b i) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

  let digest b = digest_sub b 0 (Bytes.length b)
end

module Record = struct
  let header_len = 3
  let frame_len = 8 (* u32 length + u32 crc *)

  let write_header w ~magic ~version =
    Writer.u16 w magic;
    Writer.u8 w version

  let write_frame w payload =
    Writer.u32 w (Bytes.length payload);
    Writer.u32 w (Crc32.digest payload);
    Writer.raw w payload

  let to_bytes write =
    let w = Writer.create () in
    write w;
    Writer.contents w

  let header ~magic ~version = to_bytes (write_header ~magic ~version)
  let frame payload = to_bytes (fun w -> write_frame w payload)

  let seal ~magic ~version payload =
    to_bytes (fun w ->
        write_header w ~magic ~version;
        write_frame w payload)

  let check_header ~magic ~versions:(oldest, newest) b =
    if Bytes.length b < header_len then Error "truncated header"
    else if Bytes.get_uint16_le b 0 <> magic then Error "bad magic"
    else
      let version = Bytes.get_uint8 b 2 in
      if version < oldest || version > newest then
        Error (Printf.sprintf "unsupported version %d" version)
      else Ok version

  type frame =
    | Intact of { payload : bytes; stop : int }
    | Checksum_failed of { stop : int }
    | Past_end

  let u32_at b pos =
    Bytes.get_uint16_le b pos lor (Bytes.get_uint16_le b (pos + 2) lsl 16)

  let read_frame b pos =
    let size = Bytes.length b in
    if pos < 0 || pos > size - frame_len then Past_end
    else
      let len = u32_at b pos and start = pos + frame_len in
      if start + len > size then Past_end
      else if Crc32.digest_sub b start len <> u32_at b (pos + 4) then
        Checksum_failed { stop = start + len }
      else Intact { payload = Bytes.sub b start len; stop = start + len }

  let unseal ~magic ~versions b =
    let size = Bytes.length b in
    if size < header_len + frame_len then Error "truncated header"
    else
      match check_header ~magic ~versions b with
      | Error msg -> Error msg
      | Ok version -> (
          match read_frame b header_len with
          | Intact { payload; stop } when stop = size -> Ok (version, payload)
          | Checksum_failed { stop } when stop = size ->
              Error "checksum mismatch"
          | Intact _ | Checksum_failed _ | Past_end ->
              Error "payload length mismatch")
end

module Codec (F : Field_intf.S) = struct
  let write_elt w x = Writer.raw w (F.to_bytes x)
  let read_elt r = F.of_bytes (Reader.raw r F.byte_size)

  let write_elt_array w a =
    Writer.u16 w (Array.length a);
    Array.iter (write_elt w) a

  let read_elt_array r =
    let n = Reader.u16 r in
    Array.init n (fun _ -> read_elt r)

  let write_opt_elt_array w a =
    let n = Array.length a in
    Writer.u16 w n;
    (* Presence bitmap, one bit per slot, packed little-endian. *)
    let byte = ref 0 and fill = ref 0 in
    let flush_bits () =
      Writer.u8 w !byte;
      byte := 0;
      fill := 0
    in
    Array.iter
      (fun slot ->
        if slot <> None then byte := !byte lor (1 lsl !fill);
        incr fill;
        if !fill = 8 then flush_bits ())
      a;
    if !fill > 0 then flush_bits ();
    Array.iter (function Some x -> write_elt w x | None -> ()) a

  let read_opt_elt_array r =
    let n = Reader.u16 r in
    let bitmap = Reader.raw r ((n + 7) / 8) in
    let present i = Bytes.get_uint8 bitmap (i / 8) lsr (i mod 8) land 1 = 1 in
    Array.init n (fun i -> if present i then Some (read_elt r) else None)

  let encode_elt x = F.to_bytes x

  let decode_elt b =
    if Bytes.length b <> F.byte_size then
      invalid_arg "Wire.decode_elt: wrong length";
    F.of_bytes b

  let one_shot write read =
    ( (fun v ->
        let w = Writer.create () in
        write w v;
        Writer.contents w),
      fun b ->
        let r = Reader.of_bytes b in
        let v = read r in
        Reader.expect_end r;
        v )

  let encode_elt_array, decode_elt_array =
    one_shot write_elt_array read_elt_array

  let encode_opt_elt_array, decode_opt_elt_array =
    one_shot write_opt_elt_array read_opt_elt_array

  let elt_array_size n = 2 + (n * F.byte_size)

  let opt_elt_array_size a =
    let n = Array.length a in
    let present =
      Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 a
    in
    2 + ((n + 7) / 8) + (present * F.byte_size)

  let payload_size ~clique ~poly_sizes =
    (* u16 clique length + u16 per id; u16 poly count + per polynomial a
       u16 id, u16 coefficient count, and the coefficients. *)
    2
    + (2 * List.length clique)
    + 2
    + List.fold_left (fun acc coeffs -> acc + 4 + (coeffs * F.byte_size)) 0 poly_sizes
end
