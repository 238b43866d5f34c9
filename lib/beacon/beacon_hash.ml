(* Two-lane SplitMix64 sponge: 128-bit state, 64-bit rate. Each block
   perturbs the high lane through the SplitMix64 finalizer (full
   avalanche on 64 bits) and folds the result into the low lane, so
   every input bit diffuses into both lanes within one round. The
   length is absorbed at the end (suffix-freeness), followed by two
   blank rounds to flush the final block through both lanes.

   The state lives in a 16-byte buffer, high lane then low lane, each
   little-endian; once the last round has run, that buffer is the
   digest. Lanes are read and written in place and blocks are read
   straight from the input, so a digest allocates the buffer and
   nothing else. *)

type t = string

let hi h = String.get_int64_le h 0
let lo h = String.get_int64_le h 8
let zero = String.make 16 '\000'
let equal = String.equal

let compare a b =
  match Int64.unsigned_compare (hi a) (hi b) with
  | 0 -> Int64.unsigned_compare (lo a) (lo b)
  | c -> c

let golden = 0x9e3779b97f4a7c15L

let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] absorb st w =
  let hi =
    mix64 (Int64.add (Int64.logxor (Bytes.get_int64_le st 0) w) golden)
  in
  Bytes.set_int64_le st 0 hi;
  Bytes.set_int64_le st 8
    (mix64 (Int64.logxor (Bytes.get_int64_le st 8) (Int64.add hi w)))

(* Little-endian 64-bit blocks; the missing tail bytes of a final
   partial block read as 0. Seven bytes fit an int, so the partial
   block is assembled without a boxed accumulator. *)
let absorb_bytes st b =
  let len = Bytes.length b in
  let full = len land lnot 7 in
  let off = ref 0 in
  while !off < full do
    absorb st (Bytes.get_int64_le b !off);
    off := !off + 8
  done;
  if full < len then begin
    let w = ref 0 in
    for i = len - 1 downto full do
      w := (!w lsl 8) lor Bytes.get_uint8 b i
    done;
    absorb st (Int64.of_int !w)
  end

let start ~tag ~len =
  let st = Bytes.create 16 in
  Bytes.set_int64_le st 0 tag;
  Bytes.set_int64_le st 8 0L;
  absorb st (Int64.of_int len);
  st

let finish st ~total =
  absorb st (Int64.of_int total);
  absorb st 0L;
  absorb st 0L;
  Bytes.unsafe_to_string st

let digest b =
  (* Domain tag 1: unkeyed. *)
  let st = start ~tag:1L ~len:(Bytes.length b) in
  absorb_bytes st b;
  finish st ~total:(Bytes.length b)

let mac ~key b =
  (* Domain tag 2: keyed sandwich — key, message, key again. The key is
     only read. *)
  let kb = Bytes.unsafe_of_string key in
  let st = start ~tag:2L ~len:(Bytes.length kb) in
  absorb_bytes st kb;
  absorb st (Int64.of_int (Bytes.length b));
  absorb_bytes st b;
  absorb_bytes st kb;
  finish st ~total:(Bytes.length b)

let to_bytes h = Bytes.of_string h

let of_bytes b =
  if Bytes.length b <> 16 then
    invalid_arg "Beacon_hash.of_bytes: need exactly 16 bytes";
  Bytes.to_string b

let to_seed h = Int64.logxor (hi h) (mix64 (lo h))

let hex_of_bytes b =
  String.init
    (2 * Bytes.length b)
    (fun i ->
      let v = Char.code (Bytes.get b (i / 2)) in
      "0123456789abcdef".[if i mod 2 = 0 then v lsr 4 else v land 0xf])

let bytes_of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then Error "odd-length hex string"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let b = Bytes.create (len / 2) in
    let bad = ref None in
    for i = 0 to (len / 2) - 1 do
      match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
      | Some h, Some l -> Bytes.set b i (Char.chr ((h lsl 4) lor l))
      | _ -> if !bad = None then bad := Some (2 * i)
    done;
    match !bad with
    | Some i -> Error (Printf.sprintf "non-hex character at offset %d" i)
    | None -> Ok b

let to_hex h = hex_of_bytes (Bytes.unsafe_of_string h)

let of_hex s =
  if String.length s <> 32 then Error "digest hex must be 32 characters"
  else Result.map of_bytes (bytes_of_hex s)

let write w h = Wire.Writer.raw w (Bytes.unsafe_of_string h)
let read r = Bytes.unsafe_to_string (Wire.Reader.raw r 16)
let pp ppf h = Format.pp_print_string ppf (to_hex h)
