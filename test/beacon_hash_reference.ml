(* The record-based two-lane SplitMix64 sponge that [Beacon_hash]
   replaced, kept verbatim as the reference for the differential
   properties in [Test_beacon]: every step returns a fresh [{hi; lo}]
   and blocks are assembled one byte at a time. *)

type t = { hi : int64; lo : int64 }

let golden = 0x9e3779b97f4a7c15L

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let absorb st w =
  let hi = mix64 (Int64.add (Int64.logxor st.hi w) golden) in
  let lo = mix64 (Int64.logxor st.lo (Int64.add hi w)) in
  { hi; lo }

(* Little-endian 64-bit word at [off]; missing tail bytes read as 0. *)
let block b off =
  let len = Bytes.length b in
  let w = ref 0L in
  for i = 7 downto 0 do
    let v = if off + i < len then Char.code (Bytes.get b (off + i)) else 0 in
    w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int v)
  done;
  !w

let absorb_bytes st b =
  let len = Bytes.length b in
  let st = ref st in
  let off = ref 0 in
  while !off < len do
    st := absorb !st (block b !off);
    off := !off + 8
  done;
  !st

let finish st ~total =
  let st = absorb st (Int64.of_int total) in
  let st = absorb st 0L in
  absorb st 0L

let digest b =
  (* Domain tag 1: unkeyed. *)
  let st = absorb { hi = 1L; lo = 0L } (Int64.of_int (Bytes.length b)) in
  finish (absorb_bytes st b) ~total:(Bytes.length b)

let mac ~key b =
  (* Domain tag 2: keyed sandwich — key, message, key again. *)
  let kb = Bytes.of_string key in
  let st = absorb { hi = 2L; lo = 0L } (Int64.of_int (Bytes.length kb)) in
  let st = absorb_bytes st kb in
  let st = absorb st (Int64.of_int (Bytes.length b)) in
  let st = absorb_bytes st b in
  let st = absorb_bytes st kb in
  finish st ~total:(Bytes.length b)

let to_bytes { hi; lo } =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 hi;
  Bytes.set_int64_le b 8 lo;
  b

let to_seed { hi; lo } = Int64.logxor hi (mix64 lo)
