(* SplitMix64. Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

(* The 64-bit state sits in an 8-byte buffer, so advancing it stores no
   boxed int64, as a mutable int64 field would on every update. *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] state g = Bytes.get_int64_le g 0
let[@inline] set_state g s = Bytes.set_int64_le g 0 s

let create seed =
  let g = Bytes.create 8 in
  set_state g seed;
  g

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

(* The 64-bit finalizer of MurmurHash3, variant from the SplitMix64
   reference implementation. Inlined so that loops over it keep their
   state unboxed. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Inlined so that [bits], [bool] and [int] keep the output unboxed: a
   call would return it boxed, three words per draw. *)
let[@inline] next_int64 g =
  let s = Int64.add (state g) golden_gamma in
  set_state g s;
  mix s

(* A distinct finalizer for deriving split-off streams, per the paper's
   recommendation to decorrelate the child gamma/seed from the parent. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 33))

let split g =
  create (mix_gamma (next_int64 g))

let split_n g n =
  assert (n >= 0);
  Array.init n (fun _ -> split g)

let int64_nonneg g = Int64.logand (next_int64 g) Int64.max_int

let bits g w =
  assert (w >= 0 && w <= 62);
  if w = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next_int64 g) (64 - w))

let bool g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 63) = 1

(* [n] calls of [bool] with the state in a local; only the final state
   is written back. A draw is true when the output's top bit is set, as
   in [bool]. *)
let bools g n =
  let a = Array.make n false in
  let s = ref (state g) in
  for i = 0 to n - 1 do
    s := Int64.add !s golden_gamma;
    a.(i) <- Int64.shift_right_logical (mix !s) 63 = 1L
  done;
  set_state g !s;
  a

let int g bound =
  assert (bound > 0);
  (* Rejection sampling over the smallest power of two >= bound, with
     loops rather than local functions, which would be closures. *)
  let w = ref 0 in
  while 1 lsl !w < bound do
    incr w
  done;
  let w = !w in
  let v = ref (bits g w) in
  while !v >= bound do
    v := bits g w
  done;
  !v

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let sample_distinct g m bound =
  assert (m >= 0 && m <= bound);
  (* For small m relative to bound, draw-and-retry; otherwise shuffle a
     full range. The protocols only ever sample a handful of ids. *)
  if 2 * m >= bound then begin
    let a = Array.init bound (fun i -> i) in
    shuffle g a;
    List.sort compare (Array.to_list (Array.sub a 0 m))
  end else begin
    let module IS = Set.Make (Int) in
    let rec fill acc =
      if IS.cardinal acc = m then acc else fill (IS.add (int g bound) acc)
    in
    IS.elements (fill IS.empty)
  end
