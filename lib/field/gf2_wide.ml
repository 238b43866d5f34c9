(* GF(2^k) for arbitrary k: polynomials over GF(2) packed into arrays of
   32-bit limbs (little-endian). 32-bit limbs keep all intermediate shift
   results comfortably inside OCaml's 63-bit native ints. *)

module Bits = struct
  let limb_bits = 32
  let limb_mask = 0xFFFFFFFF

  type t = int array

  let create nlimbs = Array.make nlimbs 0
  let copy = Array.copy

  let get a i =
    let q = i / limb_bits and r = i mod limb_bits in
    if q >= Array.length a then false else (a.(q) lsr r) land 1 = 1

  let set a i =
    let q = i / limb_bits and r = i mod limb_bits in
    a.(q) <- a.(q) lor (1 lsl r)

  let is_zero a = Array.for_all (fun limb -> limb = 0) a

  let degree a =
    let rec limb j =
      if j < 0 then -1
      else if a.(j) = 0 then limb (j - 1)
      else
        let rec bit i = if (a.(j) lsr i) land 1 = 1 then i else bit (i - 1) in
        (j * limb_bits) + bit (limb_bits - 1)
    in
    limb (Array.length a - 1)

  (* dst ^= src << s. dst must be long enough. *)
  let xor_shift dst src s =
    let q = s / limb_bits and r = s mod limb_bits in
    let n = Array.length src in
    if r = 0 then
      for j = 0 to n - 1 do
        if src.(j) <> 0 then dst.(j + q) <- dst.(j + q) lxor src.(j)
      done
    else
      for j = 0 to n - 1 do
        if src.(j) <> 0 then begin
          dst.(j + q) <- dst.(j + q) lxor ((src.(j) lsl r) land limb_mask);
          dst.(j + q + 1) <- dst.(j + q + 1) lxor (src.(j) lsr (limb_bits - r))
        end
      done

  (* Reduce a in place modulo f (degree df, df >= 0), top-down. *)
  let reduce a f df =
    let rec go pos =
      if pos >= df then begin
        if get a pos then xor_shift a f (pos - df);
        go (pos - 1)
      end
    in
    go (degree a)

  let equal = ( = )
end

let prime_factors n =
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if d * d > n then List.rev (n :: acc)
    else if n mod d = 0 then
      let rec strip n = if n mod d = 0 then strip (n / d) else n in
      go (strip n) (d + 1) (d :: acc)
    else go n (d + 1) acc
  in
  go n 2 []

module type PARAM = sig
  val k : int
end

module type S = sig
  include Field_intf.S

  val modulus_bits : int list
  val of_repr : int array -> t
  val repr : t -> int array
  val mul_schoolbook : t -> t -> t
  val mul_karatsuba : t -> t -> t
end

module Make (P : PARAM) = struct
  let () = if P.k < 1 then invalid_arg "Gf2_wide.Make: k must be >= 1"

  let k_bits = P.k
  let name = Printf.sprintf "GF(2^%d) wide" P.k
  let byte_size = (P.k + 7) / 8

  (* Limb counts: elements occupy [nlimbs]; products and the modulus need
     scratch up to [2k] bits. *)
  let nlimbs = ((P.k - 1) / Bits.limb_bits) + 1
  let scratch_limbs = (2 * nlimbs) + 2

  type t = Bits.t (* exactly [nlimbs] limbs, degree < k *)

  (* Raw multiply-mod against an arbitrary modulus [f] of degree [df]:
     schoolbook carryless product into a scratch buffer, then top-down
     reduction. Used both for field multiplication and, during functor
     application, inside Rabin's irreducibility test on candidates. *)
  let raw_mul_mod f df width a b =
    let acc = Bits.create scratch_limbs in
    let n = Array.length a in
    for j = 0 to n - 1 do
      let limb = a.(j) in
      if limb <> 0 then
        for i = 0 to Bits.limb_bits - 1 do
          if (limb lsr i) land 1 = 1 then
            Bits.xor_shift acc b ((j * Bits.limb_bits) + i)
        done
    done;
    Bits.reduce acc f df;
    Array.sub acc 0 width

  let raw_mod f df a =
    let acc = Bits.create (max (Array.length a) (Array.length f)) in
    Bits.xor_shift acc a 0;
    Bits.reduce acc f df;
    acc

  let rec raw_gcd a b =
    if Bits.is_zero b then a else raw_gcd b (raw_mod b (Bits.degree b) a)

  let is_one a = Bits.degree a = 0 (* nonzero constant = 1 over GF(2) *)

  let is_irreducible f =
    let df = Bits.degree f in
    assert (df >= 1);
    let x =
      let a = Bits.create (Array.length f) in
      Bits.set a 1;
      raw_mod f df a
    in
    let iterate_frobenius i =
      let width = Array.length f in
      let rec go i r = if i = 0 then r else go (i - 1) (raw_mul_mod f df width r r) in
      go i x
    in
    Bits.equal (iterate_frobenius df) x
    && List.for_all
         (fun p ->
           let d = iterate_frobenius (df / p) in
           let diff = Bits.copy d in
           Bits.xor_shift diff x 0;
           is_one (raw_gcd f diff))
         (prime_factors df)

  (* The modulus: smallest irreducible of degree k. Candidates are
     x^k + (low bits), enumerated by increasing low part, so the winner
     is low-weight and reduction stays cheap. *)
  let modulus, modulus_degree =
    let f = Bits.create (nlimbs + 1) in
    Bits.set f P.k;
    let rec bump i =
      (* Increment the low part of f, binary-counter style. *)
      if Bits.get f i then begin
        f.(i / Bits.limb_bits) <- f.(i / Bits.limb_bits) lxor (1 lsl (i mod Bits.limb_bits));
        bump (i + 1)
      end
      else Bits.set f i
    in
    let rec search () =
      if is_irreducible f then f
      else begin
        bump 0;
        if Bits.degree f > P.k then invalid_arg "Gf2_wide: no irreducible found";
        search ()
      end
    in
    let f = search () in
    (f, P.k)

  let modulus_bits =
    let rec collect i acc =
      if i < 0 then List.rev acc
      else collect (i - 1) (if Bits.get modulus i then i :: acc else acc)
    in
    collect P.k []

  let zero = Bits.create nlimbs
  let one =
    let a = Bits.create nlimbs in
    Bits.set a 0;
    a

  let equal = Bits.equal
  let compare = compare
  let hash a = Hashtbl.hash a

  let of_repr a =
    assert (Array.length a = nlimbs);
    a

  let repr a = a

  let add a b =
    Metrics.tick_adds 1;
    Array.init nlimbs (fun i -> a.(i) lxor b.(i))

  let sub = add

  let neg a =
    Metrics.tick_adds 1;
    Bits.copy a

  let mul_schoolbook a b =
    Metrics.tick_mults 1;
    raw_mul_mod modulus modulus_degree nlimbs a b

  let inv a =
    if Bits.is_zero a then raise Division_by_zero;
    Metrics.tick_invs 1;
    (* Extended Euclid over GF(2)[x]; invariant r_i = s_i * a (mod modulus). *)
    let width = nlimbs + 3 in
    let widen src =
      let d = Bits.create width in
      Bits.xor_shift d src 0;
      d
    in
    let rec divstep r0 s0 r1 s1 dr1 =
      let d = Bits.degree r0 - dr1 in
      if d < 0 then (r0, s0)
      else begin
        Bits.xor_shift r0 r1 d;
        Bits.xor_shift s0 s1 d;
        divstep r0 s0 r1 s1 dr1
      end
    in
    let rec go r0 s0 r1 s1 =
      if Bits.is_zero r1 then begin
        assert (is_one r0);
        Array.sub s0 0 nlimbs
      end
      else
        let r, s = divstep r0 s0 r1 s1 (Bits.degree r1) in
        go r1 s1 r s
    in
    go (widen modulus) (Bits.create width) (widen a) (widen one)

  (* Karatsuba carryless multiplication on limb arrays. [clmul] returns
     the unreduced product of two GF(2) polynomials given as limb
     vectors; the recursion bottoms out on the schoolbook loop once
     operands fit a couple of words. *)
  let clmul_school a b =
    let la = Array.length a and lb = Array.length b in
    let out = Bits.create (la + lb + 1) in
    for j = 0 to la - 1 do
      let limb = a.(j) in
      if limb <> 0 then
        for i = 0 to Bits.limb_bits - 1 do
          if (limb lsr i) land 1 = 1 then
            Bits.xor_shift out b ((j * Bits.limb_bits) + i)
        done
    done;
    out

  let xor_into dst src limb_offset =
    Array.iteri
      (fun j v -> if v <> 0 then dst.(j + limb_offset) <- dst.(j + limb_offset) lxor v)
      src

  let rec clmul a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then Bits.create 1
    else if min la lb <= 2 then clmul_school a b
    else begin
      let h = (max la lb + 1) / 2 in
      let lo x = Array.sub x 0 (min h (Array.length x)) in
      let hi x =
        if Array.length x <= h then [||]
        else Array.sub x h (Array.length x - h)
      in
      let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
      let z0 = clmul a0 b0 in
      let z2 = clmul a1 b1 in
      let xor_pad x y =
        let l = max (Array.length x) (Array.length y) in
        Array.init l (fun j ->
            (if j < Array.length x then x.(j) else 0)
            lxor if j < Array.length y then y.(j) else 0)
      in
      let z1 = clmul (xor_pad a0 a1) (xor_pad b0 b1) in
      let out = Bits.create (la + lb + 1) in
      xor_into out z0 0;
      xor_into out z1 h;
      xor_into out z0 h;
      xor_into out z2 h;
      xor_into out z2 (2 * h);
      out
    end

  let mul_karatsuba a b =
    Metrics.tick_mults 1;
    let prod = clmul a b in
    Bits.reduce prod modulus modulus_degree;
    Array.sub prod 0 nlimbs

  (* Default multiplication: schoolbook up to 3 limbs, Karatsuba above.
     Measured on the bench E13 sweep: with the recursion bottoming out
     at 2 limbs, the three-way split starts winning at 4 limbs
     (k >= 97), ~1.2x at k = 128 and ~1.9x at k = 256; below that the
     split overhead loses to the plain loop. [mul_schoolbook] stays
     exported as the paper's naive O(k^2) reference. *)
  let karatsuba_limb_threshold = 4

  let mul = if nlimbs >= karatsuba_limb_threshold then mul_karatsuba
            else mul_schoolbook

  let div a b = mul a (inv b)

  let pow x e =
    assert (e >= 0);
    let rec go acc base e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then mul acc base else acc in
        if e = 1 then acc else go acc (mul base base) (e lsr 1)
    in
    go one x e

  let of_int i =
    if i < 0 then invalid_arg (name ^ ".of_int: negative");
    let a = Bits.create nlimbs in
    let rec fill j v =
      if v <> 0 then begin
        if j >= nlimbs then invalid_arg (name ^ ".of_int: out of range");
        a.(j) <- v land Bits.limb_mask;
        fill (j + 1) (v lsr Bits.limb_bits)
      end
    in
    fill 0 i;
    if Bits.degree a >= P.k then invalid_arg (name ^ ".of_int: out of range");
    a

  let random g =
    let a = Array.init nlimbs (fun _ -> Prng.bits g Bits.limb_bits) in
    (* Mask the top limb down to k bits. *)
    let rem = P.k mod Bits.limb_bits in
    if rem <> 0 then a.(nlimbs - 1) <- a.(nlimbs - 1) land ((1 lsl rem) - 1);
    a

  let rec random_nonzero g =
    let a = random g in
    if Bits.is_zero a then random_nonzero g else a

  let lsb a = a.(0) land 1
  let to_bits a = Array.init P.k (fun i -> Bits.get a i)

  let to_bytes a =
    let b = Bytes.create byte_size in
    for j = 0 to byte_size - 1 do
      let limb = a.(j / 4) in
      Bytes.set_uint8 b j ((limb lsr (8 * (j mod 4))) land 0xFF)
    done;
    b

  let of_bytes b =
    Field_bytes.check_length name b byte_size;
    let a = Bits.create nlimbs in
    for j = 0 to byte_size - 1 do
      a.(j / 4) <- a.(j / 4) lor (Bytes.get_uint8 b j lsl (8 * (j mod 4)))
    done;
    if Bits.degree a >= P.k then
      invalid_arg (name ^ ".of_bytes: non-canonical value");
    a

  let to_string a =
    let b = Buffer.create (nlimbs * 8) in
    Buffer.add_string b "0x";
    for j = nlimbs - 1 downto 0 do
      Buffer.add_string b (Printf.sprintf "%08x" a.(j))
    done;
    Buffer.contents b

  let pp ppf a = Format.pp_print_string ppf (to_string a)

  let dot = None
  let horner = None
end

module GF64 = Make (struct let k = 64 end)
module GF128 = Make (struct let k = 128 end)
module GF256 = Make (struct let k = 256 end)
