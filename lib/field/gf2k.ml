(* GF(2^k) on one machine word, 1 <= k <= 61.

   A field element is a polynomial over GF(2) of degree < k, packed as
   the low k bits of an int. The word width constraint comes from the
   multiplication loop below, which shifts the multiplicand one past the
   top bit of the modulus before reducing.

   [Make] multiplies in one of three regimes:
   - k <= 16: exp/log tables over the (cyclic) multiplicative group,
     mirroring the Zq_table trick; one lookup replaces the k-step loop.
   - 17 <= k <= 32: [clmul32], a carry-less product out of 16 integer
     multiplies, then two folds of the modulus's sparse low part. No
     branch and no loop, so the cost does not depend on the operands.
   - 33 <= k <= 61: [mul_word], a branch-free shift-and-xor over the
     operand with fewer bits; the 2k - 1 bit product no longer fits a
     63-bit int, so the reduction must be interleaved.
   The naive loop is kept as the reference implementation ([mul_naive],
   and the whole backend as [Make_untabled]) so equivalence stays
   testable and the paper's naive-multiplication baseline stays
   measurable. *)

(* Binary search over the 63-bit word in six halvings: [inv]'s Euclid
   loop calls this at every step. *)
let degree x =
  if x = 0 then -1
  else begin
    let d = ref 0 and x = ref x in
    if !x lsr 32 <> 0 then begin d := 32; x := !x lsr 32 end;
    if !x lsr 16 <> 0 then begin d := !d + 16; x := !x lsr 16 end;
    if !x lsr 8 <> 0 then begin d := !d + 8; x := !x lsr 8 end;
    if !x lsr 4 <> 0 then begin d := !d + 4; x := !x lsr 4 end;
    if !x lsr 2 <> 0 then begin d := !d + 2; x := !x lsr 2 end;
    if !x lsr 1 <> 0 then incr d;
    !d
  end

let mul_mod ~modulus a b =
  let top = 1 lsl degree modulus in
  (* Russian-peasant carryless multiplication with interleaved reduction:
     the multiplicand never exceeds bit [deg modulus], so everything fits
     in a word for degrees up to 61. *)
  let rec go a b acc =
    if a = 0 then acc
    else
      let acc = if a land 1 = 1 then acc lxor b else acc in
      let b = b lsl 1 in
      let b = if b land top <> 0 then b lxor modulus else b in
      go (a lsr 1) b acc
  in
  go a b 0

(* The same product as [mul_mod] for a modulus of degree [k] and
   operands below [2^k], with the constants hoisted and no branch on the
   data bits: the accumulate and the reduction are each an [land] with
   an all-ones-or-zero mask. The loop runs once per significant bit of
   the smaller operand, so multiplying by a grid point (player [i] sits
   at [i + 1]) takes a handful of steps. *)
let mul_word ~k ~modulus a b =
  let lo = if a < b then a else b and hi = if a < b then b else a in
  let acc = ref 0 and a = ref lo and b = ref hi in
  while !a <> 0 do
    acc := !acc lxor (!b land -(!a land 1));
    let b2 = !b lsl 1 in
    b := b2 lxor (modulus land -(b2 lsr k));
    a := !a lsr 1
  done;
  !acc

(* The unreduced carry-less product of two operands below 2^32; its
   degree is at most 62, so it fills the 63-bit int exactly. Each
   operand splits into four bit classes, 4 bits apart. The integer
   product of class i of [a] and class j of [b] holds, at each bit p of
   class i + j (mod 4), the number of pairs of set bits meeting there:
   at most 8 (the bits of class i below 2^32), so each count stays in
   its nibble, and bit p is its parity. Integer products wrap modulo
   2^63, which keeps those low 63 bits exact. *)
let clmul32 a b =
  let a0 = a land 0x1111_1111 and a1 = a land 0x2222_2222 in
  let a2 = a land 0x4444_4444 and a3 = a land 0x8888_8888 in
  let b0 = b land 0x1111_1111 and b1 = b land 0x2222_2222 in
  let b2 = b land 0x4444_4444 and b3 = b land 0x8888_8888 in
  let z0 = (a0 * b0) lxor (a1 * b3) lxor (a2 * b2) lxor (a3 * b1) in
  let z1 = (a0 * b1) lxor (a1 * b0) lxor (a2 * b3) lxor (a3 * b2) in
  let z2 = (a0 * b2) lxor (a1 * b1) lxor (a2 * b0) lxor (a3 * b3) in
  let z3 = (a0 * b3) lxor (a1 * b2) lxor (a2 * b1) lxor (a3 * b0) in
  z0 land 0x1111_1111_1111_1111
  lor (z1 land 0x2222_2222_2222_2222)
  lor (z2 land 0x4444_4444_4444_4444)
  lor (z3 land 0x0888_8888_8888_8888)

(* For a modulus x^k + r with r = 1 + x^s1 + x^s2 + x^s3, x^k = r, so
   the bits of [z] from k up fold down as their product with r. A
   trinomial x^k + x^s + 1 passes (s, s, s): two of the three copies
   cancel under xor. *)
let[@inline] fold ~k ~s1 ~s2 ~s3 z =
  let h = z lsr k in
  let h_r = h lxor (h lsl s1) lxor (h lsl s2) lxor (h lsl s3) in
  z land ((1 lsl k) - 1) lxor h_r

(* The fold shifts of a modulus of degree [k]. [clmul32]'s product has
   degree <= 2k - 2, so one fold leaves degree <= k - 2 + deg r and a
   second leaves degree <= 2 deg r - 2, below k whenever deg r <= 7
   (k >= 17). Every k in 17..32 has a trinomial or pentanomial
   [smallest_irreducible] of that shape; anything else is refused at
   instantiation rather than silently multiplied wrong. *)
let fold_shifts ~k modulus =
  let r = modulus lxor (1 lsl k) in
  match List.filter (fun i -> r land (1 lsl i) <> 0) (List.init k Fun.id) with
  | [ 0; s ] when s <= 7 -> (s, s, s)
  | [ 0; s1; s2; s3 ] when s3 <= 7 -> (s1, s2, s3)
  | _ ->
      invalid_arg
        (Printf.sprintf "Gf2k.Make: no two-fold reduction for modulus 0x%x"
           modulus)

let poly_mod a b =
  assert (b <> 0);
  let db = degree b in
  let rec go a =
    let da = degree a in
    if da < db then a else go (a lxor (b lsl (da - db)))
  in
  go a

let rec poly_gcd a b = if b = 0 then a else poly_gcd b (poly_mod a b)

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

let is_irreducible f =
  let k = degree f in
  assert (k >= 1);
  let x = poly_mod 0b10 f in
  (* x^(2^i) mod f by i successive squarings. *)
  let iterate_frobenius i =
    let rec go i r = if i = 0 then r else go (i - 1) (mul_mod ~modulus:f r r) in
    go i x
  in
  (* Rabin: f (degree k) is irreducible iff x^(2^k) = x (mod f) and for
     every prime p | k, gcd(x^(2^(k/p)) - x, f) = 1. *)
  iterate_frobenius k = x
  && List.for_all
       (fun p -> poly_gcd (iterate_frobenius (k / p) lxor x) f = 1)
       (prime_factors k)

let smallest_irreducible k =
  assert (k >= 1 && k <= 61);
  let top = 1 lsl k in
  let rec search low =
    if low >= top then invalid_arg "smallest_irreducible: none found"
    else
      let f = top lor low in
      if is_irreducible f then f else search (low + 1)
  in
  search 0

module type PARAM = sig
  val k : int
end

module type S = sig
  include Field_intf.S

  val modulus : int
  val of_repr : int -> t
  val repr : t -> int
  val tabled : bool
  val mul_naive : t -> t -> t
end

(* Largest extension degree for which the exp/log tables are built: the
   doubled exp table holds 2(2^k - 1) words, so k = 16 tops out at one
   megabyte per instantiated field. *)
let table_threshold = 16

module Make_gen (P : PARAM) (T : sig val want_tables : bool end) = struct
  let () =
    if P.k < 1 || P.k > 61 then
      invalid_arg "Gf2k.Make: k must be within [1, 61]"

  type t = int

  let k_bits = P.k
  let name = Printf.sprintf "GF(2^%d)" P.k
  let byte_size = (P.k + 7) / 8
  let modulus = smallest_irreducible P.k
  let mask = (1 lsl P.k) - 1
  let zero = 0
  let one = 1

  let equal = Int.equal
  let compare = Int.compare
  let hash x = x

  let of_repr x =
    assert (x land mask = x);
    x

  let repr x = x

  let add a b =
    Metrics.tick_adds 1;
    a lxor b

  let sub = add

  let neg x =
    Metrics.tick_adds 1;
    x

  let mul_naive a b =
    Metrics.tick_mults 1;
    mul_mod ~modulus a b

  let tabled = T.want_tables && P.k <= table_threshold

  (* The multiplicative group is cyclic of order 2^k - 1. exp.(i) = g^i
     for a generator g; the table is doubled so index sums (mul) and the
     [ord - log a] of inv never need reduction mod ord. Built with raw
     [mul_mod]: table construction is setup, not protocol work, and must
     not tick the ambient counters. *)
  let ord = mask

  let tables =
    if not tabled then None
    else begin
      let pow_raw b e =
        let rec go acc b e =
          if e = 0 then acc
          else
            go
              (if e land 1 = 1 then mul_mod ~modulus acc b else acc)
              (mul_mod ~modulus b b) (e lsr 1)
        in
        go 1 b e
      in
      let factors = prime_factors ord in
      let is_generator g =
        List.for_all (fun p -> pow_raw g (ord / p) <> 1) factors
      in
      let rec find g =
        if g > mask then invalid_arg (name ^ ": no generator found")
        else if is_generator g then g
        else find (g + 1)
      in
      let g = if ord = 1 then 1 else find 2 in
      let exp_table = Array.make (2 * ord) 1 in
      let log_table = Array.make (ord + 1) 0 in
      let acc = ref 1 in
      for i = 0 to (2 * ord) - 1 do
        exp_table.(i) <- !acc;
        if i < ord then log_table.(!acc) <- i;
        acc := mul_mod ~modulus !acc g
      done;
      Some (exp_table, log_table)
    end

  let mul =
    match tables with
    | None when not T.want_tables -> mul_naive
    | None when P.k <= 32 ->
        let s1, s2, s3 = fold_shifts ~k:P.k modulus in
        fun a b ->
          Metrics.tick_mults 1;
          let z = fold ~k:P.k ~s1 ~s2 ~s3 (clmul32 a b) in
          fold ~k:P.k ~s1 ~s2 ~s3 z
    | None ->
        fun a b ->
          Metrics.tick_mults 1;
          mul_word ~k:P.k ~modulus a b
    | Some (exp_table, log_table) ->
        fun a b ->
          Metrics.tick_mults 1;
          if a = 0 || b = 0 then 0
          else exp_table.(log_table.(a) + log_table.(b))

  let inv_naive a =
    if a = 0 then raise Division_by_zero;
    Metrics.tick_invs 1;
    (* Extended Euclid over GF(2)[x], tracking only the coefficient of
       [a]: the invariant is r_i = s_i * a (mod modulus). *)
    let rec divstep r0 s0 r1 s1 =
      let d = degree r0 - degree r1 in
      if d < 0 then (r0, s0)
      else divstep (r0 lxor (r1 lsl d)) (s0 lxor (s1 lsl d)) r1 s1
    in
    let rec go r0 s0 r1 s1 =
      if r1 = 0 then begin
        assert (r0 = 1);
        s0
      end
      else
        let r, s = divstep r0 s0 r1 s1 in
        go r1 s1 r s
    in
    go modulus 0 a 1

  let inv =
    match tables with
    | None -> inv_naive
    | Some (exp_table, log_table) ->
        fun a ->
          if a = 0 then raise Division_by_zero;
          Metrics.tick_invs 1;
          exp_table.(ord - log_table.(a))

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
    if i < 0 || i > mask then invalid_arg (name ^ ".of_int: out of range");
    i

  let random g = Prng.bits g P.k

  let rec random_nonzero g =
    let x = random g in
    if x = 0 then random_nonzero g else x

  let lsb x = x land 1
  let to_bits x = Array.init P.k (fun i -> (x lsr i) land 1 = 1)

  let to_bytes x =
    let b = Bytes.create byte_size in
    Field_bytes.encode_int b ~off:0 ~width:byte_size x;
    b

  let of_bytes b =
    Field_bytes.check_length name b byte_size;
    let v = Field_bytes.decode_int b ~off:0 ~width:byte_size in
    if v > mask then invalid_arg (name ^ ".of_bytes: non-canonical value");
    v

  let pp ppf x = Format.fprintf ppf "0x%x" x
  let to_string x = Printf.sprintf "0x%x" x

  (* Dot-product kernel for the carry-less regime, raw: no ticks, the
     caller ticks the loop's mults and adds in bulk. The products are
     xor-ed unreduced and folded once: carry-less multiplication is
     linear over GF(2), so the reduction of the sum is the sum of the
     reductions, and a sum of products of degree <= 2k - 2 keeps that
     degree, within the two folds' reach. The tabled and word regimes,
     and [Make_untabled], keep the ticked loop. *)
  let dot =
    match tables with
    | None when T.want_tables && P.k <= 32 ->
        let s1, s2, s3 = fold_shifts ~k:P.k modulus in
        Some
          (fun a b len ->
            let z = ref 0 in
            for j = 0 to len - 1 do
              z := !z lxor clmul32 a.(j) b.(j)
            done;
            fold ~k:P.k ~s1 ~s2 ~s3 (fold ~k:P.k ~s1 ~s2 ~s3 !z))
    | _ -> None

  (* Horner kernel for the carry-less regime, raw like [dot]: no ticks,
     the caller ticks the loop's mults and adds in bulk. One loop runs
     every row's chain, degree by degree from the longest row's top
     down, so consecutive steps belong to different rows and none waits
     on the one before: throughput, not the latency of one chain,
     bounds it. A row shorter than the current degree joins at its own
     top coefficient (its accumulator is zero until then, and
     0 * x + c = c), so the values are those of per-row Horner. The
     branch reads only the public point [x], never a share. Below 16
     (every player point up to n = 15) a product is four masked shifts
     of the accumulator, of degree <= k + 2, and one fold. Otherwise it
     is [clmul32] written out with [x]'s bit classes hoisted, and the
     two folds of [mul]. *)
  let horner =
    match tables with
    | None when T.want_tables && P.k <= 32 ->
        let k = P.k in
        let s1, s2, s3 = fold_shifts ~k modulus in
        Some
          (fun rows x out ->
            let nrows = Array.length rows in
            let top = ref 0 in
            for r = 0 to nrows - 1 do
              let len = Array.length rows.(r) in
              if len > !top then top := len
            done;
            let top = !top in
            for r = 0 to nrows - 1 do
              let row = rows.(r) in
              out.(r) <- (if top > 0 && Array.length row = top then row.(top - 1) else 0)
            done;
            if x < 16 then begin
              let m0 = -(x land 1) and m1 = -((x lsr 1) land 1) in
              let m2 = -((x lsr 2) land 1) and m3 = -(x lsr 3) in
              for d = top - 2 downto 0 do
                for r = 0 to nrows - 1 do
                  let row = rows.(r) in
                  if d < Array.length row then begin
                    let a = out.(r) in
                    let z =
                      a land m0
                      lxor ((a lsl 1) land m1)
                      lxor ((a lsl 2) land m2)
                      lxor ((a lsl 3) land m3)
                    in
                    out.(r) <- fold ~k ~s1 ~s2 ~s3 z lxor row.(d)
                  end
                done
              done
            end
            else begin
              let b0 = x land 0x1111_1111 and b1 = x land 0x2222_2222 in
              let b2 = x land 0x4444_4444 and b3 = x land 0x8888_8888 in
              for d = top - 2 downto 0 do
                for r = 0 to nrows - 1 do
                  let row = rows.(r) in
                  if d < Array.length row then begin
                    let a = out.(r) in
                    let a0 = a land 0x1111_1111 and a1 = a land 0x2222_2222 in
                    let a2 = a land 0x4444_4444 and a3 = a land 0x8888_8888 in
                    let z0 = (a0 * b0) lxor (a1 * b3) lxor (a2 * b2) lxor (a3 * b1) in
                    let z1 = (a0 * b1) lxor (a1 * b0) lxor (a2 * b3) lxor (a3 * b2) in
                    let z2 = (a0 * b2) lxor (a1 * b1) lxor (a2 * b0) lxor (a3 * b3) in
                    let z3 = (a0 * b3) lxor (a1 * b2) lxor (a2 * b1) lxor (a3 * b0) in
                    let z =
                      z0 land 0x1111_1111_1111_1111
                      lor (z1 land 0x2222_2222_2222_2222)
                      lor (z2 land 0x4444_4444_4444_4444)
                      lor (z3 land 0x0888_8888_8888_8888)
                    in
                    let z = fold ~k ~s1 ~s2 ~s3 z in
                    out.(r) <- fold ~k ~s1 ~s2 ~s3 z lxor row.(d)
                  end
                done
              done
            end)
    | _ -> None
end

module Make (P : PARAM) = Make_gen (P) (struct let want_tables = true end)
module Make_untabled (P : PARAM) =
  Make_gen (P) (struct let want_tables = false end)

module GF8 = Make (struct let k = 8 end)
module GF16 = Make (struct let k = 16 end)
module GF32 = Make (struct let k = 32 end)
module GF61 = Make (struct let k = 61 end)
