(* GF(q^l) with NTT-based multiplication — the paper's special field.

   Elements are coefficient vectors of length l over Z_q (int arrays,
   canonical residues). The modulus is the binomial x^l - c, c a
   primitive root of Z_q, so reducing a product is one linear pass. *)

module type PARAM = sig
  val k : int
end

module Make (P : PARAM) = struct
  let () = if P.k < 1 then invalid_arg "Fft_field.Make: k must be >= 1"

  let bits_of v =
    let rec go v acc = if v = 0 then acc else go (v / 2) (acc + 1) in
    go v 0

  (* Smallest l (power of two, >= 2) whose field reaches 2^k, together
     with the matching prime q = 1 (mod 2l). *)
  let l, q =
    let rec choose l =
      let m = 2 * l in
      let q = Zp.next_prime_in_progression ~a:(m + 1) ~d:m in
      let bits_per_coord = bits_of q - 1 in
      if l * bits_per_coord >= P.k then (l, q) else choose (2 * l)
    in
    choose 2

  let tbl = Zq_table.Tables.make ~q
  let c = Zq_table.Tables.generator tbl
  let ntt_plan = Ntt.plan tbl ~m:(2 * l)

  type t = int array (* length l, residues mod q *)

  let name = Printf.sprintf "GF(%d^%d) fft" q l
  let k_bits = l * (bits_of q - 1)
  let bytes_per_coord = (bits_of (q - 1) + 7) / 8
  let byte_size = l * bytes_per_coord

  let zero = Array.make l 0

  let one =
    let a = Array.make l 0 in
    a.(0) <- 1;
    a

  let equal = ( = )
  let compare = compare
  let hash a = Hashtbl.hash a

  let repr a = a

  let of_repr a =
    assert (Array.length a = l && Array.for_all (fun x -> x >= 0 && x < q) a);
    a

  let add a b =
    Metrics.tick_adds 1;
    Array.init l (fun i -> Zq_table.Tables.add tbl a.(i) b.(i))

  let sub a b =
    Metrics.tick_adds 1;
    Array.init l (fun i -> Zq_table.Tables.sub tbl a.(i) b.(i))

  let neg a =
    Metrics.tick_adds 1;
    Array.init l (fun i -> Zq_table.Tables.neg tbl a.(i))

  let mul a b =
    Metrics.tick_mults 1;
    let prod = Ntt.convolve ntt_plan a b in
    (* Reduce modulo x^l - c: x^(l+i) = c * x^i. *)
    Array.init l (fun i ->
        if i + l < Array.length prod then
          Zq_table.Tables.add tbl prod.(i)
            (Zq_table.Tables.mul tbl c prod.(i + l))
        else prod.(i))

  (* Polynomial helpers over Z_q for the inverse's extended Euclid;
     degrees never exceed l, so the quadratic cost is irrelevant. *)
  let pdeg a =
    let rec go i = if i < 0 then -1 else if a.(i) <> 0 then i else go (i - 1) in
    go (Array.length a - 1)

  let inv a =
    if pdeg a < 0 then raise Division_by_zero;
    Metrics.tick_invs 1;
    let width = l + 1 in
    let widen src =
      let d = Array.make width 0 in
      Array.blit src 0 d 0 (Array.length src);
      d
    in
    let modulus =
      let f = Array.make width 0 in
      f.(0) <- Zq_table.Tables.neg tbl c;
      f.(l) <- 1;
      f
    in
    (* r0 - coef * x^shift * r1, in place on (r0, s0). *)
    let submul (r0, s0) (r1, s1) coef shift =
      for i = 0 to width - 1 - shift do
        r0.(i + shift) <-
          Zq_table.Tables.sub tbl r0.(i + shift) (Zq_table.Tables.mul tbl coef r1.(i));
        s0.(i + shift) <-
          Zq_table.Tables.sub tbl s0.(i + shift) (Zq_table.Tables.mul tbl coef s1.(i))
      done
    in
    let rec reduce (r0, s0) (r1, s1) d1 =
      let d0 = pdeg r0 in
      if d0 < d1 then (r0, s0)
      else begin
        let coef =
          Zq_table.Tables.mul tbl r0.(d0) (Zq_table.Tables.inv tbl r1.(d1))
        in
        submul (r0, s0) (r1, s1) coef (d0 - d1);
        reduce (r0, s0) (r1, s1) d1
      end
    in
    let rec go (r0, s0) (r1, s1) =
      let d1 = pdeg r1 in
      if d1 < 0 then begin
        let d0 = pdeg r0 in
        assert (d0 = 0);
        (* Normalize the gcd to 1. *)
        let scale = Zq_table.Tables.inv tbl r0.(0) in
        Array.init l (fun i -> Zq_table.Tables.mul tbl scale s0.(i))
      end
      else
        let r, s = reduce (r0, s0) (r1, s1) d1 in
        go (r1, s1) (r, s)
    in
    go (modulus, Array.make width 0) (widen a, widen one)

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
    let a = Array.make l 0 in
    let rec fill j v =
      if v <> 0 then begin
        if j >= l then invalid_arg (name ^ ".of_int: out of range");
        a.(j) <- v mod q;
        fill (j + 1) (v / q)
      end
    in
    fill 0 i;
    a

  let random g = Array.init l (fun _ -> Prng.int g q)

  let rec random_nonzero g =
    let a = random g in
    if pdeg a < 0 then random_nonzero g else a

  let lsb a = a.(0) land 1

  let bits_per_coord = bits_of q - 1

  let to_bits a =
    Array.init k_bits (fun i ->
        let coord = i / bits_per_coord and bit = i mod bits_per_coord in
        (a.(coord) lsr bit) land 1 = 1)

  let to_bytes a =
    let b = Bytes.create byte_size in
    Array.iteri
      (fun i coord ->
        Field_bytes.encode_int b ~off:(i * bytes_per_coord)
          ~width:bytes_per_coord coord)
      a;
    b

  let of_bytes b =
    Field_bytes.check_length name b byte_size;
    Array.init l (fun i ->
        let v =
          Field_bytes.decode_int b ~off:(i * bytes_per_coord)
            ~width:bytes_per_coord
        in
        if v >= q then invalid_arg (name ^ ".of_bytes: non-canonical residue");
        v)

  let to_string a =
    String.concat "," (Array.to_list (Array.map string_of_int a))

  let pp ppf a = Format.pp_print_string ppf (to_string a)

  let dot = None
  let horner = None
end

module GF_k64 = Make (struct let k = 64 end)
module GF_k128 = Make (struct let k = 128 end)
module GF_k256 = Make (struct let k = 256 end)
