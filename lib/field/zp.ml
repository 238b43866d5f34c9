(* Prime fields Z_p, p < 2^31. Products of two canonical representatives
   are below 2^62 and therefore exact in OCaml's native int. *)

let mul_mod p a b = a * b mod p

let pow_mod p b e =
  assert (e >= 0);
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul_mod p acc base else acc in
      if e = 1 then acc else go acc (mul_mod p base base) (e lsr 1)
  in
  go 1 (b mod p) e

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    (* Miller-Rabin with bases 2, 3, 5, 7: deterministic below
       3,215,031,751 > 2^31. *)
    let d = ref (n - 1) and s = ref 0 in
    while !d mod 2 = 0 do
      d := !d / 2;
      incr s
    done;
    let witness a =
      let x = pow_mod n a !d in
      if x = 1 || x = n - 1 then false
      else
        let rec squeeze i x =
          if i >= !s - 1 then true
          else
            let x = mul_mod n x x in
            if x = n - 1 then false else squeeze (i + 1) x
        in
        squeeze 0 x
    in
    not (List.exists (fun a -> a mod n <> 0 && witness a) [ 2; 3; 5; 7 ])
  end

let factorize n =
  assert (n >= 1);
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if d * d > n then List.rev ((n, 1) :: acc)
    else if n mod d = 0 then begin
      let rec strip n m = if n mod d = 0 then strip (n / d) (m + 1) else (n, m) in
      let n', m = strip n 0 in
      go n' (d + 1) ((d, m) :: acc)
    end
    else go n (d + 1) acc
  in
  go n 2 []

let next_prime_in_progression ~a ~d =
  let rec go x tries =
    if tries > 1_000_000 then
      invalid_arg "next_prime_in_progression: search exhausted"
    else if x >= 2 && is_prime x then x
    else go (x + d) (tries + 1)
  in
  go a 0

let find_primitive_root p =
  let phi = p - 1 in
  let primes = List.map fst (factorize phi) in
  let is_generator g =
    List.for_all (fun q -> pow_mod p g (phi / q) <> 1) primes
  in
  let rec search g =
    if g >= p then invalid_arg "find_primitive_root"
    else if is_generator g then g
    else search (g + 1)
  in
  search 2

module type PARAM = sig
  val p : int
end

module Make (P : PARAM) = struct
  let () =
    if P.p < 2 || P.p >= 1 lsl 31 then invalid_arg "Zp.Make: p out of range";
    if not (is_prime P.p) then invalid_arg "Zp.Make: p is not prime"

  type t = int

  let p = P.p
  let name = Printf.sprintf "Z_%d" P.p

  let k_bits =
    let rec bits v acc = if v <= 1 then acc else bits (v / 2) (acc + 1) in
    bits P.p 0

  let byte_size = (k_bits + 8) / 8
  let zero = 0
  let one = 1
  let equal = Int.equal
  let compare = Int.compare
  let hash x = x
  let repr x = x

  let of_repr x =
    assert (x >= 0 && x < P.p);
    x

  let add a b =
    Metrics.tick_adds 1;
    let s = a + b in
    if s >= P.p then s - P.p else s

  let sub a b =
    Metrics.tick_adds 1;
    let s = a - b in
    if s < 0 then s + P.p else s

  let neg a =
    Metrics.tick_adds 1;
    if a = 0 then 0 else P.p - a

  let mul a b =
    Metrics.tick_mults 1;
    a * b mod P.p

  let inv a =
    if a = 0 then raise Division_by_zero;
    Metrics.tick_invs 1;
    (* Fermat: a^(p-2). *)
    pow_mod P.p a (P.p - 2)

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
    if i < 0 then invalid_arg (name ^ ".of_int: negative") else i mod P.p

  let random g = Prng.int g P.p

  let rec random_nonzero g =
    let x = random g in
    if x = 0 then random_nonzero g else x

  let lsb x = x land 1

  let to_bits x =
    (* Only the low k_bits - 1 bits of a uniform residue are close to
       uniform; we expose k_bits bits as the signature requires and the
       coin layer's statistical tests bound the bias. *)
    Array.init k_bits (fun i -> (x lsr i) land 1 = 1)

  let to_bytes x =
    let b = Bytes.create byte_size in
    Field_bytes.encode_int b ~off:0 ~width:byte_size x;
    b

  let of_bytes b =
    Field_bytes.check_length name b byte_size;
    let v = Field_bytes.decode_int b ~off:0 ~width:byte_size in
    if v >= P.p then invalid_arg (name ^ ".of_bytes: non-canonical residue");
    v

  let pp = Format.pp_print_int
  let to_string = string_of_int

  let dot = None
  let horner = None
  let primitive_root = find_primitive_root P.p
  let pow_mod b e = pow_mod P.p b e
end
