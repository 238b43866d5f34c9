(* Z_q with exp/log tables: mul a b = exp.(log a + log b), inv a =
   exp.(q - 1 - log a). The exp table is doubled so index sums never
   need reduction mod q-1. *)

module Tables = struct
  type t = {
    q : int;
    generator : int;
    exp_table : int array; (* length 2(q-1): g^i mod q *)
    log_table : int array; (* length q: log_table.(g^i) = i; log_table.(0) unused *)
  }

  let make ~q =
    if q < 3 || q >= 1 lsl 20 then invalid_arg "Zq_table: q out of range";
    if not (Zp.is_prime q) then invalid_arg "Zq_table: q not prime";
    let module G = Zp.Make (struct let p = q end) in
    let g = G.repr G.primitive_root in
    let exp_table = Array.make (2 * (q - 1)) 1 in
    let log_table = Array.make q 0 in
    let acc = ref 1 in
    for i = 0 to (2 * (q - 1)) - 1 do
      exp_table.(i) <- !acc;
      if i < q - 1 then log_table.(!acc) <- i;
      acc := !acc * g mod q
    done;
    { q; generator = g; exp_table; log_table }

  let q t = t.q
  let generator t = t.generator

  let add t a b =
    let s = a + b in
    if s >= t.q then s - t.q else s

  let sub t a b =
    let s = a - b in
    if s < 0 then s + t.q else s

  let neg t a = if a = 0 then 0 else t.q - a

  let mul t a b =
    if a = 0 || b = 0 then 0
    else t.exp_table.(t.log_table.(a) + t.log_table.(b))

  let inv t a =
    if a = 0 then raise Division_by_zero;
    t.exp_table.(t.q - 1 - t.log_table.(a))

  let exp t e = t.exp_table.(e)

  let pow t b e =
    assert (e >= 0);
    if b = 0 then if e = 0 then 1 else 0
    else t.exp_table.(t.log_table.(b) * e mod (t.q - 1))
end

module type PARAM = sig
  val q : int
end

module Make (P : PARAM) = struct
  let tables = Tables.make ~q:P.q

  type t = int

  let name = Printf.sprintf "Z_%d (tabled)" P.q

  let k_bits =
    let rec bits v acc = if v <= 1 then acc else bits (v / 2) (acc + 1) in
    bits P.q 0

  let byte_size = (k_bits + 8) / 8
  let zero = 0
  let one = 1
  let equal = Int.equal
  let compare = Int.compare
  let hash x = x
  let repr x = x

  let of_repr x =
    assert (x >= 0 && x < P.q);
    x

  let add a b =
    Metrics.tick_adds 1;
    Tables.add tables a b

  let sub a b =
    Metrics.tick_adds 1;
    Tables.sub tables a b

  let neg a =
    Metrics.tick_adds 1;
    Tables.neg tables a

  let mul a b =
    Metrics.tick_mults 1;
    Tables.mul tables a b

  let inv a =
    Metrics.tick_invs 1;
    Tables.inv tables a

  let div a b = mul a (inv b)

  let pow x e =
    Metrics.tick_mults 1;
    Tables.pow tables x e

  let of_int i =
    if i < 0 then invalid_arg (name ^ ".of_int: negative") else i mod P.q

  let random g = Prng.int g P.q

  let rec random_nonzero g =
    let x = random g in
    if x = 0 then random_nonzero g else x

  let lsb x = x land 1
  let to_bits x = Array.init k_bits (fun i -> (x lsr i) land 1 = 1)

  let to_bytes x =
    let b = Bytes.create byte_size in
    Field_bytes.encode_int b ~off:0 ~width:byte_size x;
    b

  let of_bytes b =
    Field_bytes.check_length name b byte_size;
    let v = Field_bytes.decode_int b ~off:0 ~width:byte_size in
    if v >= P.q then invalid_arg (name ^ ".of_bytes: non-canonical residue");
    v

  let pp = Format.pp_print_int
  let to_string = string_of_int

  let dot = None
  let horner = None
end
