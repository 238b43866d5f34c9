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

  let log t a =
    if a = 0 then invalid_arg "Zq_table.log: zero";
    t.log_table.(a)

  let pow t b e =
    assert (e >= 0);
    if b = 0 then if e = 0 then 1 else 0
    else t.exp_table.(t.log_table.(b) * e mod (t.q - 1))

  (* Raw Horner at one point (log-domain multiply, branchless lazy
     reduction on the add). No Metrics ticks. *)
  let horner t cs x =
    let len = Array.length cs in
    if len = 0 then 0
    else if x = 0 then cs.(0)
    else begin
      let lx = Array.unsafe_get t.log_table x in
      let exp_t = t.exp_table and log_t = t.log_table in
      let q = t.q in
      let acc = ref 0 in
      for k = len - 1 downto 0 do
        let a = !acc in
        let ax =
          if a = 0 then 0
          else Array.unsafe_get exp_t (Array.unsafe_get log_t a + lx)
        in
        let s = ax + Array.unsafe_get cs k in
        acc := if s >= q then s - q else s
      done;
      !acc
    end

  (* Batch multipoint evaluation, raw (no ticks): out.(j).(i) =
     p_j(xs.(i)) with css.(j) the coefficients low-to-high. When the
     points form a step-1 arithmetic progression mod q — the protocol
     grid of_int 1..n — each polynomial costs len Horner seeds and then
     len-1 additions per further point (the classical difference
     engine: the len-th finite difference of a degree-(len-1)
     polynomial over a unit-step AP vanishes). Otherwise every point is
     a log-domain Horner. Scratch is reused across the batch, so the
     per-polynomial allocation is one output row. *)
  let eval_batch t css xs =
    let n = Array.length xs in
    let m = Array.length css in
    let q = t.q in
    let out = Array.make m [||] in
    let is_ap =
      n >= 2
      &&
      let ok = ref true in
      for i = 0 to n - 2 do
        let s = xs.(i) + 1 in
        let s = if s >= q then s - q else s in
        if xs.(i + 1) <> s then ok := false
      done;
      !ok
    in
    let maxlen = Array.fold_left (fun a cs -> max a (Array.length cs)) 1 css in
    let diff = Array.make maxlen 0 in
    let anti = Array.make maxlen 0 in
    for j = 0 to m - 1 do
      let cs = css.(j) in
      let len = Array.length cs in
      let row = Array.make n 0 in
      out.(j) <- row;
      if len = 0 then () (* zero polynomial: row stays 0 *)
      else if (not is_ap) || n <= len then
        for i = 0 to n - 1 do
          row.(i) <- horner t cs xs.(i)
        done
      else begin
        let d = len - 1 in
        (* Seeds p(xs.(0)) .. p(xs.(d)). *)
        for i = 0 to d do
          let y = horner t cs xs.(i) in
          row.(i) <- y;
          diff.(i) <- y
        done;
        (* Anti-diagonal of the difference triangle:
           anti.(k) = Δ^k p(xs.(d-k)). *)
        anti.(0) <- diff.(d);
        for k = 1 to d do
          for i = d downto k do
            let s = diff.(i) - diff.(i - 1) in
            diff.(i) <- (if s < 0 then s + q else s)
          done;
          anti.(k) <- diff.(d)
        done;
        (* Advance: updating j descending uses the already-advanced
           anti.(j+1), which is exactly Δ^(j+1) p at the anchor the
           update of anti.(j) needs. *)
        for i = d + 1 to n - 1 do
          for k = d - 1 downto 0 do
            let s = anti.(k) + anti.(k + 1) in
            anti.(k) <- (if s >= q then s - q else s)
          done;
          row.(i) <- anti.(0)
        done
      end
    done;
    out
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

  (* Elements are canonical residues, so the raw table kernel is
     directly the field kernel. *)
  let batch_eval = Some (fun css xs -> Tables.eval_batch tables css xs)
  let dot = None
end
