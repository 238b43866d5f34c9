type plan = {
  tbl : Zq_table.Tables.t;
  m : int;
  log_m : int;
  root_powers : int array;     (* w^0 .. w^(m-1), w of order m *)
  inv_root_powers : int array; (* w^-0 .. w^-(m-1) *)
  m_inv : int;                 (* m^-1 mod q *)
}

let is_pow2 m = m > 0 && m land (m - 1) = 0

let plan tbl ~m =
  let q = Zq_table.Tables.q tbl in
  if not (is_pow2 m) then invalid_arg "Ntt.plan: size not a power of two";
  if (q - 1) mod m <> 0 then invalid_arg "Ntt.plan: m does not divide q-1";
  let w = Zq_table.Tables.exp tbl ((q - 1) / m) in
  let w_inv = Zq_table.Tables.inv tbl w in
  let powers base =
    let a = Array.make m 1 in
    for i = 1 to m - 1 do
      a.(i) <- Zq_table.Tables.mul tbl a.(i - 1) base
    done;
    a
  in
  let rec log2 v = if v = 1 then 0 else 1 + log2 (v / 2) in
  {
    tbl;
    m;
    log_m = log2 m;
    root_powers = powers w;
    inv_root_powers = powers w_inv;
    m_inv = Zq_table.Tables.inv tbl (m mod q);
  }

let size p = p.m

let bit_reverse_permute a log_m =
  let m = Array.length a in
  let rec rev v acc i =
    if i = 0 then acc else rev (v lsr 1) ((acc lsl 1) lor (v land 1)) (i - 1)
  in
  for i = 0 to m - 1 do
    let j = rev i 0 log_m in
    if i < j then begin
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    end
  done

(* In-place decimation-in-time butterfly network over the given root
   power table. *)
let fft_in_place p powers a =
  let tbl = p.tbl in
  bit_reverse_permute a p.log_m;
  let len = ref 2 in
  while !len <= p.m do
    let half = !len / 2 in
    let stride = p.m / !len in
    let base = ref 0 in
    while !base < p.m do
      for i = 0 to half - 1 do
        let w = powers.(i * stride) in
        let u = a.(!base + i) in
        let v = Zq_table.Tables.mul tbl w a.(!base + i + half) in
        a.(!base + i) <- Zq_table.Tables.add tbl u v;
        a.(!base + i + half) <- Zq_table.Tables.sub tbl u v
      done;
      base := !base + !len
    done;
    len := !len * 2
  done

let pad p a =
  if Array.length a > p.m then invalid_arg "Ntt: input longer than plan size";
  let out = Array.make p.m 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

let transform p a =
  let out = pad p a in
  fft_in_place p p.root_powers out;
  out

let inverse p a =
  if Array.length a <> p.m then invalid_arg "Ntt.inverse: wrong length";
  let out = Array.copy a in
  fft_in_place p p.inv_root_powers out;
  for i = 0 to p.m - 1 do
    out.(i) <- Zq_table.Tables.mul p.tbl out.(i) p.m_inv
  done;
  out

let convolve p a b =
  if Array.length a + Array.length b - 1 > p.m then
    invalid_arg "Ntt.convolve: result does not fit plan size";
  let fa = transform p a and fb = transform p b in
  for i = 0 to p.m - 1 do
    fa.(i) <- Zq_table.Tables.mul p.tbl fa.(i) fb.(i)
  done;
  inverse p fa
