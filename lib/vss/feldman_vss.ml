type verdict = Accept | Reject

(* A ~30-bit safe-prime pair: q prime with p = 2q + 1 prime. Found once
   at load time; the search is a few dozen Miller-Rabin calls. *)
let q, p =
  let rec search q =
    if q >= 1 lsl 30 then failwith "Feldman_vss: no safe prime found"
    else if Zp.is_prime q && Zp.is_prime ((2 * q) + 1) then (q, (2 * q) + 1)
    else search (q + 1)
  in
  search ((1 lsl 29) + 1)

module Fq = Zp.Make (struct let p = q end)
module Fp = Zp.Make (struct let p = (2 * q) + 1 end)
module S = Shamir.Make (Fq)
module P = Poly.Make (Fq)

let generator =
  (* Squares generate the order-q subgroup of Z_p*; avoid the trivial
     square 1. *)
  let rec find h =
    let cand = Fp.repr (Fp.mul (Fp.of_int h) (Fp.of_int h)) in
    if cand <> 1 then cand else find (h + 1)
  in
  find 2

type dealing = { shares : Fq.t array; commitments : int array }

let commitments_of_poly ~t f =
  Array.init (t + 1) (fun j ->
      Fp.repr (Fp.pow (Fp.of_int generator) (Fq.repr (P.coeff f j))))

let honest_dealing g ~n ~t ~secret =
  let f = S.share_poly g ~t ~secret in
  { shares = S.G.eval_poly (S.grid ~n ~t) f;
    commitments = commitments_of_poly ~t f }

let cheating_dealing g ~n ~t ~corrupt =
  if corrupt < 0 || corrupt >= n then
    invalid_arg "Feldman_vss.cheating_dealing: corrupt id out of range";
  let d = honest_dealing g ~n ~t ~secret:(Fq.random g) in
  d.shares.(corrupt) <- Fq.add d.shares.(corrupt) Fq.one;
  d

let verify_share ~t ~commitments ~player ~share =
  if Array.length commitments <> t + 1 then
    invalid_arg "Feldman_vss.verify_share: commitment count";
  let x = Fq.repr (S.eval_point player) in
  (* prod_j c_j^(x^j) via Horner in the exponent:
     (((c_t)^x * c_{t-1})^x * ...)^x * c_0 — t exponentiations, each a
     square-and-multiply of the counted Z_p multiplications. *)
  let acc = ref (Fp.of_repr commitments.(t)) in
  for j = t - 1 downto 0 do
    acc := Fp.mul (Fp.pow !acc x) (Fp.of_repr commitments.(j))
  done;
  let lhs = Fp.pow (Fp.of_int generator) (Fq.repr share) in
  Fp.equal lhs !acc

let run ~n ~t dealing =
  if Array.length dealing.shares <> n then
    invalid_arg "Feldman_vss.run: share count";
  (* Round 1: dealer broadcasts the t+1 commitments and deals the n
     shares over private channels. *)
  ignore
    (Broadcast.round ~byte_size:(fun c -> Array.length c * Fp.byte_size) ~n:1
       (fun _ -> Some dealing.commitments));
  for _ = 1 to n do
    Metrics.tick_message ~bytes_len:Fq.byte_size
  done;
  (* Round 2: every player verifies its own share and broadcasts a
     complaint bit. *)
  let complaints =
    Broadcast.round ~byte_size:(fun _ -> 1) ~n (fun i ->
        Some
          (not
             (verify_share ~t ~commitments:dealing.commitments ~player:i
                ~share:dealing.shares.(i))))
  in
  if Array.exists (fun c -> c = Some true) complaints then Reject else Accept
