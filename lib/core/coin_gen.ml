let log_src = Logs.Src.create "dprbg.coingen" ~doc:"Coin-Gen protocol events"

module Log = (val Logs.src_log log_src)

module Make (F : Field_intf.S) = struct
  module C = Sealed_coin.Make (F)
  module BG = Bit_gen.Make (F)
  module P = Poly.Make (F)
  module S = Shamir.Make (F)
  module V = Vss.Make (F)

  type payload = { clique : int list; polys : (int * F.t array) list }

  let coeffs_equal x y =
    Array.length x = Array.length y && Array.for_all2 F.equal x y

  let payload_equal a b =
    a == b
    || a.clique = b.clique
    && List.length a.polys = List.length b.polys
    && List.for_all2
         (fun (i, p) (j, q) -> i = j && coeffs_equal p q)
         a.polys b.polys

  module Codec = Wire.Codec (F)

  let payload_bytes p =
    Codec.payload_size ~clique:p.clique
      ~poly_sizes:(List.map (fun (_, coeffs) -> Array.length coeffs) p.polys)

  type gamma_vector_behavior =
    | Honest_vec
    | Silent_vec
    | Arbitrary_vec of (int -> F.t option array)

  type adversary = {
    as_dealer : int -> BG.dealer_behavior;
    as_gamma : int -> gamma_vector_behavior;
    as_gradecast_dealer : int -> payload Gradecast.dealer_behavior;
    as_gradecast_follower : int -> payload Gradecast.follower_behavior;
    as_ba : int -> Phase_king.behavior;
  }

  let honest_adversary =
    {
      as_dealer = (fun _ -> BG.Honest_dealer);
      as_gamma = (fun _ -> Honest_vec);
      as_gradecast_dealer = (fun _ -> Gradecast.Dealer_honest);
      as_gradecast_follower = (fun _ -> Gradecast.Follower_honest);
      as_ba = (fun _ -> Phase_king.Honest);
    }

  let faulty_with ?(as_dealer = BG.Silent_dealer) ?(as_gamma = Silent_vec)
      ?(as_gradecast_dealer = Gradecast.Dealer_silent)
      ?(as_gradecast_follower = Gradecast.Follower_silent)
      ?(as_ba = Phase_king.Silent) faults =
    let pick faulty honest i =
      if Transport.Faults.is_faulty faults i then faulty else honest
    in
    {
      as_dealer = pick as_dealer BG.Honest_dealer;
      as_gamma = pick as_gamma Honest_vec;
      as_gradecast_dealer = pick as_gradecast_dealer Gradecast.Dealer_honest;
      as_gradecast_follower =
        pick as_gradecast_follower Gradecast.Follower_honest;
      as_ba = pick as_ba Phase_king.Honest;
    }

  type batch = {
    n : int;
    fault_bound : int;
    m : int;
    dealers : int list;
    shares : F.t array array;
    trusted : bool array array;
    ba_iterations : int;
    seed_coins_consumed : int;
  }

  let leader_index v ~n =
    (* Fold the element's low bits into an int; the non-uniformity of
       "mod n" over >= 2^min(k,40) values is negligible. *)
    let bits = F.to_bits v in
    let w = min 40 (Array.length bits) in
    let acc = ref 0 in
    for b = 0 to w - 1 do
      if bits.(b) then acc := !acc lor (1 lsl b)
    done;
    !acc mod n

  (* Does [share_ok j k] hold for every dealer k? Stops at the first
     that fails. *)
  let all_on share_ok dealers j =
    let k = ref 0 in
    while !k < Array.length dealers && share_ok j dealers.(!k) do
      incr k
    done;
    !k = Array.length dealers

  (* A payload is structurally valid for parameters (n, t) if its clique
     is a sorted duplicate-free subset of the players and it carries one
     degree-<= t polynomial for exactly each clique member. *)
  let well_formed ~n ~t pay =
    let rec sorted_distinct = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a < b && sorted_distinct rest
    in
    sorted_distinct pay.clique
    && List.for_all (fun j -> j >= 0 && j < n) pay.clique
    && List.map fst pay.polys = pay.clique
    && List.for_all (fun (_, coeffs) -> Array.length coeffs <= t + 1) pay.polys

  let run ?(adversary = honest_adversary) ?(max_ba_iterations = 64)
      ?(share_check_coin = true) ?ba ?(zero_secrets = false) ~prng ~oracle ~n
      ~t ~m () =
    let run_ba =
      match ba with
      | Some f -> f
      | None ->
          fun inputs -> Phase_king.run ~behavior:adversary.as_ba ~n ~t ~inputs ()
    in
    if n < (6 * t) + 1 then invalid_arg "Coin_gen.run: requires n >= 6t+1";
    if m < 1 then invalid_arg "Coin_gen.run: m must be positive";
    Trace.span Trace.Protocol "coin-gen" @@ fun () ->
    (* ---- Step 1: n parallel Bit-Gen dealings, batched on one net. *)
    let matrices =
      Array.init n (fun j -> BG.deal_matrix (adversary.as_dealer j) prng ~n ~t ~m)
    in
    let deal_net =
      Transport.create
        ~codec:(Codec.encode_elt_array, Codec.decode_elt_array)
        ~n
        ~byte_size:(fun v -> Codec.elt_array_size (Array.length v))
        ()
    in
    let inbox =
      Trace.span Trace.Phase "coin-gen.deal" @@ fun () ->
      Transport.exchange_inbox deal_net ~send:(fun () ->
          Array.iteri
            (fun j -> function
              | None -> ()
              | Some matrix ->
                  Transport.send_to_all deal_net ~src:j (fun dst -> matrix.(dst)))
            matrices)
    in
    let received =
      Array.init n (fun i ->
          Transport.Inbox.fold inbox ~dst:i
            (fun j v row ->
              if Array.length v = m then row.(j) <- Some v;
              row)
            (Array.make n None))
    in
    (* Attribution: a dealer absent from (or malformed in) the merged
       deal inboxes of t + 1 players is blamed — the envelope delivers
       honest live senders everywhere, and at most t crashed receivers
       can void an inbox. Evaluated lazily, only under a ledger. *)
    let exchange_evidence inbox ~malformed =
      let silent = Transport.Inbox.silent inbox ~at_least:(t + 1) in
      let bad = Array.make n 0 in
      for i = 0 to n - 1 do
        Transport.Inbox.fold inbox ~dst:i
          (fun j v () -> if malformed v then bad.(j) <- bad.(j) + 1)
          ()
      done;
      List.concat_map
        (fun j ->
          let acc =
            if bad.(j) >= t + 1 then [ (j, Sentinel.Undecodable) ] else []
          in
          if List.mem j silent then (j, Sentinel.Silent) :: acc else acc)
        (List.init n Fun.id)
    in
    Sentinel.observe (fun () ->
        exchange_evidence inbox ~malformed:(fun v -> Array.length v <> m));
    (* ---- Step 2: expose the check coin(s). Sharing one r across all n
       Bit-Gen invocations is the Theorem-2 optimization; the ablation
       path draws one per dealer. *)
    let check_coins =
      if share_check_coin then Array.make n (oracle ())
      else Array.init n (fun _ -> oracle ())
    in
    let check_coins_used = if share_check_coin then 1 else n in
    (* ---- Step 3: everyone announces its vector of combined shares,
       one gamma per dealer. *)
    let gamma_net =
      Transport.create
        ~codec:(Codec.encode_opt_elt_array, Codec.decode_opt_elt_array)
        ~n ~byte_size:Codec.opt_elt_array_size ()
    in
    let inbox =
      Trace.span Trace.Phase "coin-gen.gamma" @@ fun () ->
      Transport.exchange_inbox gamma_net ~send:(fun () ->
          for i = 0 to n - 1 do
            match adversary.as_gamma i with
            | Honest_vec ->
                let vec =
                  if share_check_coin then begin
                    (* One Horner call over every present dealer's
                       shares at the shared coin; an absent dealer is
                       an empty row, which costs nothing. *)
                    let rows =
                      Array.map
                        (function Some shares -> shares | None -> [||])
                        received.(i)
                    in
                    let out = Array.make n F.zero in
                    V.combine_rows ~r:check_coins.(0) rows out;
                    Array.mapi
                      (fun j -> function Some _ -> Some out.(j) | None -> None)
                      received.(i)
                  end
                  else
                    Array.mapi
                      (fun j shares_opt ->
                        Option.map
                          (fun shares -> V.combine ~r:check_coins.(j) shares)
                          shares_opt)
                      received.(i)
                in
                Transport.send_to_all gamma_net ~src:i (fun _ -> vec)
            | Silent_vec -> ()
            | Arbitrary_vec f ->
                for dst = 0 to n - 1 do
                  let vec = f dst in
                  if Array.length vec = n then Transport.send gamma_net ~src:i ~dst vec
                done
          done)
    in
    (* gammas.(i).(k).(j) = gamma_k^(dealer j) as received by player i. *)
    let gammas =
      Array.init n (fun i ->
          Transport.Inbox.fold inbox ~dst:i
            (fun k vec rows ->
              if Array.length vec = n then rows.(k) <- vec;
              rows)
            (Array.init n (fun _ -> Array.make n None)))
    in
    Sentinel.observe (fun () ->
        exchange_evidence inbox ~malformed:(fun v -> Array.length v <> n));
    (* ---- Steps 4-6: local decode, graph, clique — per player. *)
    let checks =
      (* checks.(i).(j): player i's (F_j, S_j) for dealer j. In a
         zero-secrets (refresh) batch, a dealer whose check polynomial
         does not vanish at 0 is rejected outright here — otherwise a
         faulty dealer with valid but non-zero sharings would poison
         every honest clique and stall the agreement loop. *)
      Trace.span Trace.Phase "coin-gen.decode" @@ fun () ->
      (* Every gamma column is gathered into one reused vector and
         decoded through one decoder (one plan lookup). *)
      let decoder = BG.decoder ~n ~t and column = Array.make n None in
      Array.init n (fun i ->
          let row =
            Array.init n (fun j ->
                for k = 0 to n - 1 do
                  column.(k) <- gammas.(i).(k).(j)
                done;
                match BG.decode decoder column with
                | Some f, _
                  when zero_secrets && not (F.equal (P.eval f F.zero) F.zero)
                  ->
                    (None, Array.make n false)
                | result -> result)
          in
          if Trace.enabled () then
            Trace.event (fun () ->
                let decoded =
                  Array.fold_left
                    (fun acc (f, _) -> if Option.is_some f then acc + 1 else acc)
                    0 row
                in
                Trace.Reconstruct { player = i; ok = decoded >= n - t });
          row)
    in
    (* A dealing undecodable at t + 1 players is the dealer's fault:
       honest dealings decode at every live player (robust decode
       tolerates the <= t faulty gamma senders), and at most t crashed
       receivers decode nothing at all. *)
    Sentinel.observe (fun () ->
        List.filter_map
          (fun j ->
            let rejections =
              Array.fold_left
                (fun acc row -> if fst row.(j) = None then acc + 1 else acc)
                0 checks
            in
            if rejections >= t + 1 then Some (j, Sentinel.Rejected_dealing)
            else None)
          (List.init n Fun.id));
    (* Edge j -> k when k's gamma lies on F_j: exactly the support
       decode_check returned (all-false for a rejected dealer). *)
    let cliques =
      Array.init n (fun i ->
          let dg = Player_graph.directed_create ~n in
          for j = 0 to n - 1 do
            Array.iteri
              (fun k on_fj -> if on_fj then Player_graph.add_edge dg j k)
              (snd checks.(i).(j))
          done;
          let ug = Player_graph.bidirectional_core dg in
          Player_graph.approx_clique ug ~min_size:(n - (2 * t)))
    in
    (* ---- Step 7: parallel grade-cast of (clique, check polynomials). *)
    let payload_of i =
      match cliques.(i) with
      | None -> { clique = []; polys = [] }
      | Some c ->
          {
            clique = c;
            polys =
              List.filter_map
                (fun j ->
                  Option.map (fun f -> (j, P.coeffs f)) (fst checks.(i).(j)))
                c;
          }
    in
    let outcomes =
      Trace.span Trace.Phase "coin-gen.gradecast" @@ fun () ->
      Gradecast.run_all ~dealer_behavior:adversary.as_gradecast_dealer
        ~follower_behavior:adversary.as_gradecast_follower ~equal:payload_equal
        ~byte_size:payload_bytes ~n ~t ~values:payload_of ()
    in
    (* Step 10 conditions, evaluated from player i's own state.
       [share_ok j k]: player j's gamma for dealer k, as player i received
       it, lies on the agreed F_k. When the agreed coefficients are
       exactly the F_k player i decoded itself, that predicate is the
       support [decode_check] already returned ("gamma present and on
       F_k") and is read off with t + 1 compares and no multiply; any
       other polynomial — a rejected, undecodable or zero-secret-refused
       dealing, or one the leader made up — is evaluated. *)
    let own_decode i k coeffs =
      match checks.(i).(k) with
      | Some f, support when Array.length coeffs = P.degree f + 1 ->
          let rec same d =
            d < 0 || (F.equal coeffs.(d) (P.coeff f d) && same (d - 1))
          in
          if same (Array.length coeffs - 1) then Some support else None
      | _ -> None
    in
    let build_share_check i pay =
      (* Indexed by dealer; a well-formed payload carries exactly one
         polynomial per clique member, and only clique members are
         asked about. *)
      let on_fk = Array.make n None in
      List.iter
        (fun (k, coeffs) ->
          on_fk.(k) <-
            Some
              (match own_decode i k coeffs with
              | Some support -> Array.get support
              | None -> (
                  let f = P.of_coeffs coeffs in
                  fun j ->
                    match gammas.(i).(j).(k) with
                    | Some v -> F.equal (P.eval f (S.eval_point j)) v
                    | None -> false)))
        pay.polys;
      fun j k ->
        match on_fk.(k) with Some on -> on j | None -> raise Not_found
    in
    (* The predicate depends on the payload's polynomials alone, so
       player i keeps the last one it built: the final [trusted] matrix
       reads the one condition (iii) built for the accepted payload. *)
    let share_checks = Array.make n None in
    let share_check i pay =
      match share_checks.(i) with
      | Some (built, share_ok) when payload_equal built pay -> share_ok
      | Some _ | None ->
          let share_ok = build_share_check i pay in
          share_checks.(i) <- Some (pay, share_ok);
          share_ok
    in
    let condition_iii i pay =
      let share_ok = share_check i pay in
      let clique = Array.of_list pay.clique in
      let good = ref 0 in
      Array.iter (fun j -> if all_on share_ok clique j then incr good) clique;
      !good >= (3 * t) + 1
    in
    (* For refresh batches, every accepted check polynomial must vanish
       at zero: F_k = sum_h r^h g_{k,h} with all g(0) = 0, so a dealer
       hiding a non-zero secret escapes with probability <= M/p. *)
    let zero_secret_ok pay =
      (not zero_secrets)
      || List.for_all
           (fun (_, coeffs) ->
             Array.length coeffs = 0 || F.equal coeffs.(0) F.zero)
           pay.polys
    in
    let ba_input i l =
      let o = outcomes.(i).(l) in
      match o.Gradecast.value with
      | Some pay ->
          o.Gradecast.confidence = 2
          && well_formed ~n ~t pay
          && List.length pay.clique >= n - (2 * t)
          && zero_secret_ok pay
          && condition_iii i pay
      | None -> false
    in
    (* Majority helpers: >= n - t honest players always agree, and
       n >= 6t+1 makes that an absolute majority. *)
    let majority_decision decisions =
      let ones = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 decisions in
      2 * ones > n
    in
    let majority_payload l =
      let candidates =
        List.filter_map
          (fun i ->
            let o = outcomes.(i).(l) in
            if o.Gradecast.confidence >= 1 then o.Gradecast.value else None)
          (List.init n Fun.id)
      in
      let count p = List.length (List.filter (payload_equal p) candidates) in
      List.find_opt (fun p -> 2 * count p > n) candidates
    in
    (* ---- Steps 9-11: draw a leader, agree, repeat on failure. *)
    let rec ba_loop iter coins_used =
      if iter >= max_ba_iterations then begin
        Log.warn (fun m ->
            m "giving up after %d leader draws (adversarial luck?)" iter);
        None
      end
      else begin
        (* Leader rotation skips quarantined players: the draw indexes
           into the eligible list, which is all n players whenever no
           active ledger has quarantined anyone — identical arithmetic,
           identical leader. *)
        let eligible =
          match
            List.filter
              (fun p -> not (Sentinel.excluded p))
              (List.init n Fun.id)
          with
          | [] -> List.init n Fun.id
          | ps -> ps
        in
        let l =
          List.nth eligible
            (leader_index (oracle ()) ~n:(List.length eligible))
        in
        Trace.note (Printf.sprintf "iteration %d: leader %d" (iter + 1) l);
        let coins_used = coins_used + 1 in
        let inputs = Array.init n (fun i -> ba_input i l) in
        let yes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inputs in
        let decisions = run_ba inputs in
        Log.debug (fun m ->
            m "iteration %d: leader %d, %d/%d players input 1, BA decided %b"
              (iter + 1) l yes n
              (majority_decision decisions));
        if majority_decision decisions then
          match majority_payload l with
          | Some pay -> Some (pay, iter + 1, coins_used)
          | None ->
              (* Decision 1 guarantees an honest input 1, hence an honest
                 confidence-2 outcome, hence a majority payload; reaching
                 here means the adversary broke a protocol invariant. *)
              assert false
        else ba_loop (iter + 1) coins_used
      end
    in
    match Trace.span Trace.Phase "coin-gen.ba" (fun () -> ba_loop 0 check_coins_used) with
    | None -> None
    | Some (pay, iterations, coins_used) ->
        Log.info (fun f ->
            f "batch accepted: clique {%s}, %d coins, %d BA iteration(s), %d seed coin(s)"
              (String.concat "," (List.map string_of_int pay.clique))
              m iterations coins_used);
        let dealers = pay.clique in
        let clique = Array.of_list dealers in
        (* Coin h's share sums the clique's rows at h in a local, so the
           (possibly major-heap) result row is written once per coin. *)
        let shares =
          Array.init n (fun i ->
              let rows = Array.make (Array.length clique) [||] in
              let present = ref 0 in
              Array.iter
                (fun j ->
                  match received.(i).(j) with
                  | Some v ->
                      rows.(!present) <- v;
                      incr present
                  | None -> ())
                clique;
              let present = !present in
              Array.init m (fun h ->
                  let acc = ref F.zero in
                  for k = 0 to present - 1 do
                    acc := F.add !acc rows.(k).(h)
                  done;
                  !acc))
        in
        let trusted =
          Array.init n (fun i ->
              let share_ok = share_check i pay in
              Array.init n (fun j -> all_on share_ok clique j))
        in
        Some
          {
            n;
            fault_bound = t;
            m;
            dealers;
            shares;
            trusted;
            ba_iterations = iterations;
            seed_coins_consumed = coins_used;
          }

  let coin batch h =
    if h < 0 || h >= batch.m then invalid_arg "Coin_gen.coin: index out of range";
    {
      C.n = batch.n;
      C.fault_bound = batch.fault_bound;
      C.shares = Array.init batch.n (fun i -> batch.shares.(i).(h));
      C.trusted = Some batch.trusted;
    }
end
