module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module S = Shamir.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module Codec = Wire.Codec (F)

  (* Wire codec for the broadcast gammas, so corruption faults under a
     degraded-network plan operate on real encodings. *)
  let elt_codec = (Codec.encode_elt, Codec.decode_elt)

  type verdict = Accept | Reject

  type player_behavior = Honest | Silent | Broadcast of F.t

  let honest_dealing g ~n ~t ~secret = S.deal g ~t ~n ~secret

  (* Every dealing below draws its polynomials and has the session
     plan evaluate them (Grid.eval_poly / Grid.deal), which draws
     nothing: the PRNG stream is the draws alone. *)
  let cheating_poly g ~n ~t ~degree =
    if degree <= t then invalid_arg "Vss.cheating_dealing: degree must exceed t";
    if degree >= n then invalid_arg "Vss.cheating_dealing: degree must be < n";
    P.add (P.random g ~degree:t) (P.monomial (F.random_nonzero g) degree)

  let cheating_dealing g ~n ~t ~degree =
    S.G.eval_poly (S.grid ~n ~t) (cheating_poly g ~n ~t ~degree)

  let targeted_cheating_dealing g ~n ~t ~guess =
    if F.equal guess F.zero then
      invalid_arg "Vss.targeted_cheating_dealing: guess must be non-zero";
    if t + 1 >= n then invalid_arg "Vss.targeted_cheating_dealing: t+1 >= n";
    (* f has a single offending coefficient a at degree t+1; g is rigged
       with -a/guess there, so that a + r * (-a/guess) vanishes exactly
       when r = guess (Lemma 1's proof, met with equality). *)
    let a = F.random_nonzero g in
    let f = P.add (P.random g ~degree:t) (P.monomial a (t + 1)) in
    let rig = F.neg (F.div a guess) in
    let gp = P.add (P.random g ~degree:t) (P.monomial rig (t + 1)) in
    let plan = S.grid ~n ~t in
    (S.G.eval_poly plan f, S.G.eval_poly plan gp)

  (* The per-player broadcast value, shaped by its behaviour. *)
  let announced_gamma behavior honest_value i =
    match behavior i with
    | Honest -> Some (honest_value i)
    | Silent -> None
    | Broadcast v -> Some v

  (* Accounting convention (see DESIGN.md): ambient counters are global
     totals, so work that every player performs locally is executed once
     per player; the harness divides by n to report per-player costs.
     Each player computes its own verdict, which is identical across
     honest players because all inputs are broadcast values. *)

  (* Fig. 2 / Fig. 3 step 4: interpolate through *all* broadcast values;
     a missing value means the degree check cannot pass. The degree
     check runs on the session plan's precomputed extension rows —
     equivalent to interpolating and testing the degree, without the
     per-call Lagrange setup. *)
  let strict_verdict_one ~n ~t announced =
    let rec gather i values =
      if i >= n then Some values
      else
        match announced.(i) with
        | None -> None
        | Some v ->
            values.(i) <- v;
            gather (i + 1) values
    in
    match gather 0 (Array.make n F.zero) with
    | None -> Reject
    | Some values ->
        if S.G.fits (S.grid ~n ~t) values then Accept else Reject

  let per_player_verdict ?dealer ~n verdict_one =
    Trace.span Trace.Phase "vss.verdict" @@ fun () ->
    let verdicts =
      Array.init n (fun i ->
          let v = verdict_one () in
          Trace.event (fun () ->
              Trace.Verdict { player = i; accept = v = Accept });
          v)
    in
    (* Verdicts are computed from broadcast values, so every player —
       all n of them, far beyond the t + 1 concurrence floor — reaches
       the same one: a Reject is unanimously attributable to the named
       dealer. *)
    (match (dealer, verdicts.(0)) with
    | Some d, Reject ->
        Sentinel.observe (fun () -> [ (d, Sentinel.Rejected_dealing) ])
    | _ -> ());
    verdicts.(0)

  let strict_verdict ?dealer ~n ~t announced =
    per_player_verdict ?dealer ~n (fun () -> strict_verdict_one ~n ~t announced)

  (* Section-4 acceptance: a degree-<= t polynomial supported by at least
     n - t of the announced values. *)
  let robust_verdict_one ~n ~t announced =
    let points =
      List.filter_map
        (fun i ->
          Option.map (fun v -> (S.eval_point i, v)) announced.(i))
        (List.init n Fun.id)
    in
    let m = List.length points in
    if m < n - t then Reject
    else
      let e = (m - t - 1) / 2 in
      match BW.decode_with_support ~max_degree:t ~max_errors:e points with
      | Some (_, support) when List.length support >= n - t -> Accept
      | Some _ | None -> Reject

  let robust_verdict ?dealer ~n ~t announced =
    per_player_verdict ?dealer ~n (fun () -> robust_verdict_one ~n ~t announced)

  let check_sizes name ~n arrays =
    List.iter
      (fun a ->
        if Array.length a <> n then
          invalid_arg (name ^ ": share vector has wrong length"))
      arrays

  let gamma_single ~alpha ~beta ~r i = F.add alpha.(i) (F.mul r beta.(i))

  let deal_round ~n =
    Trace.span Trace.Phase "vss.deal" @@ fun () ->
    Trace.span Trace.Round "deal.round" @@ fun () ->
    (* The dealer hands one field element to each player over the private
       channels: n messages of one element, one round. *)
    for dst = 1 to n do
      Metrics.tick_message ~bytes_len:F.byte_size;
      Trace.event (fun () ->
          Trace.Send { src = 0; dst = dst - 1; bytes = F.byte_size })
    done;
    Metrics.tick_round ()

  let gamma_round ~n announce =
    Trace.span Trace.Phase "vss.gamma" @@ fun () ->
    Broadcast.round ~codec:elt_codec ~byte_size:(fun _ -> F.byte_size) ~n
      announce

  let run ?dealer ?(player_behavior = fun _ -> Honest) ~n ~t ~alpha ~beta ~r () =
    if n < (3 * t) + 1 then invalid_arg "Vss.run: requires n >= 3t+1";
    check_sizes "Vss.run" ~n [ alpha; beta ];
    Trace.span Trace.Protocol "vss" @@ fun () ->
    deal_round ~n;
    let announced =
      gamma_round ~n
        (announced_gamma player_behavior (gamma_single ~alpha ~beta ~r))
    in
    strict_verdict ?dealer ~n ~t announced

  let run_robust ?dealer ?(player_behavior = fun _ -> Honest) ~n ~t ~alpha ~beta ~r () =
    if n < (3 * t) + 1 then invalid_arg "Vss.run_robust: requires n >= 3t+1";
    check_sizes "Vss.run_robust" ~n [ alpha; beta ];
    Trace.span Trace.Protocol "vss.robust" @@ fun () ->
    deal_round ~n;
    let announced =
      gamma_round ~n
        (announced_gamma player_behavior (gamma_single ~alpha ~beta ~r))
    in
    robust_verdict ?dealer ~n ~t announced

  (* Fig. 3 step 2 per row: (...((r a_M + a_{M-1}) r + a_{M-2})...) r
     + a_1) r. The bracket is Horner over the row at r (M - 1
     multiplications and additions, all rows in one call), and the
     final factor r one more multiplication: exactly M and M - 1. *)
  let combine_rows ~r rows out =
    P.eval_rows rows r out;
    for j = 0 to Array.length rows - 1 do
      if Array.length rows.(j) > 0 then out.(j) <- F.mul out.(j) r
    done

  let combine ~r shares =
    let out = [| F.zero |] in
    combine_rows ~r [| shares |] out;
    out.(0)

  let combine_naive ~r shares =
    let acc = ref F.zero in
    Array.iteri
      (fun j a -> acc := F.add !acc (F.mul (F.pow r (j + 1)) a))
      shares;
    !acc

  let batch_honest_dealing g ~n ~t ~secrets =
    let plan = S.grid ~n ~t in
    S.G.deal plan (Array.map (fun secret -> S.share_poly g ~t ~secret) secrets)

  let batch_cheating_dealing g ~n ~t ~m ~bad =
    List.iter
      (fun j ->
        if j < 0 || j >= m then
          invalid_arg "Vss.batch_cheating_dealing: bad index out of range")
      bad;
    let plan = S.grid ~n ~t in
    S.G.deal plan
      (Array.init m (fun j ->
           if List.mem j bad then cheating_poly g ~n ~t ~degree:(t + 1)
           else S.share_poly g ~t ~secret:(F.random g)))

  let batch_targeted_cheating_dealing g ~n ~t ~roots =
    let m = Array.length roots in
    if m = 0 then invalid_arg "Vss.batch_targeted_cheating_dealing: no roots";
    Array.iter
      (fun r ->
        if F.equal r F.zero then
          invalid_arg "Vss.batch_targeted_cheating_dealing: zero root")
      roots;
    if
      Array.length (Array.of_list (List.sort_uniq F.compare (Array.to_list roots)))
      <> m
    then invalid_arg "Vss.batch_targeted_cheating_dealing: duplicate roots";
    (* H(r) = r * prod_{i=0}^{m-2} (r - roots_i): degree m, no constant
       term (the Horner combination only produces powers r^1..r^m), and
       root set {0, roots_0, ..., roots_{m-2}} — exactly m distinct
       values, meeting Lemma 3's m/p bound with equality. *)
    let h =
      Array.fold_left
        (fun acc root -> P.mul acc (P.of_coeffs [| F.neg root; F.one |]))
        (P.of_coeffs [| F.zero; F.one |])
        (Array.sub roots 0 (m - 1))
    in
    assert (P.degree h = m);
    assert (F.equal (P.coeff h 0) F.zero);
    (* Sharing j (1-based power j+1... Horner gives gamma = sum_j r^(j+1)
       alpha_{i,j} for j = 0..m-1). Give sharing j the offending
       x^(t+1)-coefficient coeff_{j+1}(H), so the combined polynomial's
       x^(t+1) coefficient is H(r). *)
    S.G.deal (S.grid ~n ~t)
      (Array.init m (fun j ->
           let base = S.share_poly g ~t ~secret:(F.random g) in
           P.add base (P.monomial (P.coeff h (j + 1)) (t + 1))))

  let gamma_batch ~shares ~r i = combine ~r shares.(i)

  let run_batch ?dealer ?(player_behavior = fun _ -> Honest) ~n ~t ~shares ~r () =
    if n < (3 * t) + 1 then invalid_arg "Vss.run_batch: requires n >= 3t+1";
    if Array.length shares <> n then
      invalid_arg "Vss.run_batch: shares must be indexed by player";
    Trace.span Trace.Protocol "batch-vss" @@ fun () ->
    let announced =
      gamma_round ~n
        (announced_gamma player_behavior (gamma_batch ~shares ~r))
    in
    strict_verdict ?dealer ~n ~t announced

  let run_batch_on ?dealer ?(player_behavior = fun _ -> Honest) ~n ~t ~players
      ~shares ~r () =
    if n < (3 * t) + 1 then invalid_arg "Vss.run_batch_on: requires n >= 3t+1";
    if Array.length shares <> n then
      invalid_arg "Vss.run_batch_on: shares must be indexed by player";
    if List.length (List.sort_uniq compare players) <> List.length players then
      invalid_arg "Vss.run_batch_on: duplicate player ids";
    List.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Vss.run_batch_on: id out of range")
      players;
    if List.length players < t + 1 then
      invalid_arg "Vss.run_batch_on: need at least t+1 players";
    Trace.span Trace.Protocol "batch-vss.subset" @@ fun () ->
    let announced =
      gamma_round ~n
        (announced_gamma player_behavior (gamma_batch ~shares ~r))
    in
    let verdict_one () =
      let rec gather ids acc =
        match ids with
        | [] -> Some (List.rev acc)
        | i :: rest -> (
            match announced.(i) with
            | None -> None
            | Some v -> gather rest ((i, v) :: acc))
      in
      match gather players [] with
      | None -> Reject
      | Some points ->
          (* The subset's extension rows are cached in the plan, so the
             n per-player verdicts set them up once. *)
          if S.G.fits_on (S.grid ~n ~t) points then Accept else Reject
    in
    per_player_verdict ?dealer ~n verdict_one

  let run_batch_robust ?dealer ?(player_behavior = fun _ -> Honest) ~n ~t ~shares
      ~r () =
    if n < (3 * t) + 1 then invalid_arg "Vss.run_batch_robust: requires n >= 3t+1";
    if Array.length shares <> n then
      invalid_arg "Vss.run_batch_robust: shares must be indexed by player";
    Trace.span Trace.Protocol "batch-vss.robust" @@ fun () ->
    let announced =
      gamma_round ~n
        (announced_gamma player_behavior (gamma_batch ~shares ~r))
    in
    robust_verdict ?dealer ~n ~t announced
end
