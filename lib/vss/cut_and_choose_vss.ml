module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module S = Shamir.Make (F)

  type verdict = Accept | Reject

  type dealing = {
    alpha : F.t array;
    masks : F.t array array;
    mask_polys : P.t array;
    sum_polys : P.t array;
  }

  let dealing_of_polys ~n ~t f gs =
    let plan = S.grid ~n ~t in
    {
      alpha = S.G.eval_poly plan f;
      masks = Array.map (S.G.eval_poly plan) gs;
      mask_polys = gs;
      sum_polys = Array.map (fun gj -> P.add f gj) gs;
    }

  let honest_dealing g ~n ~t ~rounds ~secret =
    if t >= n then invalid_arg "Cut_and_choose_vss: need t < n";
    let f = S.share_poly g ~t ~secret in
    let gs =
      Array.init rounds (fun _ -> S.share_poly g ~t ~secret:(F.random g))
    in
    dealing_of_polys ~n ~t f gs

  let cheating_dealing g ~n ~t ~rounds =
    if t + 1 >= n then invalid_arg "Cut_and_choose_vss: t+1 >= n";
    let f =
      P.add (P.random g ~degree:t) (P.monomial (F.random_nonzero g) (t + 1))
    in
    let gs =
      Array.init rounds (fun _ -> S.share_poly g ~t ~secret:(F.random g))
    in
    dealing_of_polys ~n ~t f gs

  let run ~n ~t ~challenges dealing =
    if Array.length dealing.masks <> Array.length challenges then
      invalid_arg "Cut_and_choose_vss.run: challenge count mismatch";
    (* The dealer first distributes the mask shares: one round of n
       messages per mask polynomial. *)
    Array.iter
      (fun _ ->
        for _ = 1 to n do
          Metrics.tick_message ~bytes_len:F.byte_size
        done)
      dealing.masks;
    Metrics.tick_round ();
    let ok = ref true in
    Array.iteri
      (fun j open_sum ->
        (* Players broadcast the opened share for challenge j. *)
        let announced =
          Broadcast.round ~byte_size:(fun _ -> F.byte_size) ~n (fun i ->
              let share =
                if open_sum then F.add dealing.alpha.(i) dealing.masks.(j).(i)
                else dealing.masks.(j).(i)
              in
              Some share)
        in
        let points =
          List.map
            (fun i ->
              match announced.(i) with
              | Some v -> (S.eval_point i, v)
              | None -> assert false)
            (List.init n Fun.id)
        in
        (* Every player interpolates and checks the degree (global-total
           accounting; see DESIGN.md). *)
        let verdicts =
          Array.init n (fun _ -> P.fits_degree points ~max_degree:t)
        in
        if not verdicts.(0) then ok := false)
      challenges;
    if !ok then Accept else Reject
end
