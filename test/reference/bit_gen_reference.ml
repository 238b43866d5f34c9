(* [Bit_gen] as it computed Fig. 4 before its grid paths, kept verbatim
   as the reference for the differential tests:
   - step 1, [deal_matrix], before every dealing went through
     [Grid.deal]: each share one [Poly.eval] at a freshly computed
     player point (pinned in [Test_batch_kernels]);
   - step 5, [decode_check], before the grid fast path: Berlekamp-Welch
     over every present gamma, always, and the support rebuilt by
     evaluating the decoded polynomial at each point (pinned in
     [Test_bit_gen]). *)

module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module S = Shamir.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module BG = Bit_gen.Make (F)

  let deal_matrix (behavior : BG.dealer_behavior) g ~n ~t ~m =
    let honest_poly () = S.share_poly g ~t ~secret:(F.random g) in
    let zero_poly () = S.share_poly g ~t ~secret:F.zero in
    match behavior with
    | Silent_dealer -> None
    | Matrix matrix ->
        if
          Array.length matrix <> n
          || Array.exists (fun row -> Array.length row <> m) matrix
        then invalid_arg "Bit_gen: explicit matrix has wrong dimensions";
        Some matrix
    | Honest_dealer | Honest_zero_dealer | Bad_degree _ | Inconsistent_to _ ->
        let polys =
          Array.init m (fun h ->
              match behavior with
              | Bad_degree bad when List.mem h bad ->
                  P.add (honest_poly ())
                    (P.monomial (F.random_nonzero g) (t + 1))
              | Honest_zero_dealer -> zero_poly ()
              | Honest_dealer | Bad_degree _ | Inconsistent_to _ ->
                  honest_poly ()
              | Silent_dealer | Matrix _ -> assert false)
        in
        let matrix =
          Array.init n (fun i ->
              Array.init m (fun h -> P.eval polys.(h) (S.eval_point i)))
        in
        (match behavior with
        | Inconsistent_to victims ->
            List.iter
              (fun i ->
                if i < 0 || i >= n then
                  invalid_arg "Bit_gen: victim id out of range";
                matrix.(i) <- Array.init m (fun _ -> F.random g))
              victims
        | Honest_dealer | Honest_zero_dealer | Bad_degree _ | Silent_dealer
        | Matrix _ -> ());
        Some matrix

  let decode_check ~n ~t gammas =
    let points =
      List.filter_map
        (fun k -> Option.map (fun v -> (S.eval_point k, v)) gammas.(k))
        (List.init n Fun.id)
    in
    let m_pts = List.length points in
    if m_pts < n - t then (None, Array.make n false)
    else
      let e = (m_pts - t - 1) / 2 in
      match BW.decode_with_support ~max_degree:t ~max_errors:e points with
      | Some (f, support) when List.length support >= n - t ->
          let in_support =
            Array.init n (fun k ->
                match gammas.(k) with
                | Some v -> F.equal (P.eval f (S.eval_point k)) v
                | None -> false)
          in
          (Some f, in_support)
      | Some _ | None -> (None, Array.make n false)
end
