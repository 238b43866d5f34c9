(* Fig. 4 step 5 as [Bit_gen.decode_check] computed it before the
   grid fast path: Berlekamp-Welch over every present gamma, always,
   and the support rebuilt by evaluating the decoded polynomial at each
   point. Kept verbatim as the reference for the differential
   properties in [Test_bit_gen]. *)

module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module S = Shamir.Make (F)
  module BW = Berlekamp_welch.Make (F)

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
