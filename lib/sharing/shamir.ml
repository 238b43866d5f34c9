module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module G = Grid.Make (F)

  let eval_point i =
    assert (i >= 0);
    F.of_int (i + 1)

  (* One plan per (n, t) session, shared by every deal/verify/
     reconstruct in this functor instantiation. The table is tiny: a
     deployment touches a handful of (n, t) pairs over its lifetime. *)
  let grids : (int * int, G.t) Hashtbl.t = Hashtbl.create 7

  let grid ~n ~t =
    match Hashtbl.find_opt grids (n, t) with
    | Some plan -> plan
    | None ->
        let plan = G.make ~n ~t in
        Hashtbl.replace grids (n, t) plan;
        plan

  let share_poly g ~t ~secret =
    assert (t >= 0);
    P.random_with_c0 g ~degree:t ~c0:secret

  let deal_with plan g ~secret =
    let f = share_poly g ~t:(G.degree_bound plan) ~secret in
    G.eval_poly plan f

  let deal g ~t ~n ~secret =
    if t >= n then invalid_arg "Shamir.deal: need t < n";
    deal_with (grid ~n ~t) g ~secret

  let deal_naive g ~t ~n ~secret =
    if t >= n then invalid_arg "Shamir.deal_naive: need t < n";
    let f = share_poly g ~t ~secret in
    Array.init n (fun i -> P.eval f (eval_point i))

  let reconstruct shares =
    if shares = [] then invalid_arg "Shamir.reconstruct: no shares";
    let m = List.length shares in
    let xs = Array.make m F.zero and ys = Array.make m F.zero in
    List.iteri
      (fun idx (i, s) ->
        xs.(idx) <- eval_point i;
        ys.(idx) <- s)
      shares;
    P.interpolate_at_arrays ~xs ~ys F.zero

  let robust_reconstruct ~t shares =
    let m = List.length shares in
    (* (m - t - 1) / 2 truncates toward zero, so at m = t it is 0, not
       negative — a degree-t decode needs m >= t + 1 points, guard on m. *)
    let e = (m - t - 1) / 2 in
    if m <= t then None
    else
      let points = List.map (fun (i, s) -> (eval_point i, s)) shares in
      match BW.decode_with_support ~max_degree:t ~max_errors:e points with
      | None -> None
      | Some (f, support) ->
          let support_ids =
            List.filter
              (fun (i, s) ->
                List.exists
                  (fun (x, y) -> F.equal x (eval_point i) && F.equal y s)
                  support)
              shares
          in
          Some (BW.P.eval f F.zero, support_ids)
end
