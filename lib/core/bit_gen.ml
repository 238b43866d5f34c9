module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module S = Shamir.Make (F)
  module V = Vss.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module Codec = Wire.Codec (F)

  type dealer_behavior =
    | Honest_dealer
    | Honest_zero_dealer
    | Silent_dealer
    | Bad_degree of int list
    | Inconsistent_to of int list
    | Matrix of F.t array array

  type gamma_behavior =
    | Honest_gamma
    | Silent_gamma
    | Fixed_gamma of F.t
    | Gamma_per_dst of (int -> F.t option)

  type player_view = {
    received : F.t array option;
    check_poly : P.t option;
    support : bool array;
    gammas : F.t option array;
  }

  (* The dealer's share matrix: shares.(i).(h) is player i's share of
     secret h. Every polynomial is drawn first, in secret order, then
     the session plan evaluates them player-major (Grid.deal draws
     nothing); garbage rows for [Inconsistent_to] victims are drawn
     last. *)
  let deal_matrix behavior g ~n ~t ~m =
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
        let matrix = S.G.deal (S.grid ~n ~t) polys in
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

  (* Berlekamp-Welch over the present gammas, requiring n - t support. *)
  let decode_bw ~n ~t gammas =
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

  type decoder = {
    d_n : int;
    d_t : int;
    plan : S.G.t;
    values : F.t array; (* the gathered vector of the fast path *)
    full : bool array; (* the support of every fast-path decode *)
  }

  let decoder ~n ~t =
    {
      d_n = n;
      d_t = t;
      plan = S.grid ~n ~t;
      values = Array.make n F.zero;
      full = Array.make n true;
    }

  (* Fig. 4 step 5: decode F through the gammas with >= n - t support.
     Fast path: when all n gammas are present and lie on one degree-<= t
     polynomial, that polynomial is the unique Berlekamp-Welch decode
     (n >= t + 1 + 2e) and every point supports it, so one grid check
     and one coefficient read-off replace the decoder. Berlekamp-Welch
     runs only on a vector that is incomplete or off its polynomial.
     The vector is gathered into the decoder's scratch first. *)
  let decode d gammas =
    let complete = ref true in
    for k = 0 to d.d_n - 1 do
      match gammas.(k) with
      | Some v -> d.values.(k) <- v
      | None -> complete := false
    done;
    match
      if !complete then S.G.interpolate_checked d.plan d.values else None
    with
    | Some coeffs -> (Some (P.of_coeffs coeffs), d.full)
    | None -> decode_bw ~n:d.d_n ~t:d.d_t gammas

  let decode_check ~n ~t gammas = decode (decoder ~n ~t) gammas

  let run ?(dealer_behavior = Honest_dealer)
      ?(gamma_behavior = fun _ -> Honest_gamma) ~prng ~n ~t ~m ~dealer ~r () =
    if n < (3 * t) + 1 then invalid_arg "Bit_gen.run: requires n >= 3t+1";
    if dealer < 0 || dealer >= n then invalid_arg "Bit_gen.run: bad dealer id";
    if m < 1 then invalid_arg "Bit_gen.run: m must be positive";
    Trace.span Trace.Protocol "bit-gen" @@ fun () ->
    (* Round 1: dealing. One vector message of m elements per player. *)
    let matrix = deal_matrix dealer_behavior prng ~n ~t ~m in
    let share_net =
      Transport.create
        ~codec:(Codec.encode_elt_array, Codec.decode_elt_array)
        ~n
        ~byte_size:(fun v -> Codec.elt_array_size (Array.length v))
        ()
    in
    let inbox =
      Trace.span Trace.Phase "bit-gen.deal" @@ fun () ->
      Transport.exchange share_net ~send:(fun () ->
          match matrix with
          | None -> ()
          | Some matrix ->
              Transport.send_to_all share_net ~src:dealer (fun dst -> matrix.(dst)))
    in
    let received =
      Array.init n (fun i ->
          match List.assoc_opt dealer inbox.(i) with
          | Some v when Array.length v = m -> Some v
          | Some _ | None -> None)
    in
    (* (The check coin r was exposed between the rounds, by the caller.) *)
    (* Round 2: everyone announces its combined share gamma_i. *)
    let gamma_net =
      Transport.create
        ~codec:(Codec.encode_elt, Codec.decode_elt)
        ~n
        ~byte_size:(fun _ -> F.byte_size)
        ()
    in
    let inbox =
      Trace.span Trace.Phase "bit-gen.gamma" @@ fun () ->
      Transport.exchange gamma_net ~send:(fun () ->
          for i = 0 to n - 1 do
            match gamma_behavior i with
            | Honest_gamma -> (
                match received.(i) with
                | Some shares ->
                    let gamma = V.combine ~r shares in
                    Transport.send_to_all gamma_net ~src:i (fun _ -> gamma)
                | None -> ())
            | Silent_gamma -> ()
            | Fixed_gamma v -> Transport.send_to_all gamma_net ~src:i (fun _ -> v)
            | Gamma_per_dst f ->
                for dst = 0 to n - 1 do
                  match f dst with
                  | Some v -> Transport.send gamma_net ~src:i ~dst v
                  | None -> ()
                done
          done)
    in
    let views =
      Trace.span Trace.Phase "bit-gen.decode" @@ fun () ->
      Array.init n (fun i ->
          let gammas = Array.make n None in
          List.iter (fun (k, v) -> gammas.(k) <- Some v) inbox.(i);
          let check_poly, support = decode_check ~n ~t gammas in
          Trace.event (fun () ->
              Trace.Reconstruct { player = i; ok = Option.is_some check_poly });
          { received = received.(i); check_poly; support; gammas })
    in
    (views, matrix)
end
