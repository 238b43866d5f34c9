(* Coin-Expose (Fig. 6) as [Coin_expose.run] computed it before the
   round was read in place: the round delivered as lists, each player's
   trusted points filtered into a list, the list entry point of the
   checked reconstruction, Berlekamp-Welch when the check fails, and the
   attribution tallies kept unconditionally, absence counted receiver by
   receiver. Same decoded values, steady-state Metrics ticks (one-time
   subset-cache builds land in whichever path runs first), Trace events,
   PRNG stream and ledger evidence as [run]: [Test_batch_kernels] pins
   the two against each other, and [bench_json]'s [coin_expose_ledger]
   row times this as its naive side. *)

module Make (F : Field_intf.S) = struct
  module CE = Coin_expose.Make (F)
  module C = CE.C
  module S = Shamir.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module Codec = Wire.Codec (F)

  let send_round ?(sender_behavior = fun _ -> CE.Honest) (coin : C.t) =
    let n = coin.C.n in
    let net =
      Transport.create
        ~codec:(Codec.encode_elt, Codec.decode_elt)
        ~n
        ~byte_size:(fun _ -> F.byte_size)
        ()
    in
    Transport.exchange net ~send:(fun () ->
        for i = 0 to n - 1 do
          match sender_behavior i with
          | CE.Honest ->
              Transport.send_to_all net ~src:i (fun _ -> coin.C.shares.(i))
          | CE.Silent -> ()
          | CE.Send v -> Transport.send_to_all net ~src:i (fun _ -> v)
          | CE.Equivocate f ->
              for dst = 0 to n - 1 do
                match f dst with
                | Some v -> Transport.send net ~src:i ~dst v
                | None -> ()
              done
        done)

  let trusted_points coin i inbox_i ~excl =
    List.filter_map
      (fun (j, v) ->
        if C.trusted_row coin i j && not excl.(j) then Some (j, v) else None)
      inbox_i

  let accusations lists ~n ~t ~bad_votes =
    let absent j =
      Array.fold_left
        (fun k inbox -> if List.mem_assoc j inbox then k else k + 1)
        0 lists
    in
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if absent j >= t + 1 then acc := (j, Sentinel.Silent) :: !acc;
      if bad_votes.(j) >= t + 1 then acc := (j, Sentinel.Bad_share) :: !acc
    done;
    !acc

  let run ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let excl = Sentinel.exclusion_mask ~n in
    let lists = send_round ?sender_behavior coin in
    (* How many players decoded sender j's share as an error. *)
    let bad_votes = Array.make n 0 in
    let results =
      Array.init n (fun i ->
          let points = trusted_points coin i lists.(i) ~excl in
          let m = List.length points in
          let e = (m - t - 1) / 2 in
          let value =
            if m <= t then begin
              Trace.event (fun () ->
                  Trace.Note
                    (Printf.sprintf
                       "p%d: reconstruction impossible (m=%d <= t=%d)" i m t));
              None
            end
            else
              match S.G.reconstruct_zero_checked plan points with
              | Some v -> Some v
              | None -> (
                  let mapped =
                    List.map (fun (j, v) -> (j, (S.eval_point j, v))) points
                  in
                  match
                    BW.decode_with_support ~max_degree:t ~max_errors:e
                      (List.map snd mapped)
                  with
                  | None -> None
                  | Some (f, support) ->
                      List.iter
                        (fun (j, pt) ->
                          if not (List.memq pt support) then
                            bad_votes.(j) <- bad_votes.(j) + 1)
                        mapped;
                      Some (BW.P.eval f F.zero))
          in
          Trace.event (fun () ->
              Trace.Reconstruct { player = i; ok = Option.is_some value });
          value)
    in
    Sentinel.observe (fun () -> accusations lists ~n ~t ~bad_votes);
    results
end
