module Make (F : Field_intf.S) = struct
  module C = Sealed_coin.Make (F)
  module S = Shamir.Make (F)
  module P = Poly.Make (F)
  module BW = Berlekamp_welch.Make (F)

  type sender_behavior =
    | Honest
    | Silent
    | Send of F.t
    | Equivocate of (int -> F.t option)

  module Codec = Wire.Codec (F)

  let elt_byte_size _ = F.byte_size

  (* The single communication round both decoders share: everyone sends
     its share of the coin to everyone. On a pristine [Sim] net the round
     is read in place ({!Transport.Inbox}); otherwise it holds lists. *)
  let send_round ?(sender_behavior = fun _ -> Honest) (coin : C.t) =
    let n = coin.C.n in
    let net =
      Transport.create
        ~codec:(Codec.encode_elt, Codec.decode_elt)
        ~n ~byte_size:elt_byte_size ()
    in
    let inbox =
      Transport.exchange_inbox net ~send:(fun () ->
          for i = 0 to n - 1 do
            match sender_behavior i with
            | Honest -> Transport.send_to_all net ~src:i (fun _ -> coin.C.shares.(i))
            | Silent -> ()
            | Send v -> Transport.send_to_all net ~src:i (fun _ -> v)
            | Equivocate f ->
                for dst = 0 to n - 1 do
                  match f dst with
                  | Some v -> Transport.send net ~src:i ~dst v
                  | None -> ()
                done
          done)
    in
    (net, inbox)

  (* Quarantined players are dropped from subset selection on top of the
     per-coin trust matrix. With no (or a passive) ambient ledger
     [Sentinel.excluded] is constantly false, so selection is unchanged;
     with an active one the honest trusted majority still clears the
     paper's n' >= 2t'+1 reconstruction floor (at most t quarantined,
     at least n - 2t >= t + 1 honest trusted rows survive). *)
  let trusted_points coin i inbox_i ~excl =
    List.filter_map
      (fun (j, v) ->
        if C.trusted_row coin i j && not excl.(j) then Some (j, v) else None)
      inbox_i

  (* Accusations computed from the tallies of one exposure round; shared
     by [run_reference] and [run], hoisted out of the per-player loop.
     Pure integer bookkeeping — an accusation is only scored at t + 1
     concurring players (see DESIGN.md section 14). *)
  let accusations net inbox ~n ~t ~bad_votes =
    let acc = ref [] in
    if Transport.complete_last_round net then begin
      (* Nobody can be absent; only decode evidence remains. *)
      for j = n - 1 downto 0 do
        if bad_votes.(j) >= t + 1 then acc := (j, Sentinel.Bad_share) :: !acc
      done
    end
    else begin
      let unique_senders =
        match Transport.current_plan () with
        | None -> true
        | Some p -> Transport.Plan.retransmits p >= 1
      in
      let miss_votes = Transport.Inbox.absent_counts ~unique_senders ~n inbox in
      for j = n - 1 downto 0 do
        if miss_votes.(j) >= t + 1 then acc := (j, Sentinel.Silent) :: !acc;
        if bad_votes.(j) >= t + 1 then acc := (j, Sentinel.Bad_share) :: !acc
      done
    end;
    !acc

  (* The reference exposure path: list-based point gathering, list-based
     checked reconstruction, attribution tallies kept unconditionally.
     Bit-identical to [run] — same decoded values, same steady-state
     Metrics ticks (one-time subset-cache builds may land in whichever
     twin runs first), same Trace events, same PRNG stream (pinned by
     differential tests in test/test_batch_kernels.ml) — but allocates
     a points list and a closure environment per player per exposure.
     Kept as the naive twin for equivalence tests and the bench
     baseline. *)
  let run_reference ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let excl = Sentinel.exclusion_mask ~n in
    let net, inbox = send_round ?sender_behavior coin in
    let lists = Transport.Inbox.to_lists inbox in
    (* How many players decoded sender j's share as an error. *)
    let bad_votes = Array.make n 0 in
    let results =
      Array.init n (fun i ->
          let points = trusted_points coin i lists.(i) ~excl in
          let m = List.length points in
          (* Degree-t reconstruction needs m >= t + 1 points; note
             (m - t - 1) / 2 truncates toward zero, so at m = t it is 0,
             not negative — guard on m, not on e. *)
          let e = (m - t - 1) / 2 in
          let value =
            if m <= t then begin
              (* Too few trusted shares survived (crashes past the
                 budget, quarantine, silence): reconstruction is
                 impossible, never approximate. Leave a breadcrumb for
                 chaos post-mortems — forced only when tracing. *)
              Trace.event (fun () ->
                  Trace.Note
                    (Printf.sprintf
                       "p%d: reconstruction impossible (m=%d <= t=%d)" i m t));
              None
            end
            else
              (* Fast path: when every trusted share lies on one degree-<= t
                 polynomial (the overwhelmingly common, fault-free case) the
                 plan's cached subset weights reconstruct f(0) directly.
                 Berlekamp-Welch — the same decoder as before — takes over
                 exactly when the check fails, i.e. when there are errors to
                 correct, so the decoded value is unchanged in all cases. *)
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
                      (* The support is a physical sublist of the input
                         points, so [memq] recovers the error locators —
                         exactly the shares BW corrected — with no field
                         arithmetic beyond what [decode] already did. *)
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
    Sentinel.observe (fun () -> accusations net inbox ~n ~t ~bad_votes);
    results

  (* The steady-state exposure path. Identical values, ticks, traces and
     draws as [run_reference]; the differences are purely allocation and
     control flow:
     - trusted points are gathered straight from the round (the net's
       store on a pristine net) into two flat scratch arrays and fed to
       the plan's arena reconstruction
       ([Grid.reconstruct_zero_checked_into]) — no inbox list, no
       intermediate list, no sort closures on the fault-free path;
     - attribution bookkeeping (the [bad_votes] tally and the evidence
       list) is built only when a ledger is installed
       ([Sentinel.is_active]); without one those votes were dropped
       unread, so skipping them changes nothing observable. *)
  let run ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let excl = Sentinel.exclusion_mask ~n in
    let net, inbox = send_round ?sender_behavior coin in
    let active = Sentinel.is_active () in
    let bad_votes = if active then Array.make n 0 else [||] in
    (* A duplicating fault plan can deliver more than n messages to one
       player (such inboxes carry duplicate ids and end up in the
       Berlekamp-Welch cold path), so the shared scratch is sized to the
       longest inbox: n on a pristine net. *)
    let cap = max n (Transport.Inbox.max_length inbox) in
    let ids = Array.make cap 0 and ys = Array.make cap F.zero in
    (* The one gather loop: player [!dst]'s trusted, unquarantined shares
       in inbox order, straight from the net's store on a pristine round.
       Built once per exposure, not per player. *)
    let dst = ref 0 in
    let gather j v len =
      if C.trusted_row coin !dst j && not excl.(j) then begin
        ids.(len) <- j;
        ys.(len) <- v;
        len + 1
      end
      else len
    in
    (* Event thunks allocate even when no collector is installed; the
       draw loop emits two per player, so hoist the enabled check. *)
    let traced = Trace.enabled () in
    let results =
      Array.init n (fun i ->
          dst := i;
          let m = Transport.Inbox.fold inbox ~dst:i gather 0 in
          (* Degree-t reconstruction needs m >= t + 1 points; note
             (m - t - 1) / 2 truncates toward zero, so at m = t it is 0,
             not negative — guard on m, not on e. *)
          let e = (m - t - 1) / 2 in
          let value =
            if m <= t then begin
              if traced then
                Trace.event (fun () ->
                    Trace.Note
                      (Printf.sprintf
                         "p%d: reconstruction impossible (m=%d <= t=%d)" i m t));
              None
            end
            else
              match
                S.G.reconstruct_zero_checked_into plan ~ids ~ys ~len:m
              with
              | Some v -> Some v
              | None -> (
                  (* Cold path: some share is faulty or duplicated, so
                     the list spine and eval_point mapping are paid only
                     when the Berlekamp-Welch decoder actually runs. *)
                  let mapped = ref [] in
                  for k = m - 1 downto 0 do
                    mapped := (ids.(k), (S.eval_point ids.(k), ys.(k))) :: !mapped
                  done;
                  let mapped = !mapped in
                  match
                    BW.decode_with_support ~max_degree:t ~max_errors:e
                      (List.map snd mapped)
                  with
                  | None -> None
                  | Some (f, support) ->
                      (* The support is a physical sublist of the mapped
                         points, so [memq] recovers the error locators
                         with no extra field arithmetic. *)
                      if active then
                        List.iter
                          (fun (j, pt) ->
                            if not (List.memq pt support) then
                              bad_votes.(j) <- bad_votes.(j) + 1)
                          mapped;
                      Some (BW.P.eval f F.zero))
          in
          if traced then
            Trace.event (fun () ->
                Trace.Reconstruct { player = i; ok = Option.is_some value });
          value)
    in
    if active then
      Sentinel.observe (fun () -> accusations net inbox ~n ~t ~bad_votes);
    results

  let expose_bit ?sender_behavior coin =
    Array.map
      (Option.map (fun v -> F.lsb v = 1))
      (run ?sender_behavior coin)

  let run_lagrange ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose.lagrange" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let excl = Sentinel.exclusion_mask ~n in
    let _net, inbox = send_round ?sender_behavior coin in
    let lists = Transport.Inbox.to_lists inbox in
    Array.init n (fun i ->
        let points = trusted_points coin i lists.(i) ~excl in
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | p :: rest -> p :: take (k - 1) rest
        in
        let points = take (t + 1) points in
        let value =
          if List.length points < t + 1 then None
          else Some (S.reconstruct_with plan points)
        in
        Trace.event (fun () ->
            Trace.Reconstruct { player = i; ok = Option.is_some value });
        value)
end
