module Make (F : Field_intf.S) = struct
  module C = Sealed_coin.Make (F)
  module S = Shamir.Make (F)
  module BW = Berlekamp_welch.Make (F)

  type sender_behavior =
    | Honest
    | Silent
    | Send of F.t
    | Equivocate of (int -> F.t option)

  module Codec = Wire.Codec (F)

  let elt_byte_size _ = F.byte_size

  (* The single communication round of both decoders: everyone sends
     its share of the coin to everyone. On a pristine [Sim] net the round
     is read in place ({!Transport.Inbox}); otherwise it holds lists. *)
  let send_round ?(sender_behavior = fun _ -> Honest) (coin : C.t) =
    let n = coin.C.n in
    let net =
      Transport.create
        ~codec:(Codec.encode_elt, Codec.decode_elt)
        ~n ~byte_size:elt_byte_size ()
    in
    (* Every honest sender's row is read through one closure and the
       sender cell, not a closure per sender. *)
    let sender = ref 0 in
    let own_share _ = coin.C.shares.(!sender) in
    Transport.exchange_inbox net ~send:(fun () ->
        for i = 0 to n - 1 do
          match sender_behavior i with
          | Honest ->
              sender := i;
              Transport.send_to_all net ~src:i own_share
          | Silent -> ()
          | Send v -> Transport.send_to_all net ~src:i (fun _ -> v)
          | Equivocate f ->
              for dst = 0 to n - 1 do
                match f dst with
                | Some v -> Transport.send net ~src:i ~dst v
                | None -> ()
              done
        done)

  (* The one gather of both decoders: [gather i] writes player [i]'s
     trusted, unquarantined shares to [ids]/[ys] in inbox order and
     returns their count. Quarantine drops at most t players, so the
     honest trusted majority still clears the paper's n' >= 2t'+1
     reconstruction floor. A duplicating fault plan can deliver more
     than n messages to one player (duplicate ids, left to the
     Berlekamp-Welch cold path), so the scratch is sized to the longest
     inbox: n on a pristine net. *)
  let gatherer (coin : C.t) inbox =
    let n = coin.C.n in
    let excl = Sentinel.exclusion_mask ~n in
    let cap = max n (Transport.Inbox.max_length inbox) in
    let ids = Array.make cap 0 and ys = Array.make cap F.zero in
    let dst = ref 0 in
    let keep j v len =
      if C.trusted_row coin !dst j && not excl.(j) then begin
        ids.(len) <- j;
        ys.(len) <- v;
        len + 1
      end
      else len
    in
    let gather i =
      dst := i;
      Transport.Inbox.fold inbox ~dst:i keep 0
    in
    (ids, ys, gather)

  (* The exposure. Trusted points are gathered straight from the round
     into two flat scratch arrays and fed to the plan's arena
     reconstruction ([Grid.reconstruct_zero_checked_into]): no inbox
     list, no intermediate list, no sort closures on the fault-free
     path. Attribution bookkeeping (the [bad_votes] tally and the
     evidence list) is built only when a ledger is installed
     ([Sentinel.is_active]); without one those votes would be dropped
     unread. *)
  let run ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let inbox = send_round ?sender_behavior coin in
    let ids, ys, gather = gatherer coin inbox in
    let active = Sentinel.is_active () in
    let bad_votes = if active then Array.make n 0 else [||] in
    (* Event thunks allocate even when no collector is installed; the
       draw loop emits two per player, so hoist the enabled check. *)
    let traced = Trace.enabled () in
    let results =
      Array.init n (fun i ->
          let m = gather i in
          (* Degree-t reconstruction needs m >= t + 1 points; note
             (m - t - 1) / 2 truncates toward zero, so at m = t it is 0,
             not negative — guard on m, not on e. *)
          let e = (m - t - 1) / 2 in
          let value =
            if m <= t then begin
              (* Too few trusted shares survived (crashes past the
                 budget, quarantine, silence): reconstruction is
                 impossible, never approximate. Leave a breadcrumb for
                 chaos post-mortems. *)
              if traced then
                Trace.event (fun () ->
                    Trace.Note
                      (Printf.sprintf
                         "p%d: reconstruction impossible (m=%d <= t=%d)" i m t));
              None
            end
            else
              (* When every trusted share lies on one degree-<= t
                 polynomial (the fault-free case) the plan's cached
                 weights reconstruct f(0) directly; Berlekamp-Welch
                 takes over exactly when that check fails, i.e. when
                 there are errors to correct. *)
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
                         points, so [memq] recovers the error locators —
                         exactly the shares BW corrected — with no extra
                         field arithmetic. *)
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
    (* Accusations, scored at t + 1 concurring players (DESIGN.md
       section 14), are pure integer bookkeeping, so they are made here
       rather than in the observer's thunk: a round that accuses nobody
       (a complete one answers from its message count) then allocates
       nothing for the ledger. *)
    if active then begin
      let silent = Transport.Inbox.silent inbox ~at_least:(t + 1) in
      let evidence = ref [] in
      for j = n - 1 downto 0 do
        if List.mem j silent then
          evidence := (j, Sentinel.Silent) :: !evidence;
        if bad_votes.(j) >= t + 1 then
          evidence := (j, Sentinel.Bad_share) :: !evidence
      done;
      match !evidence with [] -> () | e -> Sentinel.observe (fun () -> e)
    end;
    results

  let expose_bit ?sender_behavior coin =
    Array.map
      (Option.map (fun v -> F.lsb v = 1))
      (run ?sender_behavior coin)

  (* The ablation: the same round and gather, then plain interpolation
     through the first t + 1 trusted shares. *)
  let run_lagrange ?sender_behavior (coin : C.t) =
    Trace.span Trace.Protocol "coin-expose.lagrange" @@ fun () ->
    let n = coin.C.n and t = coin.C.fault_bound in
    let plan = S.grid ~n ~t in
    let inbox = send_round ?sender_behavior coin in
    let ids, ys, gather = gatherer coin inbox in
    Array.init n (fun i ->
        let value =
          if gather i < t + 1 then None
          else
            Some
              (S.G.reconstruct_zero plan
                 (List.init (t + 1) (fun k -> (ids.(k), ys.(k)))))
        in
        Trace.event (fun () ->
            Trace.Reconstruct { player = i; ok = Option.is_some value });
        value)
end
