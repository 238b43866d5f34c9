type 'v dealer_behavior =
  | Dealer_honest
  | Dealer_silent
  | Dealer_equivocate of (int -> 'v option)

type 'v follower_behavior =
  | Follower_honest
  | Follower_silent
  | Follower_fixed of 'v
  | Follower_arbitrary of (round:int -> dst:int -> 'v option)

type 'v outcome = { value : 'v option; confidence : int }

(* The most-supported value among a list, with its support count; the
   first value to reach the maximum wins. An element equal to the
   current best has the same count, so it cannot win and is not
   counted: when every echo agrees, the tally is one pass plus one
   comparison per element. *)
let best_supported ~equal received =
  let rec count v = function
    | [] -> 0
    | w :: rest -> (if equal v w then 1 else 0) + count v rest
  in
  let rec scan best best_count = function
    | [] -> (best, best_count)
    | v :: rest -> (
        match best with
        | Some b when equal b v -> scan best best_count rest
        | Some _ | None ->
            let c = count v received in
            if c > best_count then scan (Some v) c rest
            else scan best best_count rest)
  in
  scan None 0 received

(* The entries are the list [best_supported] would get from filtering
   out the [None]s, in the same order, so the same entry wins (the
   first to reach the maximum) and an entry equal to the best so far is
   not recounted. *)
let tally_slot ~equal (echoes : 'v option array array) ~len ~slot winner =
  let best = ref (-1) and best_count = ref 0 in
  for a = 0 to len - 1 do
    match echoes.(a).(slot) with
    | None -> ()
    | Some v ->
        let recount =
          !best < 0
          ||
          match echoes.(!best).(slot) with
          | Some b -> not (equal b v)
          | None -> true
        in
        if recount then begin
          let c = ref 0 in
          for e = 0 to len - 1 do
            match echoes.(e).(slot) with
            | Some w when equal v w -> incr c
            | Some _ | None -> ()
          done;
          if !c > !best_count then begin
            best := a;
            best_count := !c
          end
        end
  done;
  winner := !best;
  !best_count

let run_all ?(dealer_behavior = fun _ -> Dealer_honest)
    ?(follower_behavior = fun _ -> Follower_honest) ~equal ~byte_size ~n ~t
    ~values () =
  if n < (3 * t) + 1 then invalid_arg "Gradecast.run_all: requires n >= 3t+1";
  for _ = 1 to n do
    Metrics.tick_gradecast ()
  done;
  (* Messages are per-dealer-slot vectors; wire size is the sum of the
     present entries. *)
  let vec_size v =
    Array.fold_left
      (fun acc -> function Some x -> acc + byte_size x | None -> acc)
      0 v
  in
  let net = Transport.create ~n ~byte_size:vec_size () in
  (* Every round is read in place ([Transport.Inbox]): a player's
     vectors are gathered into [echoes], reused by every player and
     round, and each slot is tallied there. *)
  let echoes = ref (Array.make n [||]) and winner = ref (-1) in
  let gather inbox i =
    let cap = Transport.Inbox.max_length inbox in
    if Array.length !echoes < cap then echoes := Array.make cap [||];
    let echoes = !echoes in
    Transport.Inbox.fold inbox ~dst:i
      (fun _ msg len ->
        echoes.(len) <- msg;
        len + 1)
      0
  in
  (* Round 1: every dealer distributes its value in its own slot; an
     honest dealer sends one vector to every destination. *)
  let inbox1 =
    Transport.exchange_inbox net ~send:(fun () ->
        for d = 0 to n - 1 do
          match dealer_behavior d with
          | Dealer_honest ->
              let msg = Array.make n None in
              msg.(d) <- Some (values d);
              Transport.send_to_all net ~src:d (fun _ -> msg)
          | Dealer_silent ->
              let msg = Array.make n None in
              Transport.send_to_all net ~src:d (fun _ -> msg)
          | Dealer_equivocate f ->
              Transport.send_to_all net ~src:d (fun dst ->
                  let msg = Array.make n None in
                  msg.(d) <- f dst;
                  msg)
        done)
  in
  (* Slot d of player i: what the first message from dealer d carried
     there. *)
  let received_from_dealer =
    Array.init n (fun i ->
        let slots = Array.make n None and heard = Array.make n false in
        Transport.Inbox.fold inbox1 ~dst:i
          (fun d msg () ->
            if not heard.(d) then begin
              heard.(d) <- true;
              slots.(d) <- msg.(d)
            end)
          ();
        slots)
  in
  (* A follower's echo vector for one round, given its honest choices. *)
  let echo_round round honest_choices =
    Transport.exchange_inbox net ~send:(fun () ->
        for i = 0 to n - 1 do
          match follower_behavior i with
          | Follower_honest ->
              let choices = honest_choices.(i) in
              Transport.send_to_all net ~src:i (fun _ -> choices)
          | Follower_silent -> ()
          | Follower_fixed v ->
              Transport.send_to_all net ~src:i (fun _ -> Array.make n (Some v))
          | Follower_arbitrary f ->
              for dst = 0 to n - 1 do
                Transport.send net ~src:i ~dst (Array.init n (fun _ -> f ~round ~dst))
              done
        done)
  in
  (* Round 2: echo what each dealer sent. *)
  let inbox2 = echo_round 2 received_from_dealer in
  (* Round 3: per slot, re-echo a value with n - t support. *)
  let choices =
    Array.init n (fun i ->
        let len = gather inbox2 i in
        Array.init n (fun d ->
            if tally_slot ~equal !echoes ~len ~slot:d winner >= n - t then
              !echoes.(!winner).(d)
            else None))
  in
  let inbox3 = echo_round 3 choices in
  let outcomes =
    Array.init n (fun i ->
        let len = gather inbox3 i in
        Array.init n (fun d ->
            let c = tally_slot ~equal !echoes ~len ~slot:d winner in
            if c >= n - t then
              { value = !echoes.(!winner).(d); confidence = 2 }
            else if c >= t + 1 then
              { value = !echoes.(!winner).(d); confidence = 1 }
            else { value = None; confidence = 0 }))
  in
  (* Ledger evidence per dealer slot. Two different confidence >= 1
     values is equivocation: each carried t + 1 third-round echoes, and
     an honest echo needed n - t second-round support — impossible for
     two values from one honest dealer, whatever up to t followers do.
     Grade 0 at t + 1 players likewise cannot happen to an honest dealer
     under the retransmit envelope: only crashed receivers (at most t)
     void their inboxes. *)
  Sentinel.observe (fun () ->
      List.concat_map
        (fun d ->
          let votes =
            List.filter_map
              (fun i ->
                let o = outcomes.(i).(d) in
                if o.confidence >= 1 then o.value else None)
              (List.init n Fun.id)
          in
          let equivocated =
            match votes with
            | [] -> false
            | v :: rest -> List.exists (fun w -> not (equal v w)) rest
          in
          let zeroes =
            List.length
              (List.filter
                 (fun i -> outcomes.(i).(d).confidence = 0)
                 (List.init n Fun.id))
          in
          if equivocated then [ (d, Sentinel.Equivocation) ]
          else if zeroes >= t + 1 then [ (d, Sentinel.Grade_zero) ]
          else [])
        (List.init n Fun.id));
  outcomes

let run ?(dealer_behavior = Dealer_honest)
    ?(follower_behavior = fun _ -> Follower_honest) ~equal ~byte_size ~n ~t
    ~dealer ~value () =
  if n < (3 * t) + 1 then invalid_arg "Gradecast.run: requires n >= 3t+1";
  if dealer < 0 || dealer >= n then invalid_arg "Gradecast.run: bad dealer id";
  Metrics.tick_gradecast ();
  let net = Transport.create ~n ~byte_size () in
  (* Round 1: the dealer distributes its value. *)
  let inbox1 =
    Transport.exchange net ~send:(fun () ->
        match dealer_behavior with
        | Dealer_honest -> Transport.send_to_all net ~src:dealer (fun _ -> value)
        | Dealer_silent -> ()
        | Dealer_equivocate f ->
            for dst = 0 to n - 1 do
              match f dst with
              | Some v -> Transport.send net ~src:dealer ~dst v
              | None -> ()
            done)
  in
  let received_from_dealer =
    Array.init n (fun i ->
        List.assoc_opt dealer inbox1.(i))
  in
  (* A follower's sends for echo round [round], given its honest choice. *)
  let follower_sends i ~round honest_choice =
    match follower_behavior i with
    | Follower_honest -> (
        match honest_choice with
        | Some v -> Transport.send_to_all net ~src:i (fun _ -> v)
        | None -> ())
    | Follower_silent -> ()
    | Follower_fixed v -> Transport.send_to_all net ~src:i (fun _ -> v)
    | Follower_arbitrary f ->
        for dst = 0 to n - 1 do
          match f ~round ~dst with
          | Some v -> Transport.send net ~src:i ~dst v
          | None -> ()
        done
  in
  (* Round 2: echo what the dealer sent. *)
  let inbox2 =
    Transport.exchange net ~send:(fun () ->
        for i = 0 to n - 1 do
          follower_sends i ~round:2 received_from_dealer.(i)
        done)
  in
  (* Round 3: re-echo a value supported by at least n - t first echoes. *)
  let choices =
    Array.init n (fun i ->
        let echoes = List.map snd inbox2.(i) in
        match best_supported ~equal echoes with
        | Some v, c when c >= n - t -> Some v
        | _ -> None)
  in
  let inbox3 =
    Transport.exchange net ~send:(fun () ->
        for i = 0 to n - 1 do
          follower_sends i ~round:3 choices.(i)
        done)
  in
  let outcomes =
    Array.init n (fun i ->
        let echoes = List.map snd inbox3.(i) in
        match best_supported ~equal echoes with
        | Some v, c when c >= n - t -> { value = Some v; confidence = 2 }
        | Some v, c when c >= t + 1 -> { value = Some v; confidence = 1 }
        | _ -> { value = None; confidence = 0 })
  in
  Sentinel.observe (fun () ->
      let votes =
        List.filter_map
          (fun i ->
            let o = outcomes.(i) in
            if o.confidence >= 1 then o.value else None)
          (List.init n Fun.id)
      in
      let equivocated =
        match votes with
        | [] -> false
        | v :: rest -> List.exists (fun w -> not (equal v w)) rest
      in
      let zeroes =
        List.length
          (List.filter
             (fun i -> outcomes.(i).confidence = 0)
             (List.init n Fun.id))
      in
      if equivocated then [ (dealer, Sentinel.Equivocation) ]
      else if zeroes >= t + 1 then [ (dealer, Sentinel.Grade_zero) ]
      else []);
  outcomes
