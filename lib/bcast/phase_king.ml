type behavior =
  | Honest
  | Silent
  | Fixed of bool
  | Arbitrary of (phase:int -> round:int -> dst:int -> bool option)

let always_true _ = true
let always_false _ = false
let count_ones _ b ones = if b then ones + 1 else ones

(* Both rounds of a phase are read in place ([Transport.Inbox]). *)
let run ?(behavior = fun _ -> Honest) ~n ~t ~inputs () =
  if n < (4 * t) + 1 then invalid_arg "Phase_king.run: requires n >= 4t+1";
  if Array.length inputs <> n then invalid_arg "Phase_king.run: inputs size";
  Metrics.tick_ba ();
  let net = Transport.create ~n ~byte_size:(fun _ -> 1) () in
  let pref = Array.copy inputs in
  let send_bit i b =
    Transport.send_to_all net ~src:i (if b then always_true else always_false)
  in
  let sends i ~phase ~round honest_bit =
    match behavior i with
    | Honest -> send_bit i honest_bit
    | Silent -> ()
    | Fixed b -> send_bit i b
    | Arbitrary f ->
        for dst = 0 to n - 1 do
          match f ~phase ~round ~dst with
          | Some b -> Transport.send net ~src:i ~dst b
          | None -> ()
        done
  in
  for phase = 0 to t do
    (* Round 1: universal exchange of preferences; a missing message
       counts as 0. *)
    let inbox =
      Transport.exchange_inbox net ~send:(fun () ->
          for i = 0 to n - 1 do
            sends i ~phase ~round:1 pref.(i)
          done)
    in
    let majority = Array.make n false and support = Array.make n 0 in
    for i = 0 to n - 1 do
      let ones = Transport.Inbox.fold inbox ~dst:i count_ones 0 in
      let zeros = n - ones in
      majority.(i) <- ones > zeros;
      support.(i) <- max ones zeros
    done;
    (* Round 2: the phase king proposes its majority value. *)
    let king = phase mod n in
    let inbox =
      Transport.exchange_inbox net ~send:(fun () ->
          sends king ~phase ~round:2 majority.(king))
    in
    (* The king's first message, as 1 or 0; -1 when none arrived. *)
    let from_king src b first =
      if first < 0 && src = king then Bool.to_int b else first
    in
    for i = 0 to n - 1 do
      let king_bit = Transport.Inbox.fold inbox ~dst:i from_king (-1) = 1 in
      (* Keep own majority only when its support is unambiguous even
         against t lies; otherwise defer to the king. *)
      if support.(i) > (n / 2) + t then pref.(i) <- majority.(i)
      else pref.(i) <- king_bit
    done
  done;
  pref
