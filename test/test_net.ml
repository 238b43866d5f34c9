let mk n = Net.create ~n ~byte_size:String.length ()

let test_delivery_order () =
  let net = mk 4 in
  Net.send net ~src:2 ~dst:0 "b";
  Net.send net ~src:1 ~dst:0 "a";
  Net.send net ~src:3 ~dst:0 "c";
  let inbox = Net.deliver net in
  Alcotest.(check (list (pair int string)))
    "sorted by sender"
    [ (1, "a"); (2, "b"); (3, "c") ]
    inbox.(0);
  Alcotest.(check (list (pair int string))) "others empty" [] inbox.(1)

let test_queues_cleared () =
  let net = mk 2 in
  Net.send net ~src:0 ~dst:1 "x";
  ignore (Net.deliver net);
  let inbox = Net.deliver net in
  Alcotest.(check (list (pair int string))) "second round empty" [] inbox.(1)

let test_rounds_counted () =
  let net = mk 2 in
  ignore (Net.deliver net);
  ignore (Net.deliver net);
  Alcotest.(check int) "two rounds" 2 (Net.rounds_elapsed net)

let test_metrics_accounting () =
  let (), snap =
    Metrics.with_counting (fun () ->
        let net = mk 3 in
        Net.send net ~src:0 ~dst:1 "hello";
        Net.send net ~src:0 ~dst:0 "self" (* uncounted *);
        Net.send_to_all net ~src:2 (fun _ -> "xy");
        ignore (Net.deliver net))
  in
  (* send_to_all from 2 counts 2 messages (to 0 and 1, not itself). *)
  Alcotest.(check int) "messages" 3 snap.Metrics.messages;
  Alcotest.(check int) "bytes" (5 + 2 + 2) snap.Metrics.bytes;
  Alcotest.(check int) "rounds" 1 snap.Metrics.rounds

let test_equivocation_expressible () =
  let net = mk 3 in
  Net.send_to_all net ~src:0 (fun dst -> if dst = 1 then "one" else "two");
  let inbox = Net.deliver net in
  Alcotest.(check (list (pair int string))) "to 1" [ (0, "one") ] inbox.(1);
  Alcotest.(check (list (pair int string))) "to 2" [ (0, "two") ] inbox.(2)

let test_multiple_messages_same_round () =
  let net = mk 2 in
  Net.send net ~src:0 ~dst:1 "first";
  Net.send net ~src:0 ~dst:1 "second";
  let inbox = Net.deliver net in
  Alcotest.(check (list (pair int string)))
    "both kept, send order"
    [ (0, "first"); (0, "second") ]
    inbox.(1)

let test_id_validation () =
  let net = mk 2 in
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Net.send: player id 5 out of range") (fun () ->
      Net.send net ~src:0 ~dst:5 "x");
  Alcotest.check_raises "bad src"
    (Invalid_argument "Net.send: player id -1 out of range") (fun () ->
      Net.send net ~src:(-1) ~dst:0 "x");
  Alcotest.check_raises "bad src, send_to_all"
    (Invalid_argument "Net.send_to_all: player id 2 out of range") (fun () ->
      Net.send_to_all net ~src:2 (fun _ -> "x"))

(* ---------------------- Degraded networks ------------------------ *)

let str_codec = (Bytes.of_string, Bytes.to_string)

let test_plan_validation () =
  Alcotest.check_raises "bad drop"
    (Invalid_argument "Net.Plan.make: drop must be in [0, 1]") (fun () ->
      ignore (Net.Plan.make ~drop:1.5 ~seed:1 ()));
  Alcotest.check_raises "bad retransmits"
    (Invalid_argument "Net.Plan.make: retransmits must be >= 0") (fun () ->
      ignore (Net.Plan.make ~retransmits:(-1) ~seed:1 ()));
  Alcotest.check_raises "bad crash round"
    (Invalid_argument "Net.Plan.make: crash round must be >= 1") (fun () ->
      ignore (Net.Plan.make ~crashes:[ (0, 0, None) ] ~seed:1 ()));
  Alcotest.check_raises "bad recovery round"
    (Invalid_argument "Net.Plan.make: recovery round must follow the crash")
    (fun () -> ignore (Net.Plan.make ~crashes:[ (0, 2, Some 2) ] ~seed:1 ()))

let test_plan_drop_all () =
  let plan = Net.Plan.make ~drop:1.0 ~seed:1 () in
  Net.with_plan plan (fun () ->
      let net = mk 3 in
      Net.send net ~src:0 ~dst:1 "x";
      Net.send net ~src:2 ~dst:2 "self";
      let inbox = Net.deliver net in
      Alcotest.(check (list (pair int string))) "link dropped" [] inbox.(1);
      (* A player's channel to itself is its own memory — link faults
         never touch it. *)
      Alcotest.(check (list (pair int string)))
        "self hand-off kept"
        [ (2, "self") ]
        inbox.(2));
  Alcotest.(check int) "drop counted" 1 (Net.Plan.stats plan).Net.Plan.dropped

let test_plan_delay () =
  let plan = Net.Plan.make ~delay:1.0 ~max_delay:1 ~seed:2 () in
  Net.with_plan plan (fun () ->
      let net = mk 2 in
      Net.send net ~src:0 ~dst:1 "late";
      let r1 = Net.deliver net in
      Alcotest.(check (list (pair int string))) "held back" [] r1.(1);
      let r2 = Net.deliver net in
      Alcotest.(check (list (pair int string)))
        "arrives one round late"
        [ (0, "late") ]
        r2.(1))

let test_plan_duplicate () =
  let plan = Net.Plan.make ~duplicate:1.0 ~seed:3 () in
  Net.with_plan plan (fun () ->
      let net = mk 2 in
      Net.send net ~src:0 ~dst:1 "twice";
      let inbox = Net.deliver net in
      Alcotest.(check (list (pair int string)))
        "two copies"
        [ (0, "twice"); (0, "twice") ]
        inbox.(1))

let test_plan_corrupt () =
  let plan = Net.Plan.make ~corrupt:1.0 ~seed:4 () in
  Net.with_plan plan (fun () ->
      let net = Net.create ~codec:str_codec ~n:2 ~byte_size:String.length () in
      Net.send net ~src:0 ~dst:1 "abcd";
      match (Net.deliver net).(1) with
      | [ (0, s) ] ->
          Alcotest.(check bool)
            "exactly one flipped bit" true
            (String.length s = 4 && s <> "abcd")
      | inbox ->
          Alcotest.failf "expected one corrupted message, got %d"
            (List.length inbox));
  (* Without a codec there is no wire form to mangle: the fault is a
     detected drop. *)
  Net.with_plan plan (fun () ->
      let net = mk 2 in
      Net.send net ~src:0 ~dst:1 "abcd";
      Alcotest.(check (list (pair int string)))
        "codec-less corruption discarded" [] (Net.deliver net).(1))

let test_plan_reorder () =
  let plan = Net.Plan.make ~reorder:1.0 ~seed:5 () in
  Net.with_plan plan (fun () ->
      let net = mk 4 in
      Net.send net ~src:1 ~dst:0 "a";
      Net.send net ~src:2 ~dst:0 "b";
      Net.send net ~src:3 ~dst:0 "c";
      let inbox = Net.deliver net in
      Alcotest.(check (list (pair int string)))
        "same messages, any order"
        [ (1, "a"); (2, "b"); (3, "c") ]
        (List.sort compare inbox.(0)));
  Alcotest.(check bool)
    "reorder counted" true
    ((Net.Plan.stats plan).Net.Plan.reordered >= 1)

let test_plan_crash_and_recovery () =
  let plan = Net.Plan.make ~crashes:[ (1, 1, Some 2) ] ~seed:6 () in
  Net.with_plan plan (fun () ->
      let net = mk 3 in
      (* Round 1: player 1 is down — sends nothing, receives nothing. *)
      Net.send net ~src:1 ~dst:0 "from-crashed";
      Net.send net ~src:0 ~dst:1 "to-crashed";
      Net.send net ~src:0 ~dst:2 "fine";
      let r1 = Net.deliver net in
      Alcotest.(check (list (pair int string))) "send voided" [] r1.(0);
      Alcotest.(check (list (pair int string))) "inbox voided" [] r1.(1);
      Alcotest.(check (list (pair int string)))
        "bystander unaffected"
        [ (0, "fine") ]
        r1.(2);
      (* Round 2: recovered — traffic flows again. *)
      Net.send net ~src:1 ~dst:0 "back";
      Net.send net ~src:0 ~dst:1 "hello-again";
      let r2 = Net.deliver net in
      Alcotest.(check (list (pair int string)))
        "sends after recovery"
        [ (1, "back") ]
        r2.(0);
      Alcotest.(check (list (pair int string)))
        "receives after recovery"
        [ (0, "hello-again") ]
        r2.(1));
  Alcotest.(check int) "crashed messages counted" 2
    (Net.Plan.stats plan).Net.Plan.crashed_msgs

let test_plan_deterministic () =
  let run () =
    let plan =
      Net.Plan.make ~drop:0.3 ~delay:0.2 ~duplicate:0.2 ~reorder:0.3 ~seed:42
        ()
    in
    Net.with_plan plan (fun () ->
        let net = mk 5 in
        let log = ref [] in
        for _ = 1 to 6 do
          for src = 0 to 4 do
            Net.send_to_all net ~src (fun dst ->
                Printf.sprintf "%d-%d" src dst)
          done;
          log := Net.deliver net :: !log
        done;
        (!log, Net.Plan.stats plan))
  in
  Alcotest.(check bool) "bit-identical replay from seed" true (run () = run ())

(* The absorption guarantee: under a bounded plan, a retransmit
   envelope with any budget >= 1 delivers every honest message exactly
   once, whatever mix of drops, delays, duplicates, corruption and
   reordering the plan throws at the individual attempts. *)
let test_exchange_absorbs_within_budget () =
  let plan =
    Net.Plan.make ~drop:0.4 ~delay:0.3 ~duplicate:0.3 ~corrupt:0.2
      ~reorder:0.5 ~retransmits:2 ~seed:7 ()
  in
  Net.with_plan plan (fun () ->
      let net = Net.create ~codec:str_codec ~n:5 ~byte_size:String.length () in
      for round = 1 to 8 do
        let inbox =
          Net.exchange net ~send:(fun () ->
              for src = 0 to 4 do
                Net.send_to_all net ~src (fun dst ->
                    Printf.sprintf "r%d:%d>%d" round src dst)
              done)
        in
        for dst = 0 to 4 do
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "round %d: complete clean inbox at %d" round dst)
            (List.init 5 (fun src ->
                 (src, Printf.sprintf "r%d:%d>%d" round src dst)))
            inbox.(dst)
        done
      done);
  let s = Net.Plan.stats plan in
  Alcotest.(check bool)
    "faults actually fired" true
    (s.Net.Plan.dropped > 0 && s.Net.Plan.delayed > 0)

let test_exchange_zero_budget_faults_land () =
  let plan = Net.Plan.make ~drop:1.0 ~retransmits:0 ~seed:8 () in
  Net.with_plan plan (fun () ->
      let net = mk 3 in
      let inbox =
        Net.exchange net ~send:(fun () -> Net.send net ~src:0 ~dst:1 "x")
      in
      Alcotest.(check (list (pair int string)))
        "no retransmit: the drop sticks" [] inbox.(1))

let test_exchange_crash_not_absorbed () =
  let plan = Net.Plan.make ~crashes:[ (2, 1, None) ] ~retransmits:3 ~seed:9 () in
  Net.with_plan plan (fun () ->
      let net = mk 3 in
      let inbox =
        Net.exchange net ~send:(fun () ->
            Net.send_to_all net ~src:0 (fun dst -> "m" ^ string_of_int dst))
      in
      Alcotest.(check (list (pair int string)))
        "no budget reaches a dead player" [] inbox.(2);
      Alcotest.(check (list (pair int string)))
        "live player served"
        [ (0, "m1") ]
        inbox.(1))

let test_exchange_without_plan_is_one_round () =
  let net = mk 2 in
  let inbox =
    Net.exchange net ~send:(fun () -> Net.send net ~src:0 ~dst:1 "plain")
  in
  Alcotest.(check (list (pair int string)))
    "identical to send-then-deliver"
    [ (0, "plain") ]
    inbox.(1);
  Alcotest.(check int) "one round" 1 (Net.rounds_elapsed net)

let test_faults_construction () =
  let f = Net.Faults.make ~n:7 ~faulty:[ 1; 4 ] in
  Alcotest.(check int) "count" 2 (Net.Faults.count f);
  Alcotest.(check bool) "1 faulty" true (Net.Faults.is_faulty f 1);
  Alcotest.(check bool) "0 honest" true (Net.Faults.is_honest f 0);
  Alcotest.(check (list int)) "faulty list" [ 1; 4 ] (Net.Faults.faulty f);
  Alcotest.(check (list int)) "honest list" [ 0; 2; 3; 5; 6 ]
    (Net.Faults.honest f)

let test_faults_random () =
  let g = Prng.of_int 5 in
  for _ = 1 to 50 do
    let f = Net.Faults.random g ~n:10 ~t:3 in
    Alcotest.(check int) "three faulty" 3 (Net.Faults.count f)
  done

let test_faults_validation () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Faults.make: duplicate id")
    (fun () -> ignore (Net.Faults.make ~n:4 ~faulty:[ 1; 1 ]));
  Alcotest.check_raises "range" (Invalid_argument "Faults.make: id out of range")
    (fun () -> ignore (Net.Faults.make ~n:4 ~faulty:[ 4 ]))

(* The sizing rule (Net.observed_size): [byte_size] runs only while a
   measurement or a trace collector reads the size, once per counted
   message or announcement. The round below, at n = 7, sends a distinct
   string from every player to every other player, then announces one
   string per player on the broadcast channel. *)
let sizing_n = 7
let payload src dst = String.make (1 + src + (2 * dst)) 'p'
let announcement i = String.make (3 + i) 'a'

let sized_round ~calls =
  let byte_size s =
    incr calls;
    String.length s
  in
  let net = Net.create ~codec:str_codec ~n:sizing_n ~byte_size () in
  let inbox =
    Net.exchange net ~send:(fun () ->
        for src = 0 to sizing_n - 1 do
          for dst = 0 to sizing_n - 1 do
            if src <> dst then Net.send net ~src ~dst (payload src dst)
          done
        done)
  in
  let heard =
    Transport.broadcast_round ~codec:str_codec ~byte_size ~n:sizing_n (fun i ->
        Some (announcement i))
  in
  (inbox, heard)

let sizing_messages = (sizing_n * (sizing_n - 1)) + sizing_n

let sizing_bytes =
  let p2p = ref 0 and ann = ref 0 in
  for src = 0 to sizing_n - 1 do
    ann := !ann + String.length (announcement src);
    for dst = 0 to sizing_n - 1 do
      if src <> dst then p2p := !p2p + String.length (payload src dst)
    done
  done;
  (!p2p, !ann)

(* Every link fault but corruption, with two retransmits: each of the
   three attempts re-sends and re-announces everything. *)
let sizing_plan ?(corrupt = 0.0) () =
  Net.Plan.make ~drop:0.3 ~delay:0.2 ~duplicate:0.2 ~corrupt ~reorder:0.3
    ~retransmits:2 ~seed:17 ()

let sizing_attempts = 3

let test_sizing_only_when_observed () =
  let in_plan plan f = match plan with None -> f () | Some p -> Net.with_plan p f in
  List.iter
    (fun (label, plan, attempts) ->
      let p2p, ann = sizing_bytes in
      let calls = ref 0 in
      let inbox, heard = in_plan plan (fun () -> sized_round ~calls) in
      Alcotest.(check int) (label ^ ": unobserved, never sized") 0 !calls;
      Alcotest.(check (list (pair int string)))
        (label ^ ": delivery unaffected")
        (List.init (sizing_n - 1) (fun k ->
             let src = if k < 3 then k else k + 1 in
             (src, payload src 3)))
        inbox.(3);
      Alcotest.(check (option string))
        (label ^ ": announcement unaffected")
        (Some (announcement 5)) heard.(5);
      let calls = ref 0 in
      let _, snap =
        Metrics.with_counting (fun () -> in_plan plan (fun () -> sized_round ~calls))
      in
      Alcotest.(check int) (label ^ ": counted, once per message") (attempts * sizing_messages) !calls;
      Alcotest.(check int) (label ^ ": messages") (attempts * sizing_messages)
        snap.Metrics.messages;
      Alcotest.(check int) (label ^ ": bytes") (attempts * (p2p + ann))
        snap.Metrics.bytes;
      let calls = ref 0 in
      let _, trace = Trace.collect (fun () -> in_plan plan (fun () -> sized_round ~calls)) in
      Alcotest.(check int) (label ^ ": traced, once per message") (attempts * sizing_messages) !calls;
      let sent = ref 0 and announced = ref 0 in
      List.iter
        (fun (_, e) ->
          match e with
          | Trace.Send { bytes; _ } -> sent := !sent + bytes
          | Trace.Broadcast { bytes; _ } -> announced := !announced + bytes
          | Trace.Recv { src; dst; bytes } ->
              Alcotest.(check int) (label ^ ": receive event size")
                (String.length (payload src dst)) bytes
          | _ -> ())
        (Trace.all_events trace);
      Alcotest.(check int) (label ^ ": send event bytes") (attempts * p2p) !sent;
      Alcotest.(check int) (label ^ ": broadcast event bytes") (attempts * ann) !announced)
    [ ("fault-free", None, 1); ("degraded", Some (sizing_plan ()), sizing_attempts) ];
  (* Corruption: counted figures are unchanged, and a mangled copy is
     sized only for its receive event, never for the counters. *)
  let p2p, ann = sizing_bytes in
  let calls = ref 0 in
  let _, snap =
    Metrics.with_counting (fun () ->
        Net.with_plan (sizing_plan ~corrupt:0.3 ()) (fun () -> sized_round ~calls))
  in
  Alcotest.(check int) "corrupting: counted, once per message"
    (sizing_attempts * sizing_messages) !calls;
  Alcotest.(check int) "corrupting: messages" (sizing_attempts * sizing_messages)
    snap.Metrics.messages;
  Alcotest.(check int) "corrupting: bytes" (sizing_attempts * (p2p + ann))
    snap.Metrics.bytes;
  (* A self-message is free: never sized for the counters, sized once
     for its receive event under a collector. *)
  let self_round calls =
    let byte_size s =
      incr calls;
      String.length s
    in
    let net = Net.create ~n:2 ~byte_size () in
    Net.send net ~src:1 ~dst:1 "self";
    ignore (Net.deliver net)
  in
  let calls = ref 0 in
  ignore (Metrics.with_counting (fun () -> self_round calls));
  Alcotest.(check int) "self-message: counted run never sizes it" 0 !calls;
  let calls = ref 0 in
  let (), trace = Trace.collect (fun () -> self_round calls) in
  Alcotest.(check int) "self-message: traced once" 1 !calls;
  Alcotest.(check bool) "self-message: receive event carries its size" true
    (List.exists
       (function _, Trace.Recv { src = 1; dst = 1; bytes = 4 } -> true | _ -> false)
       (Trace.all_events trace));
  (* Sent unobserved, delivered under a collector: the receive event
     sizes the message itself. *)
  let net = Net.create ~n:2 ~byte_size:String.length () in
  Net.send net ~src:0 ~dst:1 "early";
  let _, trace = Trace.collect (fun () -> Net.deliver net) in
  Alcotest.(check bool) "sent before tracing: receive event carries its size" true
    (List.exists
       (function _, Trace.Recv { src = 0; dst = 1; bytes = 5 } -> true | _ -> false)
       (Trace.all_events trace))

(* ----------------- Pristine store vs list queues ----------------- *)

(* A pristine net (no plan, no carrier) holds its rounds in a dense
   store; under an empty plan, which never samples a fault, the same
   rounds take the list queues. Random rounds with silent senders,
   announcements, self-messages, missing links and now and then a second
   send on one link (which moves a pristine round to the queues) must
   give the same inboxes — through [exchange] and through every
   [Inbox] reader — and the same costs and trace events on both. *)
type round_view = {
  lists : (int * string) list array;
  folded : (int * string) list array;
  silent : int list list;  (** [Inbox.silent] at thresholds 1..n *)
}

(* One random round's sends; the first round of a net is complete (every
   sender announces), so the n^2 count answer is exercised too. *)
let random_round g ~n ~round net =
  for src = 0 to n - 1 do
    match if round = 0 then 1 else Prng.int g 5 with
    | 0 -> ()
    | 1 -> Net.send_to_all net ~src (fun _ -> Printf.sprintf "a%d.%d" round src)
    | _ ->
        for dst = 0 to n - 1 do
          if Prng.int g 5 > 0 then
            Net.send net ~src ~dst (Printf.sprintf "m%d.%d>%d" round src dst)
        done
  done;
  if Prng.int g 3 = 0 then
    Net.send net ~src:(Prng.int g n) ~dst:(Prng.int g n) "again"

(* The senders that at least [at_least] receivers have no entry from,
   counted receiver by receiver. *)
let naive_silent lists ~at_least =
  List.filter
    (fun src ->
      Array.fold_left
        (fun k l -> if List.mem_assoc src l then k else k + 1)
        0 lists
      >= at_least)
    (List.init (Array.length lists) Fun.id)

let silent_at_every_threshold tag inbox =
  let lists = Net.Inbox.to_lists inbox in
  List.init (Array.length lists) (fun k ->
      let at_least = k + 1 in
      let silent = Net.Inbox.silent inbox ~at_least in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: silent at %d" tag at_least)
        (naive_silent lists ~at_least) silent;
      silent)

let store_rounds ~n seed net =
  let g = Prng.of_int seed in
  List.init 6 (fun round ->
      let send () = random_round g ~n ~round net in
      if round mod 2 = 0 then begin
        let lists = Net.exchange net ~send in
        {
          lists;
          folded = lists;
          silent = List.init n (fun k -> naive_silent lists ~at_least:(k + 1));
        }
      end
      else begin
        let inbox = Net.exchange_inbox net ~send in
        let silent =
          silent_at_every_threshold (Printf.sprintf "round %d" round) inbox
        in
        let folded =
          Array.init n (fun dst ->
              List.rev
                (Net.Inbox.fold inbox ~dst (fun src msg acc -> (src, msg) :: acc) []))
        in
        let lists = Net.Inbox.to_lists inbox in
        Array.iter
          (fun l ->
            if List.length l > Net.Inbox.max_length inbox then
              Alcotest.fail "an inbox is longer than Inbox.max_length")
          lists;
        { lists; folded; silent }
      end)

let test_store_matches_queues () =
  let empty_plan () = Net.Plan.make ~seed:5 () in
  let observe label wrap =
    for seed = 1 to 40 do
      let n = 1 + (seed mod 7) in
      let run plan =
        let go () =
          let net = Net.create ~codec:str_codec ~n ~byte_size:String.length () in
          store_rounds ~n seed net
        in
        match plan with None -> wrap go | Some p -> wrap (fun () -> Net.with_plan p go)
      in
      let (pristine, p_obs), (queued, q_obs) = (run None, run (Some (empty_plan ()))) in
      let tag = Printf.sprintf "%s seed=%d n=%d" label seed n in
      Alcotest.(check string) (tag ^ ": costs and trace") q_obs p_obs;
      List.iteri
        (fun round ((p : round_view), (q : round_view)) ->
          let tag = Printf.sprintf "%s round %d" tag round in
          let inboxes = Alcotest.(array (list (pair int string))) in
          Alcotest.check inboxes (tag ^ ": inboxes") q.lists p.lists;
          Alcotest.check inboxes (tag ^ ": folded inboxes") q.folded p.folded;
          Alcotest.check inboxes (tag ^ ": fold = lists") p.lists p.folded;
          Alcotest.(check (list (list int)))
            (tag ^ ": silent senders") q.silent p.silent)
        (List.combine pristine queued)
    done
  in
  observe "bare" (fun f -> (f (), ""));
  observe "counted" (fun f ->
      let v, snap = Metrics.with_counting f in
      (v, Printf.sprintf "messages=%d bytes=%d rounds=%d" snap.Metrics.messages
            snap.Metrics.bytes snap.Metrics.rounds));
  observe "traced" (fun f ->
      let v, trace = Trace.collect f in
      (v, Fmt.str "%a" Trace.pp_jsonl trace))

(* [Inbox.silent] against the naive count on rounds that differ from
   the pristine ones: lossy single-attempt rounds (drops, duplicates, a
   crash window) and rounds merged by a retransmit envelope. *)
let test_silent_on_faulty_rounds () =
  List.iter
    (fun (label, plan) ->
      for seed = 1 to 30 do
        let n = 1 + (seed mod 7) in
        Net.with_plan (plan seed) @@ fun () ->
        let net = Net.create ~codec:str_codec ~n ~byte_size:String.length () in
        let g = Prng.of_int seed in
        for round = 0 to 5 do
          let send () = random_round g ~n ~round net in
          let inbox = Net.exchange_inbox net ~send in
          ignore
            (silent_at_every_threshold
               (Printf.sprintf "%s seed=%d n=%d round %d" label seed n round)
               inbox)
        done
      done)
    [
      ( "lossy",
        fun seed ->
          Net.Plan.make ~drop:0.2 ~duplicate:0.1
            ~crashes:[ (0, 2, Some 4) ]
            ~seed () );
      ( "merged",
        fun seed ->
          Net.Plan.make ~drop:0.3 ~delay:0.1 ~retransmits:2 ~bounded:false
            ~seed () );
    ]

(* The n = 2 round 0->0 twice, 0->1, 1->1 holds n^2 = 4 messages, yet
   receiver 0 never heard from sender 1: the second send on one link
   moves the round to the queues, which are walked. *)
let test_silent_spilled_round () =
  let net = mk 2 in
  let inbox =
    Net.exchange_inbox net ~send:(fun () ->
        Net.send net ~src:0 ~dst:0 "a";
        Net.send net ~src:0 ~dst:0 "b";
        Net.send net ~src:0 ~dst:1 "c";
        Net.send net ~src:1 ~dst:1 "d")
  in
  Alcotest.(check (list int))
    "sender 1 silent at 1" [ 1 ]
    (Net.Inbox.silent inbox ~at_least:1);
  Alcotest.(check (list int))
    "nobody silent at 2" []
    (Net.Inbox.silent inbox ~at_least:2)

(* A view of the store is valid until the next send on its net. *)
let test_inbox_view_expires () =
  let net = mk 3 in
  let inbox = Net.exchange_inbox net ~send:(fun () -> Net.send_to_all net ~src:0 (fun _ -> "x")) in
  Alcotest.(check (list (pair int string)))
    "read in place" [ (0, "x") ] (Net.Inbox.to_lists inbox).(2);
  Alcotest.(check int) "bounded by n" 3 (Net.Inbox.max_length inbox);
  Net.send net ~src:1 ~dst:2 "y";
  Alcotest.check_raises "stale after the next send"
    (Invalid_argument "Net.Inbox: the net has moved on past this round")
    (fun () -> ignore (Net.Inbox.fold inbox ~dst:2 (fun _ _ k -> k + 1) 0));
  Alcotest.(check (list (pair int string)))
    "the next round is unaffected" [ (1, "y") ] (Net.deliver net).(2)

let suite =
  [
    Alcotest.test_case "delivery order" `Quick test_delivery_order;
    Alcotest.test_case "queues cleared" `Quick test_queues_cleared;
    Alcotest.test_case "rounds counted" `Quick test_rounds_counted;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "equivocation expressible" `Quick
      test_equivocation_expressible;
    Alcotest.test_case "multiple messages same round" `Quick
      test_multiple_messages_same_round;
    Alcotest.test_case "id validation" `Quick test_id_validation;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan drops" `Quick test_plan_drop_all;
    Alcotest.test_case "plan delays" `Quick test_plan_delay;
    Alcotest.test_case "plan duplicates" `Quick test_plan_duplicate;
    Alcotest.test_case "plan corrupts" `Quick test_plan_corrupt;
    Alcotest.test_case "plan reorders" `Quick test_plan_reorder;
    Alcotest.test_case "plan crash and recovery" `Quick
      test_plan_crash_and_recovery;
    Alcotest.test_case "plan deterministic from seed" `Quick
      test_plan_deterministic;
    Alcotest.test_case "exchange absorbs within budget" `Quick
      test_exchange_absorbs_within_budget;
    Alcotest.test_case "exchange with zero budget" `Quick
      test_exchange_zero_budget_faults_land;
    Alcotest.test_case "exchange cannot absorb crashes" `Quick
      test_exchange_crash_not_absorbed;
    Alcotest.test_case "exchange without a plan" `Quick
      test_exchange_without_plan_is_one_round;
    Alcotest.test_case "faults construction" `Quick test_faults_construction;
    Alcotest.test_case "faults random" `Quick test_faults_random;
    Alcotest.test_case "faults validation" `Quick test_faults_validation;
    Alcotest.test_case "sizing only when observed" `Quick
      test_sizing_only_when_observed;
    Alcotest.test_case "pristine store = list queues" `Quick
      test_store_matches_queues;
    Alcotest.test_case "inbox view expires at the next send" `Quick
      test_inbox_view_expires;
    Alcotest.test_case "silent senders on faulty rounds" `Quick
      test_silent_on_faulty_rounds;
    Alcotest.test_case "silent sender of a spilled n^2 round" `Quick
      test_silent_spilled_round;
  ]
