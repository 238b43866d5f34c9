let test_disabled_by_default () =
  Alcotest.(check bool) "disabled" false (Metrics.counting_enabled ())

let test_counts_ticks () =
  let (), snap =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 3;
        Metrics.tick_mults 2;
        Metrics.tick_invs 1;
        Metrics.tick_interpolation ();
        Metrics.tick_message ~bytes_len:16;
        Metrics.tick_message ~bytes_len:4;
        Metrics.tick_round ();
        Metrics.tick_ba ();
        Metrics.tick_gradecast ())
  in
  Alcotest.(check int) "adds" 3 snap.Metrics.field_adds;
  Alcotest.(check int) "mults" 2 snap.Metrics.field_mults;
  Alcotest.(check int) "invs" 1 snap.Metrics.field_invs;
  Alcotest.(check int) "interps" 1 snap.Metrics.interpolations;
  Alcotest.(check int) "messages" 2 snap.Metrics.messages;
  Alcotest.(check int) "bytes" 20 snap.Metrics.bytes;
  Alcotest.(check int) "rounds" 1 snap.Metrics.rounds;
  Alcotest.(check int) "ba" 1 snap.Metrics.ba_runs;
  Alcotest.(check int) "gradecast" 1 snap.Metrics.gradecasts

let test_nested_counting () =
  let (inner_snap, outer_extra), outer_snap =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        let (), inner = Metrics.with_counting (fun () -> Metrics.tick_adds 5) in
        Metrics.tick_adds 2;
        (inner, 3))
  in
  ignore outer_extra;
  Alcotest.(check int) "inner sees its own" 5 inner_snap.Metrics.field_adds;
  Alcotest.(check int) "outer sees everything" 8 outer_snap.Metrics.field_adds

let test_restores_on_exception () =
  (try
     ignore
       (Metrics.with_counting (fun () ->
            Metrics.tick_adds 1;
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "disabled after exception" false
    (Metrics.counting_enabled ())

(* Every open measurement sees every tick: a tick inside a doubly-nested
   measurement reaches all three, and closing an inner one never steals
   what the outer ones already saw. *)
let test_deep_nesting_accumulates_everywhere () =
  let (), outer =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        let (), mid =
          Metrics.with_counting (fun () ->
              Metrics.tick_adds 10;
              let (), inner =
                Metrics.with_counting (fun () -> Metrics.tick_adds 100)
              in
              Alcotest.(check int) "inner" 100 inner.Metrics.field_adds)
        in
        Alcotest.(check int) "mid" 110 mid.Metrics.field_adds;
        Metrics.tick_adds 1000)
  in
  Alcotest.(check int) "outer" 1111 outer.Metrics.field_adds

let test_without_counting_suppresses () =
  let (), snap =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        Metrics.without_counting (fun () ->
            Metrics.tick_adds 100;
            Metrics.tick_round ();
            Alcotest.(check bool) "suspended inside" false
              (Metrics.counting_enabled ()));
        (* Counting resumes: later ticks are charged again. *)
        Metrics.tick_adds 10)
  in
  Alcotest.(check int) "suppressed ticks invisible" 11 snap.Metrics.field_adds;
  Alcotest.(check int) "rounds suppressed too" 0 snap.Metrics.rounds

let test_without_counting_restores_on_exception () =
  let (), snap =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        (try
           Metrics.without_counting (fun () ->
               Metrics.tick_adds 100;
               failwith "boom")
         with Failure _ -> ());
        Metrics.tick_adds 10)
  in
  Alcotest.(check int) "sink restored after raise" 11 snap.Metrics.field_adds

(* An inner with_counting that raises must close only itself: the outer
   measurement keeps accumulating afterwards. *)
let test_inner_exception_keeps_outer_sink () =
  let (), outer =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        (try
           ignore
             (Metrics.with_counting (fun () ->
                  Metrics.tick_adds 100;
                  failwith "boom"))
         with Failure _ -> ());
        Metrics.tick_adds 10)
  in
  (* The inner ticks happened while the outer measurement was open, so
     the outer total includes them — only the inner result is lost. *)
  Alcotest.(check int) "outer saw everything" 111 outer.Metrics.field_adds;
  Alcotest.(check bool) "fully unwound" false (Metrics.counting_enabled ())

(* A measurement opened inside a suspended region sees its own ticks,
   yet none of them reach the measurement that was suspended. *)
let test_measurement_inside_suspension_stays_local () =
  let (), outer =
    Metrics.with_counting (fun () ->
        Metrics.tick_adds 1;
        Metrics.without_counting (fun () ->
            let (), inner =
              Metrics.with_counting (fun () ->
                  Metrics.tick_adds 100;
                  Metrics.tick_message ~bytes_len:8)
            in
            Alcotest.(check int) "inner adds" 100 inner.Metrics.field_adds;
            Alcotest.(check int) "inner bytes" 8 inner.Metrics.bytes);
        Metrics.tick_adds 10)
  in
  Alcotest.(check int) "outer adds unchanged" 11 outer.Metrics.field_adds;
  Alcotest.(check int) "outer messages unchanged" 0 outer.Metrics.messages;
  Alcotest.(check int) "outer bytes unchanged" 0 outer.Metrics.bytes

let test_add_diff () =
  let a = { Metrics.zero with Metrics.field_adds = 5; messages = 2 } in
  let b = { Metrics.zero with Metrics.field_adds = 3; messages = 7 } in
  let s = Metrics.add a b in
  Alcotest.(check int) "sum adds" 8 s.Metrics.field_adds;
  Alcotest.(check int) "sum msgs" 9 s.Metrics.messages;
  let d = Metrics.diff s a in
  Alcotest.(check bool) "diff recovers" true (d = b)

let test_no_ticks_without_sink () =
  Metrics.tick_adds 1000;
  let (), snap = Metrics.with_counting (fun () -> ()) in
  Alcotest.(check int) "fresh sink starts at zero" 0 snap.Metrics.field_adds

let test_to_row_labels () =
  let row = Metrics.to_row Metrics.zero in
  Alcotest.(check int) "nine components" 9 (List.length row);
  Alcotest.(check bool) "has adds label" true (List.mem_assoc "adds" row)

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "counts ticks" `Quick test_counts_ticks;
    Alcotest.test_case "nested counting" `Quick test_nested_counting;
    Alcotest.test_case "restores on exception" `Quick test_restores_on_exception;
    Alcotest.test_case "deep nesting accumulates everywhere" `Quick
      test_deep_nesting_accumulates_everywhere;
    Alcotest.test_case "without_counting suppresses" `Quick
      test_without_counting_suppresses;
    Alcotest.test_case "without_counting restores on exception" `Quick
      test_without_counting_restores_on_exception;
    Alcotest.test_case "inner exception keeps outer sink" `Quick
      test_inner_exception_keeps_outer_sink;
    Alcotest.test_case "measurement inside suspension stays local" `Quick
      test_measurement_inside_suspension_stays_local;
    Alcotest.test_case "add and diff" `Quick test_add_diff;
    Alcotest.test_case "no ticks without sink" `Quick test_no_ticks_without_sink;
    Alcotest.test_case "to_row labels" `Quick test_to_row_labels;
  ]
