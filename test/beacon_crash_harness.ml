(* The deterministic crash-point sweep over a durable beacon (DESIGN.md
   section 19), built only on the beacon's public API: run a seeded
   workload once to count its durability points
   ([Beacon_journal.Crash_point]), then once per point with the writer
   killed at exactly that byte offset, recovering and re-checking after
   each kill. *)

module Make (F : Field_intf.S) = struct
  module BC = Beacon.Make (F)

  type report = {
    points : int;  (** durability points (= crash offsets) swept *)
    crashes : int;  (** runs actually killed mid-write *)
    torn_recoveries : int;  (** recoveries that dropped a torn tail *)
    epochs : int;  (** chain length each run converges to *)
  }

  exception Violation of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt
  let snapshot_path dir = Filename.concat dir "beacon.snap"
  let journal_path dir = Filename.concat dir "beacon.journal"

  let clean dir =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [
        snapshot_path dir;
        snapshot_path dir ^ ".tmp";
        journal_path dir;
        journal_path dir ^ ".tmp";
      ]

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)

  (* Serve [epochs] epochs of [requests] requests each, snapshotting
     every [snapshot_every] closes (0 = never), under files in [dir];
     then kill-and-recover at every [stride]-th durability point.
     [mk_fresh] must build the same beacon every call (same seed), keyed
     by [key], and [mk_restore] must load its snapshots with the same
     parameters. After every recovery the sweep asserts: acked epochs
     reappear digest-identical, the final chain is gapless
     [0 .. epochs-1] and verifies under [key], no seq is reused, and
     every acked request id still in the dedup window replays
     bit-identically. The first violated invariant comes back as
     [Error] with the crash offset. *)
  let run ?(epochs = 4) ?(requests = 2) ?(snapshot_every = 2) ?(stride = 1)
      ~key ~mk_fresh ~mk_restore ~dir () =
    if epochs < 1 then invalid_arg "Harness.run: epochs must be >= 1";
    if requests < 1 then invalid_arg "Harness.run: requests must be >= 1";
    if stride < 1 then invalid_arg "Harness.run: stride must be >= 1";
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* The sweep plays both sides: it drives the server and keeps the
       clients' books — every epoch observed at ack time and the exact
       bits each acknowledged request received. Recovery is checked
       against those books after every kill. *)
    let closed : (int, BC.epoch) Hashtbl.t = Hashtbl.create 64 in
    let acked_bits : (int, bool array) Hashtbl.t = Hashtbl.create 64 in
    let incarnation () =
      let spath = snapshot_path dir in
      let b =
        if Sys.file_exists spath then mk_restore (read_file spath)
        else mk_fresh ()
      in
      let d, rs =
        BC.Durable.attach ~journal:(journal_path dir) ~snapshot:spath
          ~sync:Beacon_journal.Flush_only b
      in
      Fun.protect ~finally:(fun () -> BC.Durable.close d) @@ fun () ->
      let next_seq () = BC.next_seq (BC.Durable.beacon d) in
      (* Recovered epochs must extend the acknowledged chain: an acked
         seq must come back with the identical digest, and an epoch the
         clients never saw acked (journaled, killed before the ack) may
         only extend past everything acknowledged. *)
      let max_closed = Hashtbl.fold (fun s _ m -> max s m) closed (-1) in
      List.iter
        (fun (e : BC.epoch) ->
          match Hashtbl.find_opt closed e.seq with
          | Some e' when Beacon_hash.equal e'.digest e.digest -> ()
          | Some _ -> fail "recovery rewrote acked epoch %d" e.seq
          | None ->
              if e.seq <= max_closed then
                fail
                  "recovery resurrected unacked epoch %d below the acked head \
                   %d"
                  e.seq max_closed;
              Hashtbl.replace closed e.seq e)
        rs.BC.Durable.replayed;
      (* Every acknowledged request still inside the dedup window must
         replay bit-identically. *)
      Hashtbl.iter
        (fun id bits ->
          match BC.Durable.replay d ~id with
          | None -> () (* rotated out of the journal window *)
          | Some f ->
              if f.BC.bits <> bits then
                fail "request %d replayed with different bits" id)
        acked_bits;
      while next_seq () < epochs do
        let vend_buf = ref [] in
        for _ = 1 to requests do
          match
            BC.Durable.request d
              ~callback:(fun f -> vend_buf := f :: !vend_buf)
              ()
          with
          | Ok _ -> ()
          | Error r -> fail "harness request rejected: %s" (BC.reject_name r)
        done;
        (match BC.Durable.close_epoch d with
        | Error msg -> fail "close failed: %s" msg
        | Ok e ->
            if Hashtbl.mem closed e.seq then fail "epoch seq %d reused" e.seq;
            Hashtbl.replace closed e.seq e;
            List.iter
              (fun (f : BC.fulfillment) ->
                Hashtbl.replace acked_bits f.request_id f.bits)
              !vend_buf);
        if
          snapshot_every > 0
          && next_seq () mod snapshot_every = 0
          && next_seq () < epochs
        then BC.Durable.snapshot d
      done;
      rs
    in
    let fresh_world () =
      clean dir;
      Hashtbl.reset closed;
      Hashtbl.reset acked_bits
    in
    let final_check () =
      let chain =
        Hashtbl.fold (fun _ e acc -> e :: acc) closed []
        |> List.sort (fun (a : BC.epoch) b -> compare a.seq b.seq)
      in
      if List.length chain <> epochs then
        fail "final chain has %d epochs, expected %d (seq lost or skipped)"
          (List.length chain) epochs;
      List.iteri
        (fun i (e : BC.epoch) ->
          if e.seq <> i then fail "seq %d missing from the final chain" i)
        chain;
      match BC.verify_chain ~key chain with
      | Ok () -> ()
      | Error msg -> fail "final chain does not verify: %s" msg
    in
    let at = ref (-1) in
    try
      fresh_world ();
      let _, points = Beacon_journal.Crash_point.count incarnation in
      final_check ();
      let crashes = ref 0 and torn = ref 0 in
      let k = ref 0 in
      while !k < points do
        at := !k;
        fresh_world ();
        (match Beacon_journal.Crash_point.with_budget !k incarnation with
        | `Completed _ -> ()
        | `Crashed ->
            incr crashes;
            let rs = incarnation () in
            if rs.BC.Durable.torn_bytes > 0 then incr torn);
        final_check ();
        k := !k + stride
      done;
      Ok { points; crashes = !crashes; torn_recoveries = !torn; epochs }
    with
    | Violation msg ->
        Error
          (if !at < 0 then "oracle run: " ^ msg
           else Printf.sprintf "crash point %d: %s" !at msg)
    | Beacon_journal.Corrupt_journal msg ->
        Error (Printf.sprintf "crash point %d: journal corrupt: %s" !at msg)
    | BC.Corrupt_snapshot msg ->
        Error (Printf.sprintf "crash point %d: snapshot corrupt: %s" !at msg)
end
