(* The repository benchmark: three seeded workloads driven through the
   public APIs of [Beacon], [Beacon.Durable] and [Pool], one workload
   per process, on one domain, over the default [Sim] transport.

   Every timing here is taken from this file, at public-call
   boundaries, with the monotonic clock of [bechamel.monotonic_clock].
   Nothing is added inside the library. README.md explains the
   workloads, the metrics and how they relate. *)

module F = Gf2k.GF32
module B = Beacon.Make (F)
module P = B.P

let now () = Int64.to_int (Monotonic_clock.now ())
let nbits = F.k_bits
let threshold = 3
let initial_seed = 6
let strata = 10

(* ------------------------------------------------------------------ *)
(* Seeds and output digests *)

let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

(* Independent sub-seeds of the run's seed: the pool PRNG, the
   arrivals, the restart schedule and each restored pool all derive
   from [--seed] and nothing else. *)
let sub seed k = mix (mix 0x5eed seed) k land 0x3FFF_FFFF

let bits_hash bits =
  let h = ref (Array.length bits) and acc = ref 0 in
  for i = 0 to Array.length bits - 1 do
    acc := (!acc lsl 1) lor Bool.to_int (Array.unsafe_get bits i);
    if i mod 60 = 59 then begin
      h := mix !h !acc;
      acc := 0
    end
  done;
  mix !h !acc

(* ------------------------------------------------------------------ *)
(* Samples live in a growable int Bigarray, outside the OCaml heap, so
   millions of latencies neither box nor show in the heap peak. *)

module Samples = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 4096; n = 0 }
  let length s = s.n
  let clear s = s.n <- 0
  let get s i = Array1.get s.a i

  let push s v =
    if s.n = Array1.dim s.a then begin
      let b = Array1.create int c_layout (2 * s.n) in
      Array1.blit s.a (Array1.sub b 0 s.n);
      s.a <- b
    end;
    Array1.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  let rec select a lo hi k =
    if lo < hi then begin
      let x = a.{lo} and y = a.{(lo + hi) / 2} and z = a.{hi} in
      let pivot = max (min x y) (min (max x y) z) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.{!i} < pivot do
          incr i
        done;
        while a.{!j} > pivot do
          decr j
        done;
        if !i <= !j then begin
          let t = a.{!i} in
          a.{!i} <- a.{!j};
          a.{!j} <- t;
          incr i;
          decr j
        end
      done;
      if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
    end

  (* Nearest-rank quantile of samples [lo, hi); reorders them. *)
  let quantile_range s lo hi q =
    let n = hi - lo in
    if n <= 0 then 0
    else begin
      let k =
        lo + max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1))
      in
      select s.a lo (hi - 1) k;
      s.a.{k}
    end
end

(* ------------------------------------------------------------------ *)
(* Per-layer accumulators, filled only by the traced pass. *)

type acc = {
  mutable admit_ns : int;
  mutable admits : int;
  mutable preack_ns : int;
  mutable preacks : int;
  mutable vend_ns : int;
  mutable vend_gaps : int;
  mutable vend_w : int;
  mutable post_ns : int;
  mutable posts : int;
  mutable prefetch_ns : int;
  mutable prefetches : int;
  mutable refill_draw_ns : int;
  mutable refill_w : int;
  mutable refills : int;
  mutable refill_gen : int;
  mutable refill_seed : int;
  mutable refill_attempts : int;
  mutable expose_ns : int;
  mutable exposes : int;
  mutable expose_w : int;
  mutable snapshot_ns : int;
  mutable snapshots : int;
  mutable snapshot_b : int;
  mutable journal_b : int;
  mutable journal_epochs : int;
  mutable read_ns : int;
  mutable load_ns : int;
  mutable attach_ns : int;
  mutable first_ns : int;
  mutable restarts : int;
  mutable replayed : int;
  mutable debt_draws : int;
  mutable debt_refills : int;
  mutable torn : int;
  spans : (string, int * Metrics.snapshot) Hashtbl.t;
}

let new_acc () =
  {
    admit_ns = 0;
    admits = 0;
    preack_ns = 0;
    preacks = 0;
    vend_ns = 0;
    vend_gaps = 0;
    vend_w = 0;
    post_ns = 0;
    posts = 0;
    prefetch_ns = 0;
    prefetches = 0;
    refill_draw_ns = 0;
    refill_w = 0;
    refills = 0;
    refill_gen = 0;
    refill_seed = 0;
    refill_attempts = 0;
    expose_ns = 0;
    exposes = 0;
    expose_w = 0;
    snapshot_ns = 0;
    snapshots = 0;
    snapshot_b = 0;
    journal_b = 0;
    journal_epochs = 0;
    read_ns = 0;
    load_ns = 0;
    attach_ns = 0;
    first_ns = 0;
    restarts = 0;
    replayed = 0;
    debt_draws = 0;
    debt_refills = 0;
    torn = 0;
    spans = Hashtbl.create 64;
  }

(* Fold a call's spans by name straight away, so memory stays flat. *)
let fold_spans acc tr =
  List.iter
    (fun (s : Trace.span) ->
      let n, m =
        Option.value (Hashtbl.find_opt acc.spans s.name) ~default:(0, Metrics.zero)
      in
      Hashtbl.replace acc.spans s.name (n + 1, Metrics.add m s.metrics))
    (Trace.spans tr)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

(* ------------------------------------------------------------------ *)
(* Cold set-ups. The first set-up in a process fills process-wide state
   (the [Grid] plans and caches that [Shamir] keeps per (n, t)), so
   only that one is cold. A helper process, forked before the workload
   builds anything, forks one fresh child per request; the child times
   one set-up, writes the time to a pipe and exits. *)

module Cold = struct
  type t = { pid : int; req : Unix.file_descr; rsp : in_channel }

  let start (f : unit -> int) =
    flush_all ();
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let rsp_r, rsp_w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close req_w;
        Unix.close rsp_r;
        let report s =
          ignore (Unix.write_substring rsp_w s 0 (String.length s))
        in
        let b = Bytes.create 1 in
        while Unix.read req_r b 0 1 = 1 do
          match Unix.fork () with
          | 0 ->
              report
                (match f () with
                | ns -> Printf.sprintf "%d\n" ns
                | exception _ -> "-1\n");
              Unix._exit 0
          | child -> (
              match Unix.waitpid [] child with
              | _, Unix.WEXITED 0 -> ()
              | _ -> report "-1\n")
        done;
        Unix._exit 0
    | pid ->
        Unix.close req_r;
        Unix.close rsp_w;
        { pid; req = req_w; rsp = Unix.in_channel_of_descr rsp_r }

  (* The time of one cold set-up in ns, or -1 if it failed. *)
  let time t =
    ignore (Unix.write_substring t.req "x" 0 1);
    int_of_string (input_line t.rsp)

  let stop t =
    Unix.close t.req;
    close_in t.rsp;
    ignore (Unix.waitpid [] t.pid)
end

(* ------------------------------------------------------------------ *)
(* One pass over a workload *)

type stop = Deadline of int | Units of int

(* Cold set-ups timed during a [--trace 0] pass, besides the pass's
   own: spread evenly over the service window, so that one burst of
   host contention does not cover them all. *)
let cold_setups = 14

type pass = {
  mutable units : int;  (** epochs (beacon) or draws (pool) served *)
  mutable served : int;  (** closes or draws in normal service *)
  mutable draws : int;  (** fulfilled vends or draw returns, normal service *)
  mutable wall_ns : int;  (** service wall time, restart windows excluded *)
  mutable paused_ns : int;
  mutable paused_minor : int;
  mutable paused_major : int;
  mutable setups : int list;  (** set-up times, ns *)
  cold : Cold.t option;
  mutable cold_due : int list;  (** when the next cold set-ups fall due *)
  lat : Samples.t;
  recover : Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable gates : string list;  (** the first failed gates, newest first *)
  mutable gate_failures : int;
  mutable digest : int;
  mutable epochs : int;
  mutable refills : int;
  mutable journal_bytes : int;
  mutable alloc : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  cycle_ends : Samples.t;
      (** draws, service wall time and latency samples at the end of
          each whole refill cycle, three entries per cycle *)
  acc : acc option;
}

let new_pass ?cold ~traced () =
  {
    units = 0;
    served = 0;
    draws = 0;
    wall_ns = 0;
    paused_ns = 0;
    paused_minor = 0;
    paused_major = 0;
    setups = [];
    cold;
    cold_due = [];
    lat = Samples.create ();
    recover = Samples.create ();
    attempted = 0;
    failed = 0;
    gates = [];
    gate_failures = 0;
    digest = 0;
    epochs = 0;
    refills = 0;
    journal_bytes = 0;
    alloc = 0;
    minor_gcs = 0;
    major_gcs = 0;
    cycle_ends = Samples.create ();
    acc = (if traced then Some (new_acc ()) else None);
  }

let gate p ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        p.gate_failures <- p.gate_failures + 1;
        if p.gate_failures <= 20 then p.gates <- msg :: p.gates
      end)
    fmt

(* Run [f] outside the service window: its wall time and the
   collections during it are left out of the service figures. *)
let paused p f =
  let t0 = now () and g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  p.paused_ns <- p.paused_ns + (now () - t0);
  p.paused_minor <-
    p.paused_minor + (g1.minor_collections - g0.minor_collections);
  p.paused_major <-
    p.paused_major + (g1.major_collections - g0.major_collections);
  r

(* Whether service goes on. Between two units of service, a cold
   set-up that has fallen due is timed, outside the service window. *)
let running p stop =
  (match (p.cold, p.cold_due) with
  | Some h, t :: rest when now () >= t ->
      p.cold_due <- rest;
      let ns = paused p (fun () -> Cold.time h) in
      gate p (ns > 0) "a cold set-up failed";
      p.setups <- ns :: p.setups
  | _ -> ());
  match stop with Deadline t -> now () < t | Units n -> p.units < n

(* Restart points are stratified over the pool's stock, ten strata per
   block from the top down, with a small seeded offset inside each
   stratum: a restart's cost grows with the stock it reloads, and
   stratifying makes the median over a run's restarts repeat across
   seeds. A
   restart is due once [gap] units have passed since the last one and
   the stock, which falls by exactly one per unit between refills,
   reaches the target. *)
type schedule = {
  g : Prng.t;
  lo : int;
  hi : int;
  gap : int;
  mutable idx : int;
  mutable since : int;
  mutable target : int;
}

let pick_target s =
  let width = float (s.hi - s.lo) /. float strata in
  let u = float (Prng.bits s.g 30) /. float (1 lsl 30) in
  s.target <-
    s.hi - int_of_float ((float (s.idx mod strata) +. (0.1 *. u)) *. width)

let new_schedule ~seed ~lo ~hi ~gap =
  let s =
    { g = Prng.of_int (sub seed 3); lo; hi; gap; idx = 0; since = 0; target = 0 }
  in
  pick_target s;
  s

let due s ~stock = s.since >= s.gap && stock = s.target

let advance s =
  s.idx <- s.idx + 1;
  s.since <- 0;
  pick_target s

let sentinel = Some Sentinel.passive

(* ------------------------------------------------------------------ *)
(* The beacon consumer: admission timestamps, per-callback checks and
   the output digest. Callbacks fire in admission order, so the i-th
   callback of a close belongs to the i-th admitted request. *)

type consumer = {
  starts : int array;
  ids : int array;
  mutable admitted : int;
  mutable fired : int;
  mutable first_cb : int;
  mutable last_cb : int;
  mutable first_w : int;
  mutable last_w : int;
  mutable record : bool;
  mutable traced : bool;
  mutable bad : int;
  mutable digest : int;
  lat : Samples.t;
  (* Requests acknowledged since the last snapshot: the durable
     beacon's dedup window, kept as the client's own books. *)
  mutable booking : bool;
  book_id : Samples.t;
  book_epoch : Samples.t;
  book_bits : Samples.t;
}

let on_vend c (f : B.fulfillment) =
  let t = now () in
  let i = c.fired in
  let h = bits_hash f.bits in
  if i < c.admitted && f.request_id = c.ids.(i) && Array.length f.bits = nbits
  then begin
    if c.record then Samples.push c.lat (t - c.starts.(i))
  end
  else c.bad <- c.bad + 1;
  c.digest <- mix (mix (mix c.digest f.request_id) f.epoch) h;
  if c.booking then begin
    Samples.push c.book_id f.request_id;
    Samples.push c.book_epoch f.epoch;
    Samples.push c.book_bits h
  end;
  if i = 0 then c.first_cb <- t;
  c.last_cb <- t;
  if c.traced then begin
    let w = int_of_float (Gc.minor_words ()) in
    if i = 0 then c.first_w <- w;
    c.last_w <- w
  end;
  c.fired <- i + 1

let new_consumer (p : pass) =
  {
    starts = Array.make 4096 0;
    ids = Array.make 4096 0;
    admitted = 0;
    fired = 0;
    first_cb = 0;
    last_cb = 0;
    first_w = 0;
    last_w = 0;
    record = false;
    traced = false;
    bad = 0;
    digest = 0;
    lat = p.lat;
    booking = false;
    book_id = Samples.create ();
    book_epoch = Samples.create ();
    book_bits = Samples.create ();
  }

let clear_book c =
  Samples.clear c.book_id;
  Samples.clear c.book_epoch;
  Samples.clear c.book_bits


(* Pool counters consumed by the refills of one call. *)
let note_refills (a : acc) (s0 : P.stats) (s1 : P.stats) =
  a.refills <- a.refills + (s1.refills - s0.refills);
  a.refill_gen <- a.refill_gen + (s1.generated_coins - s0.generated_coins);
  a.refill_seed <-
    a.refill_seed + (s1.seed_coins_consumed - s0.seed_coins_consumed);
  a.refill_attempts <-
    a.refill_attempts + (s1.refill_attempts - s0.refill_attempts)

(* Admit [k] requests through [req], timestamping each call. *)
let admit p c ~acc ~req k =
  c.admitted <- 0;
  c.fired <- 0;
  for _ = 1 to k do
    let t0 = now () in
    (match req () with
    | Ok id ->
        c.starts.(c.admitted) <- t0;
        c.ids.(c.admitted) <- id;
        c.admitted <- c.admitted + 1
    | Error _ -> p.failed <- p.failed + 1);
    match acc with
    | Some a ->
        a.admit_ns <- a.admit_ns + (now () - t0);
        a.admits <- a.admits + 1
    | None -> ()
  done;
  p.attempted <- p.attempted + k

(* Run one epoch close and account for it: every admitted request must
   have had exactly one callback. Under [acc] the close runs inside a
   trace collector and is cut at the timestamps into pre-ack (entry to
   first callback: exposure, seal and, when durable, the journal
   append), vends (first to last callback) and the tail (last callback
   to return), which is a refill when the pool's refill count rose. *)
let run_close p c ~acc ~pool close =
  let s0 = P.stats pool in
  let r =
    match acc with
    | None -> close ()
    | Some a ->
        let w0 = alloc_words () in
        let tc0 = now () in
        let r, tr = Trace.collect close in
        let tc1 = now () in
        let w1 = alloc_words () in
        fold_spans a tr;
        let s1 = P.stats pool in
        let tail_start = if c.fired > 0 then c.last_cb else tc0 in
        if c.fired > 0 then begin
          a.preack_ns <- a.preack_ns + (c.first_cb - tc0);
          a.preacks <- a.preacks + 1;
          a.vend_ns <- a.vend_ns + (c.last_cb - c.first_cb);
          a.vend_gaps <- a.vend_gaps + (c.fired - 1);
          a.vend_w <- a.vend_w + (c.last_w - c.first_w)
        end;
        if s1.refills > s0.refills then begin
          a.prefetch_ns <- a.prefetch_ns + (tc1 - tail_start);
          a.prefetches <- a.prefetches + 1;
          a.refill_w <- a.refill_w + (w1 - w0);
          note_refills a s0 s1
        end
        else if c.fired > 0 then begin
          a.post_ns <- a.post_ns + (tc1 - c.last_cb);
          a.posts <- a.posts + 1
        end
        else begin
          a.preack_ns <- a.preack_ns + (tc1 - tc0);
          a.preacks <- a.preacks + 1
        end;
        r
  in
  p.refills <- p.refills + ((P.stats pool).refills - s0.refills);
  if c.fired <> c.admitted || c.bad > 0 then begin
    p.failed <- p.failed + (c.admitted - min c.fired c.admitted) + c.bad;
    gate p false "epoch close: %d admitted, %d callbacks, %d malformed"
      c.admitted c.fired c.bad;
    c.bad <- 0
  end;
  (match r with
  | Ok (e : B.epoch) ->
      p.epochs <- p.epochs + 1;
      p.digest <- mix p.digest (F.repr e.coin)
  | Error msg ->
      p.failed <- p.failed + 1;
      gate p false "epoch close failed: %s" msg);
  r

(* The stitched chain: each incarnation's epochs must continue the last
   acknowledged epoch of the one before, and the first must start at
   epoch 0. Returns the new last acknowledged epoch. *)
let check_chain p ~last chain =
  (match (last, chain) with
  | None, (e : B.epoch) :: _ -> gate p (e.seq = 0) "chain starts at %d" e.seq
  | _ -> ());
  let slice = match last with Some e -> e :: chain | None -> chain in
  (match B.verify_chain slice with
  | Ok () -> ()
  | Error msg -> gate p false "chain does not verify: %s" msg);
  match List.rev chain with e :: _ -> Some e | [] -> last

(* A restarted process starts with an empty heap. The crashed
   incarnation's garbage is collected before the restart is timed, so
   the load does not pay that instance's GC debt. *)
let fresh_heap () = Gc.full_major ()

(* The pass's own set-up, the first of its process and so cold. *)
let setup p f =
  let t0 = now () in
  let r = f () in
  p.setups <- (now () - t0) :: p.setups;
  r

let start_service p stop =
  let g = Gc.quick_stat () in
  p.minor_gcs <- g.minor_collections;
  p.major_gcs <- g.major_collections;
  let t = now () in
  (match stop with
  | Deadline d when p.cold <> None ->
      p.cold_due <-
        List.init cold_setups (fun i ->
            t + ((2 * i) + 1) * (d - t) / (2 * cold_setups))
  | _ -> ());
  t

(* The end-to-end figures cover whole refill cycles: per-request cost
   grows with the pool's stock, so a run that stopped part-way through
   a cycle would weight some stock levels more than others. A cycle
   ends with the call that completed a refill. *)
let served p ~t_start ~refills =
  if p.refills > refills then begin
    Samples.push p.cycle_ends p.draws;
    Samples.push p.cycle_ends (now () - t_start - p.paused_ns);
    Samples.push p.cycle_ends (Samples.length p.lat)
  end

let end_service p t_start =
  p.wall_ns <- now () - t_start - p.paused_ns;
  let g = Gc.quick_stat () in
  p.minor_gcs <- g.minor_collections - p.minor_gcs - p.paused_minor;
  p.major_gcs <- g.major_collections - p.major_gcs - p.paused_major

(* ------------------------------------------------------------------ *)
(* vend-burst: the in-memory beacon at n=7, t=1, M=1024 under bursty
   arrivals of mean 1000 per epoch. *)

let beacon_pool ~seed =
  P.create ~sentinel ~prng:(Prng.of_int (sub seed 1)) ~n:7 ~t:1
    ~batch_size:1024 ~refill_threshold:threshold ~initial_seed ()

let load_beacon ~seed ~units bytes =
  B.load ~sentinel
    ~prng:(Prng.of_int (sub seed (1000 + units)))
    ~batch_size:1024 ~refill_threshold:threshold bytes

(* [b] is [None] only while a restart drops the old instance. *)
type vb = { mutable b : B.t option; arr : B.Arrival.t }

let vb_beacon vb = Option.get vb.b

let vb_epoch p c ~acc vb k =
  let b = vb_beacon vb in
  admit p c ~acc ~req:(fun () -> B.request b ~callback:(on_vend c) ()) k;
  ignore (run_close p c ~acc ~pool:(B.pool b) (fun () -> B.close_epoch b))

let vb_setup ~seed p c =
  let vb =
    {
      b = Some (B.create ~pool:(beacon_pool ~seed) ());
      arr = B.Arrival.bursty ~rate:1000. ~seed:(sub seed 2) ();
    }
  in
  while (P.stats (B.pool (vb_beacon vb))).refills < 1 do
    vb_epoch p c ~acc:None vb (B.Arrival.next vb.arr)
  done;
  vb

(* A restart of the in-memory beacon from its own snapshot, as
   [dprbg beacon] restarts from its state file: load, then serve the
   next request. Recovery time runs from the start of [Beacon.load] to
   that request's callback. *)
let vb_restart p c vb ~last ~seed =
  let old = vb_beacon vb in
  let last = check_chain p ~last (B.chain old) in
  let bytes = B.save old in
  let seq = B.next_seq old and head = B.head old in
  vb.b <- None;
  fresh_heap ();
  let t0 = now () in
  let b = load_beacon ~seed ~units:p.units bytes in
  let t1 = now () in
  gate p
    (B.next_seq b = seq && Beacon_hash.equal (B.head b) head)
    "restored beacon does not resume at the old head";
  vb.b <- Some b;
  c.record <- false;
  vb_epoch p c ~acc:None vb 1;
  c.record <- true;
  Samples.push p.recover (c.first_cb - t0);
  (match p.acc with
  | Some a ->
      a.restarts <- a.restarts + 1;
      a.load_ns <- a.load_ns + (t1 - t0);
      a.first_ns <- a.first_ns + (c.first_cb - t1)
  | None -> ());
  last

let run_vend_burst ~seed p c stop =
  let vb = setup p (fun () -> vb_setup ~seed p c) in
  let sched = new_schedule ~seed ~lo:20 ~hi:1000 ~gap:0 in
  let last = ref None in
  c.record <- true;
  c.traced <- p.acc <> None;
  let t_start = start_service p stop in
  while running p stop do
    let before = p.draws and refills = p.refills in
    vb_epoch p c ~acc:p.acc vb (B.Arrival.next vb.arr);
    p.draws <- before + c.fired;
    p.served <- p.served + 1;
    served p ~t_start ~refills;
    p.units <- p.units + 1;
    sched.since <- sched.since + 1;
    if due sched ~stock:(P.available (B.pool (vb_beacon vb))) then begin
      last := paused p (fun () -> vb_restart p c vb ~last:!last ~seed);
      advance sched
    end
  done;
  end_service p t_start;
  let b = vb_beacon vb in
  ignore (check_chain p ~last:!last (B.chain b));
  p.digest <- mix (mix p.digest c.digest) (Hashtbl.hash (Beacon_hash.to_hex (B.head b)))

(* ------------------------------------------------------------------ *)
(* durable-crash: the same beacon behind the write-ahead journal, under
   Poisson(4) arrivals, with snapshot rotation and seeded crashes.

   The journal keeps its production code path (encode, CRC, write(2),
   rename) under [Flush_only]: the files live in the benchmark's
   checkout, on the machine's disk, where an fsync measures the
   hypervisor rather than the program. Bytes written are counted. *)

let sync = Beacon_journal.Flush_only
let rotate_every = 300

type dc = {
  journal : string;
  snap : string;
  arr : B.Arrival.t;
  mutable d : B.Durable.d option;  (** [None] only inside a crash *)
  mutable base : int;  (** framed bytes of a record acking no request *)
  mutable since_snap : int;
}

let dc_d dc = Option.get dc.d

let dc_close p c ~acc dc =
  let d = dc_d dc in
  let bytes = ref 0 in
  let r =
    run_close p c ~acc
      ~pool:(B.pool (B.Durable.beacon d))
      (fun () ->
        let r, n = Beacon_journal.Crash_point.count (fun () -> B.Durable.close_epoch d) in
        bytes := n;
        r)
  in
  p.journal_bytes <- p.journal_bytes + !bytes;
  if c.fired = c.admitted then dc.base <- !bytes - (8 * c.fired);
  (match acc with
  | Some a ->
      a.journal_b <- a.journal_b + !bytes;
      a.journal_epochs <- a.journal_epochs + 1
  | None -> ());
  r

let dc_epoch p c ~acc dc k =
  let d = dc_d dc in
  admit p c ~acc ~req:(fun () -> B.Durable.request d ~callback:(on_vend c) ()) k;
  ignore (dc_close p c ~acc dc)

let dc_snapshot p c dc =
  let t0 = now () in
  let (), bytes =
    Beacon_journal.Crash_point.count (fun () -> B.Durable.snapshot (dc_d dc))
  in
  let t1 = now () in
  p.journal_bytes <- p.journal_bytes + bytes;
  clear_book c;
  dc.since_snap <- 0;
  match p.acc with
  | Some a ->
      a.snapshot_ns <- a.snapshot_ns + (t1 - t0);
      a.snapshots <- a.snapshots + 1;
      a.snapshot_b <- a.snapshot_b + (Unix.stat dc.snap).Unix.st_size
  | None -> ()

let dc_setup ~seed ~dir p c =
  let journal = Filename.concat dir "beacon.journal" in
  let snap = Filename.concat dir "beacon.snap" in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ journal; journal ^ ".tmp"; snap; snap ^ ".tmp" ];
  let b = B.create ~pool:(beacon_pool ~seed) () in
  let d, _ = B.Durable.attach ~journal ~snapshot:snap ~sync b in
  let dc =
    {
      journal;
      snap;
      arr = B.Arrival.poisson ~rate:4. ~seed:(sub seed 2);
      d = Some d;
      base = 0;
      since_snap = 0;
    }
  in
  while (P.stats (B.pool b)).refills < 1 do
    dc_epoch p c ~acc:None dc (B.Arrival.next dc.arr)
  done;
  dc

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.of_string (In_channel.input_all ic))

(* Crash the durable beacon and recover it. A crash between closes
   abandons the instance after [Durable.close], which only releases the
   descriptor. A crash mid-append kills the next close at a seeded byte
   offset inside its journal record: its requests were never
   acknowledged, so the client resubmits them under their own ids
   after recovery. Recovery is [Beacon.load] of the snapshot plus
   [Durable.attach] (torn-tail truncation and journal replay), then
   the next request; its time runs from the start of the load to the
   first callback. Afterwards a seeded sample of acknowledged ids still
   in the dedup window is resubmitted and must replay its bits. *)
let dc_crash p c dc ~g ~mid_append ~last ~seed =
  let old = B.Durable.beacon (dc_d dc) in
  let lost, torn_at =
    if mid_append then begin
      let d = dc_d dc in
      admit p c ~acc:None
        ~req:(fun () -> B.Durable.request d ~callback:(on_vend c) ())
        (B.Arrival.next dc.arr);
      let reclen = dc.base + (8 * c.admitted) in
      let off = 1 + Prng.int g (reclen - 1) in
      (match
         Beacon_journal.Crash_point.with_budget off (fun () ->
             B.Durable.close_epoch d)
       with
      | `Crashed -> ()
      | `Completed _ -> gate p false "close survived a crash at byte %d" off);
      p.journal_bytes <- p.journal_bytes + off;
      (Array.sub c.ids 0 c.admitted, off)
    end
    else ([||], 0)
  in
  B.Durable.close (dc_d dc);
  dc.d <- None;
  let old_chain = B.chain old in
  let last = check_chain p ~last old_chain in
  (match p.acc with
  | Some a ->
      let t = now () in
      let r = Beacon_journal.recover dc.journal in
      a.read_ns <- a.read_ns + (now () - t);
      gate p (r.torn_bytes = torn_at) "journal read found %d torn bytes, not %d"
        r.torn_bytes torn_at
  | None -> ());
  fresh_heap ();
  let t0 = now () in
  let b = load_beacon ~seed ~units:p.units (read_file dc.snap) in
  let t1 = now () in
  let s_load = P.stats (B.pool b) in
  let d, rs = B.Durable.attach ~journal:dc.journal ~snapshot:dc.snap ~sync b in
  let t2 = now () in
  let s_attach = P.stats (B.pool b) in
  dc.d <- Some d;
  (match last with
  | Some (e : B.epoch) ->
      gate p
        (B.next_seq b = e.seq + 1 && Beacon_hash.equal (B.head b) e.digest)
        "recovered at seq %d, last acknowledged epoch is %d" (B.next_seq b)
        e.seq
  | None -> ());
  gate p (rs.torn_bytes = torn_at) "recovery dropped %d torn bytes, not %d"
    rs.torn_bytes torn_at;
  (* The replayed epochs are the ones acknowledged since the snapshot:
     the tail of the crashed instance's chain, digest for digest. *)
  let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
  let n_old = List.length old_chain and n_rep = List.length rs.replayed in
  if n_rep > n_old then gate p false "replayed %d epochs of %d" n_rep n_old
  else
    List.iter2
      (fun (o : B.epoch) (e : B.epoch) ->
        gate p
          (o.seq = e.seq && Beacon_hash.equal o.digest e.digest)
          "replayed epoch %d differs from the acknowledged one" e.seq)
      (drop (n_old - n_rep) old_chain)
      rs.replayed;
  c.record <- false;
  let next = ref 0 in
  admit p c ~acc:None
    ~req:(fun () ->
      let i = !next in
      incr next;
      if i < Array.length lost then
        B.Durable.request d ~id:lost.(i) ~callback:(on_vend c) ()
      else B.Durable.request d ~callback:(on_vend c) ())
    (Array.length lost + 1);
  p.attempted <- p.attempted - Array.length lost;
  ignore (dc_close p c ~acc:None dc);
  c.record <- true;
  Samples.push p.recover (c.first_cb - t0);
  let window = Samples.length c.book_id in
  for _ = 1 to min 3 window do
    let j = Prng.int g window in
    let id = Samples.get c.book_id j in
    let epoch = Samples.get c.book_epoch j and h = Samples.get c.book_bits j in
    let got = ref None in
    ignore (B.Durable.request d ~id ~callback:(fun f -> got := Some f) ());
    match !got with
    | Some f when f.epoch = epoch && bits_hash f.bits = h -> ()
    | _ -> gate p false "resubmitted id %d did not replay its bits" id
  done;
  (match p.acc with
  | Some a ->
      a.restarts <- a.restarts + 1;
      a.load_ns <- a.load_ns + (t1 - t0);
      a.attach_ns <- a.attach_ns + (t2 - t1);
      a.first_ns <- a.first_ns + (c.first_cb - t2);
      a.replayed <- a.replayed + List.length rs.replayed;
      a.debt_draws <-
        a.debt_draws + (s_attach.coins_exposed - s_load.coins_exposed);
      a.debt_refills <- a.debt_refills + (s_attach.refills - s_load.refills);
      a.torn <- a.torn + rs.torn_bytes
  | None -> ());
  last

(* Each crash follows a snapshot taken [replay] epochs earlier, so
   recovery replays exactly that many journal records; the replay
   length is stratified like the stock, with a fixed pairing, and the
   crash kind alternates. Targets stay above the refill watermark plus
   the replay, so no replay crosses a refill: one that did would add a
   whole Coin-Gen run to a single recovery. *)
let run_durable_crash ~seed ~dir p c stop =
  let dc = setup p (fun () -> dc_setup ~seed ~dir p c) in
  let sched = new_schedule ~seed ~lo:20 ~hi:900 ~gap:2500 in
  let replay_for s =
    let u = float (Prng.bits s.g 30) /. float (1 lsl 30) in
    int_of_float ((float (3 * s.idx mod strata) +. (0.5 *. u)) *. 10.)
  in
  let replay = ref (replay_for sched) in
  let pending = ref (-1) in
  let last = ref None in
  let phase = Prng.int sched.g 2 in
  let crash ~mid_append =
    last :=
      paused p (fun () ->
          dc_crash p c dc ~g:sched.g ~mid_append ~last:!last ~seed);
    pending := -1;
    advance sched;
    replay := replay_for sched
  in
  c.record <- true;
  c.booking <- true;
  c.traced <- p.acc <> None;
  let t_start = start_service p stop in
  while running p stop do
    let mid_append = (sched.idx + phase) land 1 = 1 in
    if !pending = 0 then begin
      crash ~mid_append;
      p.units <- p.units + 1
    end
    else begin
      let before = p.draws and refills = p.refills in
      dc_epoch p c ~acc:p.acc dc (B.Arrival.next dc.arr);
      p.draws <- before + c.fired;
      p.served <- p.served + 1;
      served p ~t_start ~refills;
      p.units <- p.units + 1;
      sched.since <- sched.since + 1;
      dc.since_snap <- dc.since_snap + 1;
      if !pending > 0 then decr pending;
      let stock = P.available (B.pool (B.Durable.beacon (dc_d dc))) in
      if
        !pending < 0 && sched.since >= sched.gap
        && stock = sched.target + !replay
      then begin
        dc_snapshot p c dc;
        pending := !replay
      end
      else if !pending < 0 && dc.since_snap >= rotate_every then
        dc_snapshot p c dc;
      if !pending = 0 && not mid_append then crash ~mid_append
    end
  done;
  end_service p t_start;
  let b = B.Durable.beacon (dc_d dc) in
  ignore (check_chain p ~last:!last (B.chain b));
  B.Durable.close (dc_d dc);
  p.digest <- mix (mix p.digest c.digest) (Hashtbl.hash (Beacon_hash.to_hex (B.head b)))

(* ------------------------------------------------------------------ *)
(* pool-refill: [Pool.draw_kary] in a closed loop at n=13, t=2, M=32,
   the pool that [dprbg beacon] and [dprbg loadgen] ship with; refills
   run inline, inside the draw that finds the pool at its watermark. *)

let refill_pool ~seed =
  P.create ~sentinel ~prng:(Prng.of_int (sub seed 1)) ~n:13 ~t:2
    ~batch_size:32 ~refill_threshold:threshold ~initial_seed ()

let pr_draw (p : pass) ~acc pool =
  let s0 = P.stats pool in
  let v =
    match acc with
    | None ->
        let t0 = now () in
        let v = P.draw_kary pool in
        Samples.push p.lat (now () - t0);
        v
    | Some a ->
        let w0 = alloc_words () in
        let t0 = now () in
        let v, tr = Trace.collect (fun () -> P.draw_kary pool) in
        let t1 = now () in
        let w1 = alloc_words () in
        Samples.push p.lat (t1 - t0);
        fold_spans a tr;
        let s1 = P.stats pool in
        if s1.refills > s0.refills then begin
          a.refill_draw_ns <- a.refill_draw_ns + (t1 - t0);
          a.refill_w <- a.refill_w + (w1 - w0);
          note_refills a s0 s1
        end
        else begin
          a.expose_ns <- a.expose_ns + (t1 - t0);
          a.exposes <- a.exposes + 1;
          a.expose_w <- a.expose_w + (w1 - w0)
        end;
        v
  in
  p.refills <- p.refills + ((P.stats pool).refills - s0.refills);
  p.digest <- mix p.digest (F.repr v)

let pr_setup ~seed p =
  let pool = refill_pool ~seed in
  while (P.stats pool).refills < 1 do
    pr_draw p ~acc:None pool;
    p.attempted <- p.attempted + 1
  done;
  pool

(* A restart from the pool's own snapshot, as [dprbg pool] restarts from
   its state file: load, then the next draw. *)
let pr_restart p pool ~seed =
  let bytes = P.save pool in
  fresh_heap ();
  let t1 = now () in
  let restored =
    P.load ~sentinel
      ~prng:(Prng.of_int (sub seed (1000 + p.units)))
      ~batch_size:32 ~refill_threshold:threshold bytes
  in
  let t2 = now () in
  let v = P.draw_kary restored in
  let t3 = now () in
  p.digest <- mix p.digest (F.repr v);
  Samples.push p.recover (t3 - t1);
  (match p.acc with
  | Some a ->
      a.restarts <- a.restarts + 1;
      a.load_ns <- a.load_ns + (t2 - t1);
      a.first_ns <- a.first_ns + (t3 - t2)
  | None -> ());
  restored

let run_pool_refill ~seed (p : pass) stop =
  let pool = setup p (fun () -> pr_setup ~seed p) in
  Samples.clear p.lat;
  let pool = ref pool in
  let sched = new_schedule ~seed ~lo:5 ~hi:32 ~gap:60 in
  let t_start = start_service p stop in
  (try
     while running p stop do
       p.attempted <- p.attempted + 1;
       p.units <- p.units + 1;
       sched.since <- sched.since + 1;
       if due sched ~stock:(P.available !pool) then begin
         pool := paused p (fun () -> pr_restart p !pool ~seed);
         advance sched
       end
       else begin
         let refills = p.refills in
         pr_draw p ~acc:p.acc !pool;
         p.draws <- p.draws + 1;
         p.served <- p.served + 1;
         served p ~t_start ~refills
       end
     done
   with
  | P.Starved msg ->
      p.failed <- p.failed + 1;
      gate p false "pool starved: %s" msg
  | P.Safe_mode msg ->
      p.failed <- p.failed + 1;
      gate p false "pool in safe mode: %s" msg);
  end_service p t_start;
  let s = P.stats !pool in
  gate p (s.unanimity_failures = 0) "%d unanimity failures" s.unanimity_failures

(* ------------------------------------------------------------------ *)
(* Metrics and the command line *)

let workloads = [ "vend-burst"; "durable-crash"; "pool-refill" ]

let run_pass w ~seed ~dir ?cold ~traced stop =
  let p = new_pass ?cold ~traced () in
  let c = new_consumer p in
  let a0 = alloc_words () in
  (match w with
  | "vend-burst" -> run_vend_burst ~seed p c stop
  | "durable-crash" -> run_durable_crash ~seed ~dir p c stop
  | _ -> run_pool_refill ~seed p stop);
  p.alloc <- alloc_words () - a0;
  p.gates <- List.rev p.gates;
  p

(* One set-up of workload [w], timed like a pass's own, for a child of
   the [Cold] helper. A durable set-up gets a journal directory of its
   own, apart from the pass's. *)
let cold_setup w ~seed ~dir () =
  let p = new_pass ~traced:false () in
  let c = new_consumer p in
  let t0 = now () in
  (match w with
  | "vend-burst" -> ignore (vb_setup ~seed p c)
  | "durable-crash" -> ignore (dc_setup ~seed ~dir p c)
  | _ -> ignore (pr_setup ~seed p));
  now () - t0

let ratio a b = if b = 0 then 0. else float a /. float b

type metric = { name : string; value : float; unit : string; note : string }

let m ?(note = "") name value unit = { name; value; unit; note }

(* The service window is cut at the ends of refill cycles into slices
   of at least [min] latency samples each, counted from the previous
   cut, and at most about [max_slices] of them; samples after the last
   cut are left out, so every slice covers whole cycles. A window too
   short for one slice is taken whole. Each slice is a (draws, wall
   time, first sample, end sample) tuple. *)
let max_slices = 40

let slices (p : pass) ~min =
  let cycles = Samples.length p.cycle_ends / 3 in
  let at j k = Samples.get p.cycle_ends ((3 * j) + k) in
  let size =
    if cycles = 0 then 0 else Stdlib.max min (at (cycles - 1) 2 / max_slices)
  in
  let cut = ref (0, 0, 0) and acc = ref [] in
  for j = 0 to cycles - 1 do
    let d0, w0, s0 = !cut in
    if at j 2 - s0 >= size then begin
      acc := (at j 0 - d0, at j 1 - w0, s0, at j 2) :: !acc;
      cut := (at j 0, at j 1, at j 2)
    end
  done;
  match !acc with
  | [] -> [ (p.draws, p.wall_ns, 0, Samples.length p.lat) ]
  | l -> List.rev l

(* A percentile q is taken over slices of at least 10 / (1 - q)
   samples, so that every slice has at least 10 samples beyond it:
   20 for the median, 1000 for p99. *)
let p50_slice = 20
let p99_slice = 1000
let beyond q n = n - int_of_float (Float.ceil (q *. float n))

(* Nearest-rank, like [Samples.quantile_range]. *)
let quantile_float q l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let k = int_of_float (Float.ceil (q *. float n)) - 1 in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) k))

let median = quantile_float 0.5
let mean l = List.fold_left ( +. ) 0. l /. float (List.length l)

(* Draws per second of service time, over the whole refill cycles the
   window completed. *)
let throughput (p : pass) =
  let cycles = Samples.length p.cycle_ends / 3 in
  if cycles = 0 then ratio p.draws p.wall_ns *. 1e9
  else begin
    let at k = Samples.get p.cycle_ends ((3 * (cycles - 1)) + k) in
    ratio (at 0) (at 1) *. 1e9
  end

(* Recovery samples come in blocks of [strata] restarts, the i-th in
   stratum i mod [strata]. The figure is the mean over the strata of
   each stratum's median over complete blocks: every stratum weighs the
   same, and a restart that a burst of contention hit moves only its
   own stratum's median. A median over all restarts would sit at the
   border between two strata and jump between them. Returns the
   restarts used, the per-stratum medians and the figure, in ms. *)
let recover_ms (p : pass) =
  let n = Samples.length p.recover in
  let ms i = float (Samples.get p.recover i) /. 1e6 in
  let blocks = n / strata in
  if blocks = 0 then (n, [], if n = 0 then 0. else median (List.init n ms))
  else begin
    let meds =
      List.init strata (fun k ->
          median (List.init blocks (fun b -> ms ((b * strata) + k))))
    in
    (blocks * strata, meds, mean meds)
  end

(* Host contention comes in bursts that slow the program by up to about
   1.5x, so the slices of a run fall into a quiet and a busy mode.
   [latency_p50_us] is the mean over its slices of each slice's median:
   no slice's median is off by more than that factor, and the mean moves
   in proportion to the busy share of the run, where a median over the
   slices would jump from one mode to the other. One burst can set a
   slice's p99, so [latency_p99_us] is the median over its slices. Every
   slice is printed with its sample count, and every one must have at
   least 10 samples beyond its percentile. *)
let end_to_end (p : pass) ~units_mode =
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  let per_slice q ~min =
    List.map
      (fun (d, w, lo, hi) ->
        let n = hi - lo in
        let v = float (Samples.quantile_range p.lat lo hi q) /. 1e3 in
        Printf.printf
          "slice q=%g draws_per_s=%.1f latency_us=%.3f samples=%d beyond=%d\n"
          q (ratio d w *. 1e9) v n (beyond q n);
        (v, n, beyond q n))
      (slices p ~min)
  in
  let pct q ~min ~over =
    let sl = per_slice q ~min in
    let n = List.fold_left (fun acc (_, k, _) -> acc + k) 0 sl in
    let least =
      List.fold_left (fun acc (_, _, b) -> Stdlib.min acc b) max_int sl
    in
    if not units_mode then
      gate p (least >= 10)
        "a slice has %d samples beyond its p%g, fewer than 10" least
        (100. *. q);
    ( over (List.map (fun (v, _, _) -> v) sl),
      Printf.sprintf "samples=%d slices=%d least-beyond=%d" n (List.length sl)
        least )
  in
  let p50, p50_note = pct 0.5 ~min:p50_slice ~over:mean in
  let p99, p99_note = pct 0.99 ~min:p99_slice ~over:median in
  let recovered, strata_ms, recover = recover_ms p in
  Printf.printf "strata recover_ms=%s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") strata_ms));
  [
    m "draws_per_s" (throughput p) "1/s";
    m "latency_p50_us" p50 "us" ~note:p50_note;
    m "latency_p99_us" p99 "us" ~note:p99_note;
    m "recover_ms" recover "ms"
      ~note:
        (Printf.sprintf "mean of stratum medians, restarts=%d of %d" recovered
           (Samples.length p.recover));
    m "setup_s"
      (median (List.map float p.setups) /. 1e9)
      "s"
      ~note:(Printf.sprintf "median of cold setups=%d" (List.length p.setups));
    m "heap_peak_mb" (float heap /. 1e6) "MB";
  ]

let span_sum (a : acc) name field =
  match Hashtbl.find_opt a.spans name with
  | Some (count, s) -> (count, field s)
  | None -> (0, 0)

let per_layer (p : pass) (a : acc) ~untraced_dps =
  let per_refill name field = ratio (snd (span_sum a name field)) a.refills in
  let expose_n, _ = span_sum a "coin-expose" (fun s -> s.Metrics.field_mults) in
  let per_expose field = ratio (snd (span_sum a "coin-expose" field)) expose_n in
  let wall = p.wall_ns in
  let share ns = 100. *. ratio ns wall in
  let refill_ns = a.prefetch_ns + a.refill_draw_ns in
  let covered =
    a.admit_ns + a.preack_ns + a.vend_ns + a.post_ns + refill_ns + a.expose_ns
    + a.snapshot_ns
  in
  let dps = throughput p in
  let kdraws = float p.draws /. 1e3 in
  let per_kdraw n = if kdraws = 0. then 0. else float n /. kdraws in
  [
    m "beacon.admit_ns" (ratio a.admit_ns a.admits) "ns";
    m "beacon.vend_ns" (ratio a.vend_ns a.vend_gaps) "ns";
    m "beacon.alloc_w_per_vend" (ratio a.vend_w a.vend_gaps) "words";
    m "beacon.preack_us" (ratio a.preack_ns a.preacks /. 1e3) "us";
    m "beacon.post_us" (ratio a.post_ns a.posts /. 1e3) "us";
    m "beacon.prefetch_ms" (ratio a.prefetch_ns a.prefetches /. 1e6) "ms";
    m "beacon.vends_per_epoch"
      (if p.epochs = 0 then 0. else ratio p.draws p.served)
      "count";
    m "journal.bytes_per_epoch" (ratio a.journal_b a.journal_epochs) "B";
    m "journal.snapshot_ms" (ratio a.snapshot_ns a.snapshots /. 1e6) "ms";
    m "journal.snapshot_kb" (ratio a.snapshot_b a.snapshots /. 1024.) "KB";
    m "journal.read_ms" (ratio a.read_ns a.restarts /. 1e6) "ms";
    m "durable.load_ms" (ratio a.load_ns a.restarts /. 1e6) "ms";
    m "durable.attach_ms" (ratio a.attach_ns a.restarts /. 1e6) "ms";
    m "durable.first_vend_ms" (ratio a.first_ns a.restarts /. 1e6) "ms";
    m "durable.replayed_epochs" (ratio a.replayed a.restarts) "count";
    m "durable.debt_draws" (ratio a.debt_draws a.restarts) "count";
    m "durable.debt_refills" (ratio a.debt_refills a.restarts) "count";
    m "durable.torn_bytes" (ratio a.torn a.restarts) "B";
    m "pool.expose_us" (ratio a.expose_ns a.exposes /. 1e3) "us";
    m "pool.alloc_w_per_expose" (ratio a.expose_w a.exposes) "words";
    m "pool.refill_ms" (ratio refill_ns a.refills /. 1e6) "ms";
    m "pool.alloc_kw_per_refill" (ratio a.refill_w a.refills /. 1e3) "kwords";
    m "pool.coins_per_refill" (ratio a.refill_gen a.refills) "count";
    m "pool.seed_per_refill" (ratio a.refill_seed a.refills) "count";
    m "pool.attempts_per_refill" (ratio a.refill_attempts a.refills) "count";
    m "coin-gen.decode.mults"
      (per_refill "coin-gen.decode" (fun s -> s.field_mults)) "count";
    m "coin-gen.decode.interps"
      (per_refill "coin-gen.decode" (fun s -> s.interpolations)) "count";
    m "coin-gen.gradecast.bytes"
      (per_refill "coin-gen.gradecast" (fun s -> s.bytes)) "B";
    m "coin-gen.gradecast.msgs"
      (per_refill "coin-gen.gradecast" (fun s -> s.messages)) "count";
    m "coin-gen.ba.rounds" (per_refill "coin-gen.ba" (fun s -> s.rounds)) "count";
    m "coin-gen.rounds" (per_refill "coin-gen" (fun s -> s.rounds)) "count";
    m "coin-gen.deal.bytes" (per_refill "coin-gen.deal" (fun s -> s.bytes)) "B";
    m "coin-gen.gamma.mults"
      (per_refill "coin-gen.gamma" (fun s -> s.field_mults)) "count";
    m "coin-expose.mults" (per_expose (fun s -> s.field_mults)) "count";
    m "coin-expose.interps" (per_expose (fun s -> s.interpolations)) "count";
    m "coin-expose.msgs" (per_expose (fun s -> s.messages)) "count";
    m "gc.minor_per_kdraw" (per_kdraw p.minor_gcs) "count";
    m "gc.major_per_kdraw" (per_kdraw p.major_gcs) "count";
    m "trace.overhead_pct"
      (if dps = 0. then 0. else 100. *. ((untraced_dps /. dps) -. 1.))
      "%";
    m "harness.unattributed_pct" (share (wall - covered)) "%";
    m "share.admit_pct" (share a.admit_ns) "%";
    m "share.preack_pct" (share a.preack_ns) "%";
    m "share.vend_pct" (share a.vend_ns) "%";
    m "share.post_pct" (share a.post_ns) "%";
    m "share.refill_pct" (share refill_ns) "%";
    m "share.expose_pct" (share a.expose_ns) "%";
    m "share.snapshot_pct" (share a.snapshot_ns) "%";
  ]

let counts (p : pass) =
  [
    ("units", p.units);
    ("draws", p.draws);
    ("epochs", p.epochs);
    ("refills", p.refills);
    ("restarts", Samples.length p.recover);
    ("attempted", p.attempted);
    ("failed", p.failed);
    ("alloc_words", p.alloc);
    ("journal_bytes", p.journal_bytes);
    ("digest", p.digest);
  ]

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_counts label (p : pass) =
  Printf.printf "counts %s {%s}\n" label
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) (counts p)))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and units = ref 0 and dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " seed of every input");
      ("--seconds", Arg.Set_float seconds, " measured time of one run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer");
      ("--units", Arg.Set_int units, " fixed work (epochs or draws) instead of time");
      ("--dir", Arg.Set_string dir, " scratch directory for journal files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w = !workload and seed = !seed in
  if not (List.mem w workloads) then begin
    prerr_endline ("unknown workload: " ^ w);
    exit 2
  end;
  if !dir = "" then dir := Filename.get_temp_dir_name ();
  let units_mode = !units > 0 in
  let t_run = now () in
  let budget share = Deadline (t_run + int_of_float (share *. !seconds *. 1e9)) in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n%!" w seed !seconds
    !trace;
  let pass = run_pass w ~seed ~dir:!dir in
  let stop share = if units_mode then Units !units else budget share in
  let passes, metrics =
    if !trace = 0 then begin
      let cold =
        if units_mode then None
        else begin
          let dir = Filename.concat !dir "cold" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Some (Cold.start (cold_setup w ~seed ~dir))
        end
      in
      let p = pass ?cold ~traced:false (stop 0.85) in
      Option.iter Cold.stop cold;
      ([ p ], end_to_end p ~units_mode)
    end
    else begin
      let p1 = pass ~traced:false (stop 0.4) in
      let untraced_dps = throughput p1 in
      let p2 = pass ~traced:true (Units p1.units) in
      gate p2 (p1.digest = p2.digest)
        "traced and untraced digests differ: %x vs %x" p2.digest p1.digest;
      let a = Option.get p2.acc in
      ([ p1; p2 ], per_layer p2 a ~untraced_dps)
    end
  in
  List.iteri (fun i p -> print_counts (Printf.sprintf "pass%d" (i + 1)) p) passes;
  List.iter
    (fun x ->
      Printf.printf "metric %-26s %14.4f %-6s %s\n" x.name x.value x.unit x.note)
    metrics;
  List.iter
    (fun p ->
      List.iter (fun g -> Printf.printf "FAILED GATE: %s\n" g) p.gates;
      if p.gate_failures > 20 then
        Printf.printf "FAILED GATE: ... %d more\n" (p.gate_failures - 20))
    passes;
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let correct = sum (fun p -> p.gate_failures) = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct
    (sum (fun p -> p.attempted))
    (sum (fun p -> p.failed))
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_num x.value) x.unit)
          metrics));
  exit (if correct then 0 else 1)
