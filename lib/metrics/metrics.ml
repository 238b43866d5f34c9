type snapshot = {
  field_adds : int;
  field_mults : int;
  field_invs : int;
  interpolations : int;
  messages : int;
  bytes : int;
  rounds : int;
  ba_runs : int;
  gradecasts : int;
}

let zero =
  {
    field_adds = 0;
    field_mults = 0;
    field_invs = 0;
    interpolations = 0;
    messages = 0;
    bytes = 0;
    rounds = 0;
    ba_runs = 0;
    gradecasts = 0;
  }

let add a b =
  {
    field_adds = a.field_adds + b.field_adds;
    field_mults = a.field_mults + b.field_mults;
    field_invs = a.field_invs + b.field_invs;
    interpolations = a.interpolations + b.interpolations;
    messages = a.messages + b.messages;
    bytes = a.bytes + b.bytes;
    rounds = a.rounds + b.rounds;
    ba_runs = a.ba_runs + b.ba_runs;
    gradecasts = a.gradecasts + b.gradecasts;
  }

let diff a b =
  {
    field_adds = a.field_adds - b.field_adds;
    field_mults = a.field_mults - b.field_mults;
    field_invs = a.field_invs - b.field_invs;
    interpolations = a.interpolations - b.interpolations;
    messages = a.messages - b.messages;
    bytes = a.bytes - b.bytes;
    rounds = a.rounds - b.rounds;
    ba_runs = a.ba_runs - b.ba_runs;
    gradecasts = a.gradecasts - b.gradecasts;
  }

let to_row s =
  [
    ("adds", s.field_adds);
    ("mults", s.field_mults);
    ("invs", s.field_invs);
    ("interps", s.interpolations);
    ("msgs", s.messages);
    ("bytes", s.bytes);
    ("rounds", s.rounds);
    ("ba", s.ba_runs);
    ("gradecast", s.gradecasts);
  ]

let pp ppf s =
  let pp_pair ppf (label, v) = Fmt.pf ppf "%s=%d" label v in
  Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep:Fmt.sp pp_pair) (to_row s)

(* The live counters. Ticks add to them only while [depth > 0]; a
   measurement is the difference of two reads, so nested measurements
   need no per-level state. *)
type counters = {
  mutable adds : int;
  mutable mults : int;
  mutable invs : int;
  mutable interps : int;
  mutable msgs : int;
  mutable byts : int;
  mutable rnds : int;
  mutable bas : int;
  mutable gcs : int;
}

let c =
  {
    adds = 0;
    mults = 0;
    invs = 0;
    interps = 0;
    msgs = 0;
    byts = 0;
    rnds = 0;
    bas = 0;
    gcs = 0;
  }

(* Open [with_counting] scopes not suspended by [without_counting]. *)
let depth = ref 0

let counting_enabled () = !depth > 0
let tick_adds n = if !depth > 0 then c.adds <- c.adds + n
let tick_mults n = if !depth > 0 then c.mults <- c.mults + n
let tick_invs n = if !depth > 0 then c.invs <- c.invs + n
let tick_interpolation () = if !depth > 0 then c.interps <- c.interps + 1

let tick_message ~bytes_len =
  if !depth > 0 then begin
    c.msgs <- c.msgs + 1;
    c.byts <- c.byts + bytes_len
  end

let tick_round () = if !depth > 0 then c.rnds <- c.rnds + 1
let tick_ba () = if !depth > 0 then c.bas <- c.bas + 1
let tick_gradecast () = if !depth > 0 then c.gcs <- c.gcs + 1

let read () =
  {
    field_adds = c.adds;
    field_mults = c.mults;
    field_invs = c.invs;
    interpolations = c.interps;
    messages = c.msgs;
    bytes = c.byts;
    rounds = c.rnds;
    ba_runs = c.bas;
    gradecasts = c.gcs;
  }

let restore s =
  c.adds <- s.field_adds;
  c.mults <- s.field_mults;
  c.invs <- s.field_invs;
  c.interps <- s.interpolations;
  c.msgs <- s.messages;
  c.byts <- s.bytes;
  c.rnds <- s.rounds;
  c.bas <- s.ba_runs;
  c.gcs <- s.gradecasts

(* A measurement opened inside the suspended region still counts into
   [c]; putting the saved values back keeps those costs from reaching
   the suspended ones. *)
let without_counting f =
  if !depth = 0 then f ()
  else begin
    let saved = read () and saved_depth = !depth in
    depth := 0;
    match f () with
    | result ->
        restore saved;
        depth := saved_depth;
        result
    | exception e ->
        restore saved;
        depth := saved_depth;
        raise e
  end

let with_counting f =
  let before = read () in
  incr depth;
  match f () with
  | result ->
      decr depth;
      (result, diff (read ()) before)
  | exception e ->
      decr depth;
      raise e
