type kind = Protocol | Phase | Round

type event =
  | Send of { src : int; dst : int; bytes : int }
  | Recv of { src : int; dst : int; bytes : int }
  | Broadcast of { src : int; bytes : int }
  | Verdict of { player : int; accept : bool }
  | Reconstruct of { player : int; ok : bool }
  | Suspicion of {
      player : int;
      evidence : string;
      score : int;
      quarantined : bool;
    }
  | Crash of { player : int; round : int; reason : string }
  | Stall of { player : int; attempt : int }
  | Vend of { request : int; epoch : int; bits : int }
  | Note of string

type span = {
  id : int;
  kind : kind;
  name : string;
  metrics : Metrics.snapshot;
  items : item list;
}

and item = Span of span | Event of int * event

type t = { backend : string option; items : item list }

(* The ambient transport backend tag ("sim", "domains", "socket"),
   stamped onto every trace completed while it is set. Installed by
   [Transport.with_backend]; [None] outside any transport session. *)
let ambient_backend : string option ref = ref None

let set_backend_tag tag = ambient_backend := tag
let backend_tag () = !ambient_backend

(* ------------------------- collection ---------------------------- *)

type frame = {
  f_id : int;
  f_kind : kind;
  f_name : string;
  mutable f_items : item list; (* reverse order *)
}

type builder = {
  mutable next_id : int;
  mutable next_seq : int;
  mutable stack : frame list; (* innermost first *)
  mutable top : item list; (* reverse order *)
}

let collector : builder option ref = ref None
let enabled () = !collector <> None

let push_item b item =
  match b.stack with
  | f :: _ -> f.f_items <- item :: f.f_items
  | [] -> b.top <- item :: b.top

let event f =
  match !collector with
  | None -> ()
  | Some b ->
      let seq = b.next_seq in
      b.next_seq <- seq + 1;
      push_item b (Event (seq, f ()))

let note msg = event (fun () -> Note msg)

let close_frame b frame metrics =
  (match b.stack with
  | top :: rest when top == frame -> b.stack <- rest
  | _ ->
      (* Stack discipline broken only by exceptions crossing span
         boundaries; recover by filtering, like Metrics does. *)
      b.stack <- List.filter (fun fr -> fr != frame) b.stack);
  push_item b
    (Span
       {
         id = frame.f_id;
         kind = frame.f_kind;
         name = frame.f_name;
         metrics;
         items = List.rev frame.f_items;
       })

let span kind name f =
  match !collector with
  | None -> f ()
  | Some b ->
      let frame =
        { f_id = b.next_id; f_kind = kind; f_name = name; f_items = [] }
      in
      b.next_id <- b.next_id + 1;
      b.stack <- frame :: b.stack;
      (* The span's cost delta is a difference of two Metrics reads:
         enclosing measurements keep accumulating, so bracketing is
         invisible to them. *)
      (match Metrics.with_counting f with
      | result, metrics ->
          close_frame b frame metrics;
          result
      | exception e ->
          let seq = b.next_seq in
          b.next_seq <- seq + 1;
          frame.f_items <-
            Event (seq, Note ("aborted: " ^ Printexc.to_string e))
            :: frame.f_items;
          close_frame b frame Metrics.zero;
          raise e)

let fresh_builder () = { next_id = 1; next_seq = 0; stack = []; top = [] }

let finish b =
  (* Close frames an escaping exception left open, innermost first. *)
  List.iter (fun frame -> close_frame b frame Metrics.zero) b.stack;
  { backend = !ambient_backend; items = List.rev b.top }

let collect f =
  let b = fresh_builder () in
  let prev = !collector in
  collector := Some b;
  match f () with
  | result ->
      collector := prev;
      (result, finish b)
  | exception e ->
      collector := prev;
      raise e

let try_collect f =
  let b = fresh_builder () in
  let prev = !collector in
  collector := Some b;
  match f () with
  | result ->
      collector := prev;
      (Ok result, finish b)
  | exception e ->
      collector := prev;
      (Error e, finish b)

(* ------------------------- inspection ---------------------------- *)

let rec spans_of_items items =
  List.concat_map
    (function
      | Span s -> s :: spans_of_items s.items
      | Event _ -> [])
    items

let spans t = spans_of_items t.items
let find t ~name = List.find_opt (fun s -> s.name = name) (spans t)

let events (s : span) =
  List.filter_map
    (function Event (q, e) -> Some (q, e) | Span _ -> None)
    s.items

let all_events t =
  let rec go items =
    List.concat_map
      (function Event (q, e) -> [ (q, e) ] | Span s -> go s.items)
      items
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (go t.items)

(* ------------------------- rendering ----------------------------- *)

let kind_name = function
  | Protocol -> "protocol"
  | Phase -> "phase"
  | Round -> "round"

let pp_event ppf = function
  | Send { src; dst; bytes } -> Fmt.pf ppf "send %d->%d (%dB)" src dst bytes
  | Recv { src; dst; bytes } -> Fmt.pf ppf "recv %d->%d (%dB)" src dst bytes
  | Broadcast { src; bytes } -> Fmt.pf ppf "broadcast %d (%dB)" src bytes
  | Verdict { player; accept } ->
      Fmt.pf ppf "verdict p%d %s" player (if accept then "accept" else "reject")
  | Reconstruct { player; ok } ->
      Fmt.pf ppf "reconstruct p%d %s" player (if ok then "ok" else "failed")
  | Suspicion { player; evidence; score; quarantined } ->
      Fmt.pf ppf "suspicion p%d %s score=%d%s" player evidence score
        (if quarantined then " QUARANTINED" else "")
  | Crash { player; round; reason } ->
      Fmt.pf ppf "crash p%d round=%d (%s)" player round reason
  | Stall { player; attempt } ->
      Fmt.pf ppf "stall p%d attempt=%d" player attempt
  | Vend { request; epoch; bits } ->
      Fmt.pf ppf "vend r%d epoch=%d (%d bits)" request epoch bits
  | Note msg -> Fmt.pf ppf "note %S" msg

let pp ppf t =
  let rec go indent = function
    | Span s ->
        Fmt.pf ppf "%s[%s] %s  {%a}@." indent (kind_name s.kind) s.name
          Metrics.pp s.metrics;
        List.iter (go (indent ^ "  ")) s.items
    | Event (_, (Send _ | Recv _)) -> () (* too chatty for the tree view *)
    | Event (_, e) -> Fmt.pf ppf "%s- %a@." indent pp_event e
  in
  List.iter (go "") t.items

(* JSONL. All payloads are ints and fixed atoms except Note strings and
   span names, which we escape by hand (no JSON library in the image). *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_metrics (s : Metrics.snapshot) =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v)
       (Metrics.to_row s))

let pp_jsonl ppf t =
  let span_line parent s =
    Fmt.pf ppf
      "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"kind\":%s,\"name\":%s,\"metrics\":{%s}}@."
      s.id parent
      (json_string (kind_name s.kind))
      (json_string s.name) (json_metrics s.metrics)
  in
  let event_line parent seq e =
    let fields =
      match e with
      | Send { src; dst; bytes } ->
          Printf.sprintf "\"event\":\"send\",\"src\":%d,\"dst\":%d,\"bytes\":%d"
            src dst bytes
      | Recv { src; dst; bytes } ->
          Printf.sprintf "\"event\":\"recv\",\"src\":%d,\"dst\":%d,\"bytes\":%d"
            src dst bytes
      | Broadcast { src; bytes } ->
          Printf.sprintf "\"event\":\"broadcast\",\"src\":%d,\"bytes\":%d" src
            bytes
      | Verdict { player; accept } ->
          Printf.sprintf "\"event\":\"verdict\",\"player\":%d,\"accept\":%b"
            player accept
      | Reconstruct { player; ok } ->
          Printf.sprintf "\"event\":\"reconstruct\",\"player\":%d,\"ok\":%b"
            player ok
      | Suspicion { player; evidence; score; quarantined } ->
          Printf.sprintf
            "\"event\":\"suspicion\",\"player\":%d,\"evidence\":%s,\"score\":%d,\"quarantined\":%b"
            player (json_string evidence) score quarantined
      | Crash { player; round; reason } ->
          Printf.sprintf
            "\"event\":\"crash\",\"player\":%d,\"round\":%d,\"reason\":%s"
            player round (json_string reason)
      | Stall { player; attempt } ->
          Printf.sprintf "\"event\":\"stall\",\"player\":%d,\"attempt\":%d"
            player attempt
      | Vend { request; epoch; bits } ->
          Printf.sprintf
            "\"event\":\"vend\",\"request\":%d,\"epoch\":%d,\"bits\":%d"
            request epoch bits
      | Note msg -> Printf.sprintf "\"event\":\"note\",\"text\":%s" (json_string msg)
    in
    Fmt.pf ppf "{\"type\":\"event\",\"span\":%d,\"seq\":%d,%s}@." parent seq
      fields
  in
  let rec go parent = function
    | Event (seq, e) -> event_line parent seq e
    | Span s ->
        span_line parent s;
        List.iter (go s.id) s.items
  in
  (match t.backend with
  | None -> ()
  | Some b -> Fmt.pf ppf "{\"type\":\"meta\",\"backend\":%s}@." (json_string b));
  List.iter (go 0) t.items

let write_jsonl path t =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  pp_jsonl ppf t;
  Format.pp_print_flush ppf ();
  close_out oc

(* ------------------------- timeline ------------------------------ *)

(* Cell marks, by display priority (highest wins the glyph). *)
let glyph ~send ~recv ~bcast ~verdict ~recon =
  match (verdict, recon) with
  | Some false, _ -> '!'
  | _, Some false -> 'x'
  | _ -> (
      if send && recv then '#'
      else if bcast then 'B'
      else if send then '>'
      else if recv then '<'
      else
        match (verdict, recon) with
        | Some true, _ -> '+'
        | _, Some true -> 'o'
        | _ -> '.')

let pp_timeline ppf t =
  (* Walk document order. A Round span is one column; Send events emitted
     before a barrier belong to that upcoming column, Recv/Broadcast
     events inside the round span to its own column, verdicts and
     reconstructions to the last completed column. *)
  let cells : (int * int, bool * bool * bool * bool option * bool option)
      Hashtbl.t =
    Hashtbl.create 97
  in
  let rounds = ref 0 in
  let max_player = ref (-1) in
  let phases = ref [] in
  let get p r =
    match Hashtbl.find_opt cells (p, r) with
    | Some c -> c
    | None -> (false, false, false, None, None)
  in
  let set p r c =
    if p > !max_player then max_player := p;
    Hashtbl.replace cells (p, r) c
  in
  let mark_event r_next r_last = function
    | Send { src; _ } ->
        let s, rv, b, v, k = get src r_next in
        ignore s;
        set src r_next (true, rv, b, v, k)
    | Recv { dst; _ } ->
        let s, _, b, v, k = get dst r_last in
        set dst r_last (s, true, b, v, k)
    | Broadcast { src; _ } ->
        let s, rv, _, v, k = get src r_last in
        set src r_last (s, rv, true, v, k)
    | Verdict { player; accept } ->
        let s, rv, b, _, k = get player r_last in
        set player r_last (s, rv, b, Some accept, k)
    | Reconstruct { player; ok } ->
        let s, rv, b, v, _ = get player r_last in
        set player r_last (s, rv, b, v, Some ok)
    | Suspicion _ | Crash _ | Stall _ | Vend _ | Note _ -> ()
  in
  let rec go = function
    | Event (_, e) -> mark_event !rounds (max 0 (!rounds - 1)) e
    | Span ({ kind = Round; _ } as s) ->
        let col = !rounds in
        incr rounds;
        List.iter
          (function
            | Event (_, e) -> mark_event col col e
            | Span _ as child -> go child)
          s.items
    | Span s ->
        let from_round = !rounds in
        List.iter go s.items;
        phases := (s.name, from_round, !rounds) :: !phases
  in
  List.iter go t.items;
  let n_rounds = !rounds and n_players = !max_player + 1 in
  if n_rounds = 0 || n_players = 0 then
    Fmt.pf ppf "(no rounds recorded)@."
  else begin
    Fmt.pf ppf "per-player round timeline (%d players x %d rounds)@."
      n_players n_rounds;
    Fmt.pf ppf "  legend: > sent  < received  # both  B broadcast  +/! verdict  o/x reconstruct  . idle@.";
    (* Column ruler: tens line only when it earns its keep. *)
    if n_rounds > 10 then begin
      Fmt.pf ppf "      ";
      for r = 0 to n_rounds - 1 do
        Fmt.pf ppf "%c" (if r mod 10 = 0 then Char.chr (Char.code '0' + r / 10 mod 10) else ' ')
      done;
      Fmt.pf ppf "@."
    end;
    Fmt.pf ppf "      ";
    for r = 0 to n_rounds - 1 do
      Fmt.pf ppf "%d" (r mod 10)
    done;
    Fmt.pf ppf "@.";
    for p = 0 to n_players - 1 do
      Fmt.pf ppf "  p%02d " p;
      for r = 0 to n_rounds - 1 do
        let send, recv, bcast, verdict, recon = get p r in
        Fmt.pf ppf "%c" (glyph ~send ~recv ~bcast ~verdict ~recon)
      done;
      Fmt.pf ppf "@."
    done;
    let phases = List.rev !phases in
    if phases <> [] then begin
      Fmt.pf ppf "  spans:@.";
      List.iter
        (fun (name, a, b) ->
          if b > a then Fmt.pf ppf "    rounds %2d-%2d  %s@." a (b - 1) name
          else Fmt.pf ppf "    (no rounds)   %s@." name)
        phases
    end;
    (* Ledger section: the last suspicion record per player is the final
       evidence state, so the timeline doubles as a post-mortem. *)
    let final : (int, string * int * bool) Hashtbl.t = Hashtbl.create 7 in
    List.iter
      (fun (_, e) ->
        match e with
        | Suspicion { player; evidence; score; quarantined } ->
            Hashtbl.replace final player (evidence, score, quarantined)
        | _ -> ())
      (all_events t);
    if Hashtbl.length final > 0 then begin
      Fmt.pf ppf "  ledger:@.";
      Hashtbl.fold (fun p v acc -> (p, v) :: acc) final []
      |> List.sort compare
      |> List.iter (fun (p, (evidence, score, quarantined)) ->
             Fmt.pf ppf "    p%02d score=%d last=%s%s@." p score evidence
               (if quarantined then "  [quarantined]" else ""))
    end
  end
