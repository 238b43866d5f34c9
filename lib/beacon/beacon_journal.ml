exception Corrupt_journal of string

type sync_policy = Fsync | Flush_only

let corrupt fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt_journal msg)) fmt

(* ------------------------ crash injection ------------------------- *)

module Crash_point = struct
  exception Crashed

  type mode = Off | Counting of int ref | Budget of int ref

  let mode = ref Off

  let rec write_all fd buf pos len =
    if len > 0 then begin
      let n = Unix.write fd buf pos len in
      write_all fd buf (pos + n) (len - n)
    end

  (* Every byte of journal/snapshot traffic funnels through here, so an
     armed budget simulates SIGKILL at an exact byte offset: the write
     that overruns it lands only its first [remaining] bytes — the torn
     write — and the process is presumed dead from then on. *)
  let guarded_write fd buf =
    let len = Bytes.length buf in
    match !mode with
    | Off -> write_all fd buf 0 len
    | Counting c ->
        c := !c + len;
        write_all fd buf 0 len
    | Budget b ->
        if !b >= len then begin
          b := !b - len;
          write_all fd buf 0 len
        end
        else begin
          let part = !b in
          b := 0;
          write_all fd buf 0 part;
          raise Crashed
        end

  (* Metadata operations (renames) are one durability point each, so
     the sweep also exercises "crashed between the data and the
     rename". *)
  let tick () =
    match !mode with
    | Off -> ()
    | Counting c -> incr c
    | Budget b -> if !b >= 1 then decr b else raise Crashed

  let arm m f ~finally =
    (match !mode with
    | Off -> ()
    | _ -> invalid_arg "Beacon_journal.Crash_point: already armed");
    mode := m;
    Fun.protect ~finally:(fun () -> mode := Off) (fun () -> finally (f ()))

  let count f =
    let c = ref 0 in
    arm (Counting c) f ~finally:(fun x -> (x, !c))

  let with_budget budget f =
    if budget < 0 then
      invalid_arg "Beacon_journal.Crash_point.with_budget: negative budget";
    let b = ref budget in
    match arm (Budget b) f ~finally:(fun x -> `Completed x) with
    | outcome -> outcome
    | exception Crashed -> `Crashed
end

(* --------------------------- file format -------------------------- *)

let magic = 0xBEA2
let version = 1

(* ---------------------------- writing ----------------------------- *)

type writer = {
  path : string;
  sync_policy : sync_policy;
  fd : Unix.file_descr;
  mutable next_record_seq : int;
  mutable closed : bool;
}

let path w = w.path

let maybe_fsync w =
  match w.sync_policy with Fsync -> Unix.fsync w.fd | Flush_only -> ()

let sync w = if not w.closed then Unix.fsync w.fd

let close w =
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

let open_writer ~sync_policy ~next_record_seq ~trunc path =
  let flags =
    Unix.[ O_WRONLY; O_CREAT; O_CLOEXEC ] @ if trunc then [ Unix.O_TRUNC ] else []
  in
  let fd = Unix.openfile path flags 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { path; sync_policy; fd; next_record_seq; closed = false }

let create ?(sync = Fsync) path =
  let w = open_writer ~sync_policy:sync ~next_record_seq:0 ~trunc:true path in
  (try Crash_point.guarded_write w.fd (Wire.Record.header ~magic ~version)
   with e ->
     close w;
     raise e);
  maybe_fsync w;
  w

let append w body =
  if w.closed then invalid_arg "Beacon_journal.append: writer is closed";
  let payload = Wire.Writer.create () in
  Wire.Writer.u32 payload w.next_record_seq;
  Wire.Writer.raw payload body;
  (* One write for the whole record: a crash splits it at a byte
     offset, never interleaves. The record seq is claimed only after
     the bytes are down, so a crashed append leaves it unconsumed. *)
  Crash_point.guarded_write w.fd
    (Wire.Record.frame (Wire.Writer.contents payload));
  w.next_record_seq <- w.next_record_seq + 1;
  maybe_fsync w

(* ---------------------------- recovery ---------------------------- *)

type recovery = {
  records : bytes list;
  next_record_seq : int;
  valid_len : int;
  torn_bytes : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* The record seq that opens an intact payload, if it has one. *)
let record_seq payload =
  if Bytes.length payload < 4 then None
  else Some (Wire.Reader.u32 (Wire.Reader.of_bytes payload))

let recover jpath =
  let data = if Sys.file_exists jpath then read_file jpath else Bytes.empty in
  let size = Bytes.length data in
  let result pos seq records =
    {
      records = List.rev records;
      next_record_seq = seq;
      valid_len = pos;
      torn_bytes = size - pos;
    }
  in
  if size < Wire.Record.header_len then
    (* A missing file is an empty journal. A shorter one means the crash
       landed inside the initial header write: nothing was ever durable,
       so the whole file is the torn tail. *)
    result 0 0 []
  else begin
    (match
       Wire.Record.check_header ~magic ~versions:(version, version) data
     with
    | Ok _ -> ()
    | Error msg -> corrupt "not a beacon journal (%s) [bytes=%d]" msg size);
    (* A frame that runs past end-of-file, or a checksum failure on the
       record that ends exactly at end-of-file, looks like a torn write:
       only the final append can be cut short by a crash. But a flipped
       length field makes an interior record overrun end-of-file just
       the same, so the tail is torn only if no intact record carrying
       the next seq follows it. *)
    let torn pos seq records =
      let rec successor o =
        if o >= size then result pos seq records
        else
          match Wire.Record.read_frame data o with
          | Intact { payload; _ } when record_seq payload = Some (seq + 1) ->
              corrupt
                "record %d at offset %d does not close, but record %d is \
                 intact at offset %d — mid-journal corruption, not a torn \
                 tail"
                seq pos (seq + 1) o
          | _ -> successor (o + 1)
      in
      successor (pos + 1)
    in
    let rec scan pos seq records =
      if pos = size then result pos seq records
      else
        match Wire.Record.read_frame data pos with
        | Past_end -> torn pos seq records
        | Checksum_failed { stop } when stop = size -> torn pos seq records
        | Checksum_failed { stop } ->
            corrupt
              "record %d at offset %d: checksum mismatch with %d bytes \
               following — mid-journal corruption, not a torn tail"
              seq pos (size - stop)
        | Intact { payload; stop } -> (
            match record_seq payload with
            | None ->
                corrupt "record %d at offset %d: intact but only %d bytes long"
                  seq pos (Bytes.length payload)
            | Some rseq when rseq <> seq ->
                corrupt
                  "record sequence gap at offset %d: expected record %d, \
                   found %d"
                  pos seq rseq
            | Some _ ->
                let body = Bytes.sub payload 4 (Bytes.length payload - 4) in
                scan stop (seq + 1) (body :: records))
    in
    scan Wire.Record.header_len 0 []
  end

let open_append ?(sync = Fsync) jpath =
  let r = recover jpath in
  if r.valid_len < Wire.Record.header_len then
    (* New file, or the header itself was torn: start clean. *)
    (r, create ~sync jpath)
  else begin
    if r.torn_bytes > 0 then
      Unix.truncate jpath r.valid_len;
    let w =
      open_writer ~sync_policy:sync ~next_record_seq:r.next_record_seq
        ~trunc:false jpath
    in
    (r, w)
  end

let fsync_fd fd = Unix.fsync fd

let write_file_atomic ?(fsync = true) fpath bytes =
  let tmp = fpath ^ ".tmp" in
  let fd =
    Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Crash_point.guarded_write fd bytes;
      if fsync then fsync_fd fd);
  Crash_point.tick ();
  Sys.rename tmp fpath

let reset ?(sync = Fsync) jpath =
  write_file_atomic ~fsync:(sync = Fsync) jpath
    (Wire.Record.header ~magic ~version);
  open_writer ~sync_policy:sync ~next_record_seq:0 ~trunc:false jpath
