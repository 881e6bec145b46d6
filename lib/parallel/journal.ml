(* Frame layout: [u32 len LE][u32 crc LE][payload]; crc is IEEE CRC-32
   over the 4 length bytes followed by the payload, so a corrupted
   length field is caught directly instead of by a misaligned payload
   read. *)

(* ---- CRC-32 (IEEE 802.3, reflected) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_update crc s =
  let table = Lazy.force crc_table in
  let crc = ref crc in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
      in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  !crc

let crc32 s = Int32.logxor (crc32_update 0xFFFFFFFFl s) 0xFFFFFFFFl

let crc32_frame len_bytes payload =
  Int32.logxor
    (crc32_update (crc32_update 0xFFFFFFFFl len_bytes) payload)
    0xFFFFFFFFl

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

(* ---- framing ---- *)

let u32_le n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xFF);
  Bytes.unsafe_to_string b

(* unsigned value of an int32 in a 63-bit int — [Int32.to_int] alone
   sign-extends, which would make any CRC with bit 31 set compare
   unequal to the (positive) value read back from the file *)
let int32_unsigned (v : int32) = Int32.to_int v land 0xFFFFFFFF

let u32_le_int32 (v : int32) = u32_le (int32_unsigned v)

let read_u32_le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* an upper bound on a sane record: a corrupted length field must not
   make the reader attempt a gigabyte allocation *)
let max_record_len = 16 * 1024 * 1024

(* ---- writer ---- *)

(* Group commit: frames accumulate in [buf] and are pushed to disk by a
   single write+fsync once [flush_every] records are pending (or the
   flush interval has elapsed, or the caller flushes/closes).  With
   [flush_every = 1] — the default — every append is durable before it
   returns, exactly the original contract.  With a larger batch the
   fsync cost is amortized across the batch and the durability window
   widens to the unflushed tail: a crash loses at most the records
   buffered since the last flush, never anything acknowledged by
   [flush]/[close], and never the validity of the prefix already on
   disk (a torn batch write is still a pure suffix of whole frames plus
   at most one torn frame, which the reader truncates). *)

type writer = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  buf : Buffer.t;  (** framed records not yet written to the fd *)
  mutable pending : int;  (** records currently in [buf] *)
  flush_every : int;
  flush_interval_s : float option;
  mutable last_flush : float;
  mutable closed : bool;
}

(* Creating the file makes its *data* durable via the per-batch fsync,
   but the directory entry pointing at it is only durable once the
   parent directory itself is fsync'd — without this, a crash right
   after [open_append] can leave a journal whose records were synced
   into a file that no longer has a name. Best-effort: some filesystems
   refuse fsync on directories, which is also the world where the entry
   is already durable or can't be made so. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

let open_append ?(flush_every = 1) ?flush_interval_s path =
  if flush_every < 1 then invalid_arg "Journal.open_append: flush_every < 1";
  (match flush_interval_s with
  | Some s when s <= 0.0 ->
      invalid_arg "Journal.open_append: flush_interval_s <= 0"
  | _ -> ());
  let existed = Sys.file_exists path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  if not existed then fsync_dir path;
  {
    fd;
    lock = Mutex.create ();
    buf = Buffer.create 256;
    pending = 0;
    flush_every;
    flush_interval_s;
    last_flush = Netsim.Clock.now ();
    closed = false;
  }

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(* caller holds the lock *)
let flush_locked w =
  if w.pending > 0 then begin
    (* one write for the whole batch keeps a torn batch a pure suffix *)
    write_all w.fd (Buffer.contents w.buf);
    Buffer.clear w.buf;
    w.pending <- 0;
    Unix.fsync w.fd
  end;
  w.last_flush <- Netsim.Clock.now ()

let flush w =
  Mutex.protect w.lock (fun () ->
      if w.closed then invalid_arg "Journal.flush: closed writer";
      flush_locked w)

let append w record =
  Mutex.protect w.lock (fun () ->
      if w.closed then invalid_arg "Journal.append: closed writer";
      if String.length record > max_record_len then
        invalid_arg "Journal.append: record exceeds 16 MiB";
      let len_bytes = u32_le (String.length record) in
      let crc = crc32_frame len_bytes record in
      Buffer.add_string w.buf (len_bytes ^ u32_le_int32 crc ^ record);
      w.pending <- w.pending + 1;
      let interval_due =
        match w.flush_interval_s with
        | Some s -> Netsim.Clock.now () -. w.last_flush >= s
        | None -> false
      in
      if w.pending >= w.flush_every || interval_due then flush_locked w)

let pending w = Mutex.protect w.lock (fun () -> w.pending)

let close w =
  Mutex.protect w.lock (fun () ->
      if not w.closed then begin
        Fun.protect
          ~finally:(fun () ->
            w.closed <- true;
            Unix.close w.fd)
          (fun () -> flush_locked w)
      end)

(* ---- reader ---- *)

type read_result = {
  entries : string list;
  valid_bytes : int;
  corruption : string option;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* scan whole frames starting at [start]; returns (records oldest first,
   offset just past the last valid frame, why the scan stopped early) *)
let scan_frames data start =
  let n = String.length data in
  let entries = ref [] in
  let pos = ref start in
  let corruption = ref None in
  let stop reason = corruption := Some reason in
  let continue () = !corruption = None && !pos < n in
  while continue () do
    let off = !pos in
    if n - off < 8 then
      stop (Printf.sprintf "torn frame header at byte %d" off)
    else begin
      let len = read_u32_le data off in
      let crc_stored = read_u32_le data (off + 4) in
      if len < 0 || len > max_record_len then
        stop (Printf.sprintf "absurd record length %d at byte %d" len off)
      else if n - off - 8 < len then
        stop (Printf.sprintf "torn payload at byte %d" off)
      else begin
        let payload = String.sub data (off + 8) len in
        let crc = int32_unsigned (crc32_frame (u32_le len) payload) in
        if crc <> crc_stored then
          stop (Printf.sprintf "crc mismatch at byte %d" off)
        else begin
          entries := payload :: !entries;
          pos := off + 8 + len
        end
      end
    end
  done;
  (List.rev !entries, !pos, !corruption)

let read path =
  match read_file path with
  | None -> { entries = []; valid_bytes = 0; corruption = None }
  | Some data ->
      let entries, valid_bytes, corruption = scan_frames data 0 in
      { entries; valid_bytes; corruption }

let recover path =
  let r = read path in
  (match r.corruption with
  | Some _ -> ( try Unix.truncate path r.valid_bytes with Unix.Unix_error _ -> ())
  | None -> ());
  r

(* ---- tailer ---- *)

(* A tailer incrementally follows a journal another process is still
   appending to. It is strictly read-only and never advances past an
   invalid frame: a torn tail (the writer crashed mid-append, or we
   raced a group commit's write) is reported as [tail_torn] and the
   position stays at the end of the validated prefix, so the next poll
   re-examines the same bytes. If the writer's recovery later truncates
   that torn tail and appends fresh records, the tailer picks them up
   from the same position — it never has to "un-see" a record, which is
   what makes replication from a tailer safe: the replica is always a
   prefix of what the writer acknowledged as durable. *)

type tailer = { t_path : string; mutable t_pos : int }

type tail_result = {
  tailed : string list;
  tail_torn : bool;
  tail_truncated : bool;
}

let open_tail ?(pos = 0) path =
  if pos < 0 then invalid_arg "Journal.open_tail: negative position";
  { t_path = path; t_pos = pos }

let tail_pos t = t.t_pos

let tail_poll t =
  match read_file t.t_path with
  | None -> { tailed = []; tail_torn = false; tail_truncated = false }
  | Some data ->
      if String.length data < t.t_pos then
        (* the file shrank below our validated prefix: this is not a
           torn append but a different history (e.g. the journal was
           deleted and recreated) — the caller must resynchronize *)
        { tailed = []; tail_torn = false; tail_truncated = true }
      else
        let entries, pos, corruption = scan_frames data t.t_pos in
        t.t_pos <- pos;
        { tailed = entries; tail_torn = corruption <> None; tail_truncated = false }
