(* Coordinator-journal replication: the primary side publishes its
   append-only journal record-by-record; the standby side pulls.

   The transport is deliberately pull-based, one connection per pull:
   the standby sends [repl-hello|1|id=…|from=N] and the publisher
   answers with one [repl-ack] line (its epoch, the acknowledged
   position, its record count) followed by one [repl-frame] line per
   record in [N..count), then closes. This buys three properties at
   once. First, the replica can never run ahead of the primary's disk:
   the publisher serves from a {!Parallel.Journal} tailer over the
   journal *file*, so only records the group commit has made durable
   are ever shipped. Second, each pull is one accepted connection —
   exactly the unit the socket-level fault shim ({!Shim}) counts as a
   logical send, so partition and crash windows from a
   [Netsim.Faults] plan apply to replication without any new
   machinery. Third, liveness evidence stays evidence-based in the
   cluster's existing sense: a failed pull is one observed transport
   failure against the primary, and the standby applies the same
   consecutive-failure discipline as the coordinator applies to its
   workers. *)

(* ---- publisher (primary side) -------------------------------------- *)

type publisher = {
  p_listen : Unix.file_descr;
  p_stop : bool Atomic.t;
  p_epoch : int;
  p_tail : Parallel.Journal.tailer;
  (* records tailed so far, index-addressable for [from=N] replays;
     grown only by the acceptor domain, so no lock is needed *)
  mutable p_records : string array;
  mutable p_count : int;
  mutable p_domain : unit Domain.t option;
}

let refresh p =
  let r = Parallel.Journal.tail_poll p.p_tail in
  List.iter
    (fun rec_ ->
      if p.p_count = Array.length p.p_records then begin
        let grown =
          Array.make (max 16 (2 * Array.length p.p_records)) ""
        in
        Array.blit p.p_records 0 grown 0 p.p_count;
        p.p_records <- grown
      end;
      p.p_records.(p.p_count) <- rec_;
      p.p_count <- p.p_count + 1)
    r.Parallel.Journal.tailed

let send_lines fd lines =
  try
    Client.send_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  with Unix.Unix_error _ | Failure _ -> ()

(* one pull, end to end; any I/O failure just drops the connection
   (the standby counts it as a failed pull and re-asks) *)
let serve_pull p fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  (match (try Client.line_reader fd () with _ -> None) with
  | None -> ()
  | Some line -> (
      match Wire.parse_incoming line with
      | Ok (Wire.Repl_hello { repl_from; _ }) ->
          refresh p;
          let from = min repl_from p.p_count in
          let ack =
            Wire.render_response
              (Wire.Repl_ack
                 {
                   repl_epoch = p.p_epoch;
                   repl_from = from;
                   repl_have = p.p_count;
                 })
          in
          let frames = ref [] in
          for i = p.p_count - 1 downto from do
            frames :=
              Wire.render_response
                (Wire.Repl_frame
                   {
                     frame_idx = i;
                     frame_fp = Parallel.Journal.crc32_hex p.p_records.(i);
                     frame_rec = p.p_records.(i);
                   })
              :: !frames
          done;
          send_lines fd (ack :: !frames)
      | Ok _ | Result.Error _ ->
          send_lines fd
            [
              Wire.render_response
                (Wire.Error { req_id = ""; msg = "expected repl-hello" });
            ]));
  Server.close_quiet fd

let acceptor p =
  let rec loop () =
    if Atomic.get p.p_stop then ()
    else begin
      (match Unix.select [ p.p_listen ] [] [] 0.1 with
      | [ _ ], _, _ -> (
          match Unix.accept ~cloexec:true p.p_listen with
          | fd, _ -> serve_pull p fd
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let start_publisher ~addr ~journal ~epoch =
  let p =
    {
      p_listen = Server.listen addr;
      p_stop = Atomic.make false;
      p_epoch = epoch;
      p_tail = Parallel.Journal.open_tail journal;
      p_records = Array.make 16 "";
      p_count = 0;
      p_domain = None;
    }
  in
  p.p_domain <- Some (Domain.spawn (fun () -> acceptor p));
  p

let stop_publisher p =
  if not (Atomic.exchange p.p_stop true) then begin
    (match p.p_domain with Some d -> Domain.join d | None -> ());
    Server.close_quiet p.p_listen
  end

(* ---- puller (standby side) ----------------------------------------- *)

type pulled = {
  pulled_epoch : int;
  pulled_have : int;
  pulled_records : string list;  (** verified, contiguous from [from] *)
}

let pull ?(timeout_s = 5.0) addr ~from =
  if from < 0 then invalid_arg "Repl.pull: negative position";
  Client.with_connection ~timeout_s addr (fun fd next_line ->
      Client.send_all fd (Wire.render_repl_hello ~id:"" ~from ^ "\n");
      match next_line () with
      | None -> Result.Error "connection closed before repl-ack"
      | Some line -> (
          match Wire.parse_response line with
          | Ok (Wire.Repl_ack { repl_epoch; repl_from; repl_have }) ->
              (* frames stream until EOF; every one must be the next
                 index and carry a matching fingerprint, or the whole
                 pull is rejected — a half-valid batch must not enter
                 the replica *)
              let rec frames next acc =
                match (try next_line () with _ -> None) with
                | None ->
                    if next = repl_have then Ok (List.rev acc)
                    else
                      Result.Error
                        (Printf.sprintf "stream ended at record %d, expected %d"
                           next repl_have)
                | Some line -> (
                    match Wire.parse_response line with
                    | Ok (Wire.Repl_frame { frame_idx; frame_fp; frame_rec }) ->
                        if frame_idx <> next then
                          Result.Error
                            (Printf.sprintf "out-of-order frame %d, expected %d"
                               frame_idx next)
                        else if Parallel.Journal.crc32_hex frame_rec <> frame_fp
                        then
                          Result.Error
                            (Printf.sprintf "fingerprint mismatch on frame %d"
                               frame_idx)
                        else frames (next + 1) (frame_rec :: acc)
                    | Ok _ | Result.Error _ ->
                        Result.Error "unexpected line in frame stream")
              in
              if repl_from <> from then
                (* the publisher knows fewer records than our replica:
                   a different history — refuse to diverge silently *)
                Result.Error
                  (Printf.sprintf "publisher acknowledged %d, replica is at %d"
                     repl_from from)
              else
                Result.map
                  (fun records ->
                    {
                      pulled_epoch = repl_epoch;
                      pulled_have = repl_have;
                      pulled_records = records;
                    })
                  (frames from [])
          | Ok (Wire.Error { msg; _ }) -> Result.Error msg
          | Ok _ -> Result.Error "unexpected reply to repl-hello"
          | Result.Error msg -> Result.Error msg))
