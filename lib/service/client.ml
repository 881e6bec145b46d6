(* Blocking client for the verification service: one request, one
   newline-framed reply, per connection. [flood] and [spec_flood] are
   the overload probes — concurrent domains hammering the server and
   tallying how it answered (the CI smoke job asserts sheds are
   explicit and verdicts are pinned). *)

let connect ?(timeout_s = 10.0) addr =
  let sa = Server.sockaddr_of addr in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  try
    Unix.connect fd sa;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    fd
  with e ->
    Server.close_quiet fd;
    raise e

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | 0 -> failwith "connection closed while writing"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let max_line = 65536

(* One read per chunk, not per byte: bytes past a newline stay in the
   reader's buffer for the next line of the same connection. *)
let line_reader fd =
  let chunk = Bytes.create 4096 in
  let pos = ref 0 and len = ref 0 in
  fun () ->
    let line = Buffer.create 128 in
    let append upto =
      Buffer.add_subbytes line chunk !pos (upto - !pos);
      if Buffer.length line > max_line then failwith "reply too long"
    in
    let rec go () =
      if !pos = !len then
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if Buffer.length line = 0 then None
            else Some (Buffer.contents line)
        | n ->
            pos := 0;
            len := n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      else
        match Bytes.index_from_opt chunk !pos '\n' with
        | Some i when i < !len ->
            append i;
            pos := i + 1;
            Some (Buffer.contents line)
        | _ ->
            append !len;
            pos := !len;
            go ()
    in
    go ()

let with_connection ?timeout_s addr f =
  match connect ?timeout_s addr with
  | exception e ->
      Result.Error (Printf.sprintf "connect: %s" (Printexc.to_string e))
  | fd -> (
      Fun.protect
        ~finally:(fun () -> Server.close_quiet fd)
        (fun () ->
          try f fd (line_reader fd)
          with e ->
            Result.Error (Printf.sprintf "i/o: %s" (Printexc.to_string e))))

let read_reply next_line =
  match next_line () with
  | None -> Result.Error "connection closed before reply"
  | Some reply -> Wire.parse_response reply

let roundtrip ?timeout_s addr line =
  with_connection ?timeout_s addr (fun fd next_line ->
      send_all fd (line ^ "\n");
      read_reply next_line)

let check ?timeout_s addr req =
  roundtrip ?timeout_s addr (Wire.render_request req)

(* Submit framing: the header line, then the raw body bytes. The write
   can hit EPIPE when the server refuses from the header alone (cap,
   quota, shed) and closes before reading our body — the refusal reply
   is already on the wire, so swallow the write error and read it. *)
let submit ?timeout_s ?id ?tenant ?cmd ?certify ?deadline_s addr spec =
  let header =
    Wire.submit ?id ?tenant ?cmd ?certify ?deadline_s
      ~spec_bytes:(String.length spec) ()
  in
  with_connection ?timeout_s addr (fun fd next_line ->
      (try send_all fd (Wire.render_submit_header header ^ "\n" ^ spec)
       with Unix.Unix_error _ | Failure _ -> ());
      read_reply next_line)

let get_stats ?timeout_s addr =
  match roundtrip ?timeout_s addr Wire.stats_request with
  | Ok (Wire.Stats kvs) -> Ok kvs
  | Ok _ -> Result.Error "unexpected reply to stats"
  | Result.Error _ as e -> e

(* Raising a watermark is idempotent and monotonic, so re-sending a
   fence after a transport failure is always safe. The ack echoes the
   worker's watermark *after* the raise — ≥ the requested epoch. *)
let fence ?timeout_s ?(id = "") addr ~epoch =
  match roundtrip ?timeout_s addr (Wire.render_fence ~id ~epoch) with
  | Ok (Wire.Fenced { fenced_epoch; _ }) -> Ok fenced_epoch
  | Ok _ -> Result.Error "unexpected reply to fence"
  | Result.Error _ as e -> e

(* ---- retrying check and submit ----------------------------------- *)

(* Both verbs name pure problems, so re-asking is always safe: a check
   is a verification cell, and a submission is content-addressed
   (digest × command × certify), so a duplicate can only hit the cache.
   Only transient failures are retried — a transport failure
   (connection refused while the server restarts, or a connection that
   died before the reply), and per verb a shed (check: the queue was
   full at that instant and often drains within milliseconds) or a
   quota refusal (submit: its [retry=…] hint is the floor under the
   jittered delay). A shed on submit is final: the quota layer in
   front of the queue means it signals global overload, where backing
   off one tenant does not help. Anything else the server answered is
   final too. *)

type retry_report = {
  attempts : int;  (** total tries, including the first *)
  retried_shed : int;
  retried_transport : int;
  retried_quota : int;  (** quota refusals waited out (submit only) *)
  gave_up : string option;
      (** why the last failure was returned instead of retried *)
}

let with_retries ~who ~retries ~retry_budget_s ~backoff ~rng ~retryable
    attempt =
  if retries < 0 then invalid_arg (who ^ ": retries < 0");
  (match retry_budget_s with
  | Some b when b < 0.0 -> invalid_arg (who ^ ": negative budget")
  | _ -> ());
  let started = Netsim.Clock.now () in
  let report =
    ref
      { attempts = 1; retried_shed = 0; retried_transport = 0;
        retried_quota = 0; gave_up = None }
  in
  let rec go () =
    let reply = attempt () in
    let r = !report in
    match retryable reply with
    | None -> reply
    | Some _ when r.attempts > retries ->
        report := { r with gave_up = Some "retries exhausted" };
        reply
    | Some kind ->
        let delay =
          let d = Netsim.Backoff.delay backoff ~rng ~attempt:r.attempts in
          match kind with `Quota hint -> Float.max d hint | _ -> d
        in
        if
          match retry_budget_s with
          | None -> false
          | Some b -> Netsim.Clock.now () -. started +. delay > b
        then begin
          report := { r with gave_up = Some "retry budget exhausted" };
          reply
        end
        else begin
          let r = { r with attempts = r.attempts + 1 } in
          report :=
            (match kind with
            | `Shed -> { r with retried_shed = r.retried_shed + 1 }
            | `Transport ->
                { r with retried_transport = r.retried_transport + 1 }
            | `Quota _ -> { r with retried_quota = r.retried_quota + 1 });
          Unix.sleepf delay;
          go ()
        end
  in
  let reply = go () in
  (reply, !report)

let check_retry ?timeout_s ?(retries = 0) ?retry_budget_s
    ?(backoff = Netsim.Backoff.make ()) ?(seed = 0) addr req =
  with_retries ~who:"Client.check_retry" ~retries ~retry_budget_s ~backoff
    ~rng:
      (Netsim.Backoff.stream ~seed
         ~key:("client/" ^ req.Wire.policy ^ "/" ^ req.Wire.id))
    ~retryable:(function
      | Ok (Wire.Shed _) -> Some `Shed
      | Result.Error _ -> Some `Transport
      | Ok _ -> None)
    (fun () -> check ?timeout_s addr req)

let submit_retry ?timeout_s ?id ?tenant ?cmd ?certify ?deadline_s
    ?(retries = 0) ?retry_budget_s ?(backoff = Netsim.Backoff.make ())
    ?(seed = 0) addr spec =
  with_retries ~who:"Client.submit_retry" ~retries ~retry_budget_s ~backoff
    ~rng:
      (Netsim.Backoff.stream ~seed
         ~key:("client/submit/" ^ Option.value id ~default:""))
    ~retryable:(function
      | Ok (Wire.Quota { retry_after_s; _ }) -> Some (`Quota retry_after_s)
      | Result.Error _ -> Some `Transport
      | Ok _ -> None)
    (fun () -> submit ?timeout_s ?id ?tenant ?cmd ?certify ?deadline_s addr spec)

(* ---- the overload probes ------------------------------------------ *)

(* The one probe driver: [concurrency] domains take request indexes
   [0, total) from a shared counter, [send] each, and fold the one-reply
   tallies [send] returns with [add]; the domains' sums are added in
   the same way. *)
let probe ~concurrency ~total ~zero ~add send =
  let next = Atomic.make 0 in
  let rec loop acc =
    let i = Atomic.fetch_and_add next 1 in
    if i < total then loop (add acc (send i)) else acc
  in
  List.init concurrency (fun _ -> Domain.spawn (fun () -> loop zero))
  |> List.map Domain.join
  |> List.fold_left add zero

type flood_report = {
  sent : int;
  verdicts : int;
  flood_shed : int;
  flood_errors : int;  (** error replies and transport failures *)
  undecided : int;  (** verdict replies whose SAT column is [Undecided] *)
}

let flood ?timeout_s ?(concurrency = 4) ~total addr reqs =
  if concurrency < 1 then invalid_arg "Client.flood: concurrency < 1";
  if Array.length reqs = 0 then invalid_arg "Client.flood: no requests";
  let zero =
    { sent = 0; verdicts = 0; flood_shed = 0; flood_errors = 0; undecided = 0 }
  in
  probe ~concurrency ~total ~zero
    ~add:(fun a b ->
      {
        sent = a.sent + b.sent;
        verdicts = a.verdicts + b.verdicts;
        flood_shed = a.flood_shed + b.flood_shed;
        flood_errors = a.flood_errors + b.flood_errors;
        undecided = a.undecided + b.undecided;
      })
    (fun i ->
      let req = reqs.(i mod Array.length reqs) in
      let one = { zero with sent = 1 } in
      let req = { req with Wire.id = Printf.sprintf "f%d" i } in
      match check ?timeout_s addr req with
      | Ok (Wire.Verdict v) ->
          let undecided =
            match v.Wire.sat with Core.Experiments.Undecided _ -> 1 | _ -> 0
          in
          { one with verdicts = 1; undecided }
      | Ok (Wire.Shed _) -> { one with flood_shed = 1 }
      | Ok
          ( Wire.Spec _ | Wire.Quota _ | Wire.Bad_spec _ | Wire.Error _
          | Wire.Stats _ | Wire.Fenced _ | Wire.Repl_ack _ | Wire.Repl_frame _ )
      | Result.Error _ ->
          { one with flood_errors = 1 })

let pp_flood ppf r =
  Format.fprintf ppf
    "sent=%d verdicts=%d shed=%d errors=%d undecided=%d" r.sent r.verdicts
    r.flood_shed r.flood_errors r.undecided

(* ---- the hostile-tenant probe -------------------------------------- *)

(* Floods the submit verb, optionally mutating the base spec per
   request (the Alloylite.Fuzz operators — the wire-level continuation
   of the parser fuzz suite). The robustness contract being probed:
   every reply is a verdict, a typed diagnostic, a quota refusal or a
   shed; [spec_transport] (connection died, no reply) stays 0. *)

type spec_flood_report = {
  spec_sent : int;
  spec_verdicts : int;  (** [spec] replies (cached or computed) *)
  spec_hits : int;  (** the subset served from the verdict cache *)
  spec_typed : int;  (** [Bad_spec] replies with a span *)
  spec_quota : int;
  spec_shed : int;
  spec_transport : int;  (** no structured reply — must stay 0 *)
}

let spec_flood ?timeout_s ?(concurrency = 2) ?tenant ?cmd ?certify ?mutate_seed
    ~total addr spec =
  if concurrency < 1 then invalid_arg "Client.spec_flood: concurrency < 1";
  let zero =
    {
      spec_sent = 0;
      spec_verdicts = 0;
      spec_hits = 0;
      spec_typed = 0;
      spec_quota = 0;
      spec_shed = 0;
      spec_transport = 0;
    }
  in
  probe ~concurrency ~total ~zero
    ~add:(fun a b ->
      {
        spec_sent = a.spec_sent + b.spec_sent;
        spec_verdicts = a.spec_verdicts + b.spec_verdicts;
        spec_hits = a.spec_hits + b.spec_hits;
        spec_typed = a.spec_typed + b.spec_typed;
        spec_quota = a.spec_quota + b.spec_quota;
        spec_shed = a.spec_shed + b.spec_shed;
        spec_transport = a.spec_transport + b.spec_transport;
      })
    (fun i ->
      let body =
        match mutate_seed with
        | None -> spec
        | Some seed ->
            (* deterministic per request: seed + index, 1–3 steps *)
            let rng = Netsim.Rng.create (seed + i) in
            let steps = 1 + Netsim.Rng.int rng 3 in
            let rec apply k s =
              if k = 0 then s else apply (k - 1) (Alloylite.Fuzz.mutate rng s)
            in
            apply steps spec
      in
      let one = { zero with spec_sent = 1 } in
      match
        submit ?timeout_s ~id:(Printf.sprintf "sf%d" i) ?tenant ?cmd ?certify
          addr body
      with
      | Ok (Wire.Spec s) ->
          {
            one with
            spec_verdicts = 1;
            spec_hits = Bool.to_int s.Wire.spec_cached;
          }
      | Ok (Wire.Bad_spec _) -> { one with spec_typed = 1 }
      | Ok (Wire.Quota _) -> { one with spec_quota = 1 }
      | Ok (Wire.Shed _) -> { one with spec_shed = 1 }
      | Ok
          ( Wire.Verdict _ | Wire.Error _ | Wire.Stats _ | Wire.Fenced _
          | Wire.Repl_ack _ | Wire.Repl_frame _ )
      | Result.Error _ ->
          { one with spec_transport = 1 })

let pp_spec_flood ppf r =
  Format.fprintf ppf
    "sent=%d verdicts=%d cached=%d typed=%d quota=%d shed=%d transport=%d"
    r.spec_sent r.spec_verdicts r.spec_hits r.spec_typed r.spec_quota
    r.spec_shed r.spec_transport
