(* Newline-framed key=value wire protocol in the {!Parallel.Record}
   format of the journals (pipe-separated fields, percent escaping).
   One line = one message; a check request names a policy-matrix cell
   and the verdict reply carries the same three-column verdict as a
   sweep cell, so the service, the sweep and the journal all speak one
   vocabulary. *)

module R = Parallel.Record

type request = {
  id : string;
  policy : string;
  agents : int;
  items : int;
  states : int;
  values : int;
  seed : int;
  deadline_s : float option;
  epoch : int option;
      (** coordinator leadership epoch; [None] = unfenced legacy client *)
}

let request ?(id = "") ?(agents = 2) ?(items = 2) ?(states = 5) ?(values = 6)
    ?(seed = 1) ?deadline_s ?epoch policy =
  { id; policy; agents; items; states; values; seed; deadline_s; epoch }

let scope_of_request r =
  ( Printf.sprintf "%dp%dv/%dst" r.agents r.items r.states,
    {
      Core.Mca_model.pnodes = r.agents;
      vnodes = r.items;
      states = r.states;
      values = r.values;
      bitwidth = 4;
    } )

(* ---- tenant spec submission --------------------------------------- *)

(* The absolute framing cap: a submit header declaring more body bytes
   than this is malformed, full stop — the server never reads past it
   no matter how the per-server [max_spec_bytes] is configured. *)
let max_spec_bytes = 1 lsl 20

type submit_header = {
  sub_id : string;
  tenant : string;  (** quota/fairness identity; [""] = anonymous *)
  spec_bytes : int;  (** declared body length following the header line *)
  sub_cmd : string option;  (** named command to run; [None] = first *)
  certify : bool;
  sub_deadline_s : float option;
}

let submit ?(id = "") ?(tenant = "") ?cmd ?(certify = false) ?deadline_s
    ~spec_bytes () =
  { sub_id = id; tenant; spec_bytes; sub_cmd = cmd; certify;
    sub_deadline_s = deadline_s }

type spec_verdict =
  | Spec_holds
  | Spec_counterexample
  | Spec_instance
  | Spec_none
  | Spec_unknown of string

let spec_verdict_to_wire = function
  | Spec_holds -> "holds"
  | Spec_counterexample -> "counterexample"
  | Spec_instance -> "instance"
  | Spec_none -> "none"
  | Spec_unknown r -> R.unknown r

let spec_verdict_of_wire = function
  | "holds" -> Some Spec_holds
  | "counterexample" -> Some Spec_counterexample
  | "instance" -> Some Spec_instance
  | "none" -> Some Spec_none
  | s -> Option.map (fun r -> Spec_unknown r) (R.unknown_reason s)

type spec_reply = {
  spec_id : string;
  digest : string;  (** content address of the submitted spec text *)
  command : string;  (** the command that was run, e.g. ["check a"] *)
  spec_verdict : spec_verdict;
  certified : bool;
  spec_cached : bool;
  spec_secs : float;  (** solve seconds (the original ones on a hit) *)
}

type verdict_reply = {
  req_id : string;
  sat : Core.Experiments.sweep_verdict;
  exhaustive : Core.Experiments.sweep_verdict;
  sim_ok : bool;
  rung : string;  (** ladder rung that answered the SAT column *)
  cached : bool;  (** served from the journal, no verification re-run *)
  secs : float;
}

type response =
  | Verdict of verdict_reply
  | Spec of spec_reply
  | Shed of { req_id : string; depth : int; capacity : int }
  | Quota of { req_id : string; tenant : string; retry_after_s : float }
      (** per-tenant admission refused: token bucket empty or fair
          share of the queue already held *)
  | Bad_spec of { req_id : string; diag : Alloylite.Diag.t }
      (** a typed, span-carrying rejection of the submitted spec *)
  | Error of { req_id : string; msg : string }
  | Stats of (string * int) list
  | Fenced of { req_id : string; fenced_epoch : int }
      (** the request carried a stale coordinator epoch: a newer
          coordinator has taken over at [fenced_epoch] and this worker
          refuses to do (or journal) any work for the deposed one *)
  | Repl_ack of { repl_epoch : int; repl_from : int; repl_have : int }
      (** replication handshake reply: the primary speaks epoch
          [repl_epoch], acknowledges the standby's position [repl_from]
          and holds [repl_have] journal records; [repl-frame] lines for
          records [repl_from..repl_have-1] follow on the same
          connection *)
  | Repl_frame of { frame_idx : int; frame_fp : string; frame_rec : string }
      (** one replicated journal record: its index in the primary's
          journal, the CRC-32 of its bytes (the same fingerprint
          {!Parallel.Journal} frames with), and the record itself *)

type incoming =
  | Check of request
  | Submit of submit_header
  | Get_stats
  | Fence of { fence_id : string; fence_epoch : int }
      (** raise this worker's epoch watermark — a new coordinator
          announcing itself before dispatching any work *)
  | Repl_hello of { repl_id : string; repl_from : int }
      (** a standby asking the primary for journal records from index
          [repl_from] on *)

(* ---- rendering ---- *)

let render_request r =
  Printf.sprintf "check|1|id=%s|policy=%s|n=%d|j=%d|st=%d|vals=%d|seed=%d%s%s"
    (R.escape r.id) (R.escape r.policy) r.agents r.items r.states r.values
    r.seed
    (match r.deadline_s with
    | None -> ""
    | Some d -> Printf.sprintf "|deadline=%.6f" d)
    (match r.epoch with
    | None -> ""
    | Some e -> Printf.sprintf "|epoch=%d" e)

let stats_request = "stats|1"

let render_fence ~id ~epoch =
  Printf.sprintf "fence|1|id=%s|epoch=%d" (R.escape id) epoch

let render_repl_hello ~id ~from =
  Printf.sprintf "repl-hello|1|id=%s|from=%d" (R.escape id) from

(* The submit header line. The spec body — exactly [spec_bytes] raw
   bytes, NOT escaped and possibly containing newlines — follows
   immediately after the header's terminating newline. *)
let render_submit_header h =
  Printf.sprintf "submit|1|id=%s|tenant=%s|bytes=%d%s%s%s" (R.escape h.sub_id)
    (R.escape h.tenant) h.spec_bytes
    (match h.sub_cmd with
    | None -> ""
    | Some c -> Printf.sprintf "|cmd=%s" (R.escape c))
    (if h.certify then "|certify=true" else "")
    (match h.sub_deadline_s with
    | None -> ""
    | Some d -> Printf.sprintf "|deadline=%.6f" d)

(* Every reply names the protocol revision it speaks ([proto=1]).
   Parsers ignore keys they do not know (and a coordinator may meet
   workers one revision away in either direction), so the field is
   advisory today — but it is the hook that lets a future revision be
   negotiated instead of guessed. Placed right after [id] so the
   verdict-column runs ([sat=…|exh=…|sim=…], [rung=…|cached=…]) the
   smoke jobs grep for stay contiguous. *)
let proto_version = 1

let render_response = function
  | Verdict v ->
      Printf.sprintf
        "verdict|1|id=%s|proto=%d|sat=%s|exh=%s|sim=%b|rung=%s|cached=%b|secs=%.6f"
        (R.escape v.req_id) proto_version
        (Core.Experiments.verdict_to_wire v.sat)
        (Core.Experiments.verdict_to_wire v.exhaustive)
        v.sim_ok (R.escape v.rung) v.cached v.secs
  | Spec s ->
      Printf.sprintf
        "spec|1|id=%s|proto=%d|digest=%s|cmd=%s|verdict=%s|cert=%b|cached=%b|secs=%.6f"
        (R.escape s.spec_id) proto_version (R.escape s.digest)
        (R.escape s.command)
        (spec_verdict_to_wire s.spec_verdict)
        s.certified s.spec_cached s.spec_secs
  | Shed s ->
      Printf.sprintf "shed|1|id=%s|proto=%d|depth=%d|cap=%d"
        (R.escape s.req_id) proto_version s.depth s.capacity
  | Quota q ->
      Printf.sprintf "quota|1|id=%s|proto=%d|tenant=%s|retry=%.3f"
        (R.escape q.req_id) proto_version (R.escape q.tenant) q.retry_after_s
  | Bad_spec b ->
      (* rendered as an [error] reply so one-revision-old clients still
         see a refusal; the extra span keys are what typed clients use *)
      let d = b.diag in
      Printf.sprintf
        "error|1|id=%s|proto=%d|stage=%s|line=%d|col=%d|eline=%d|ecol=%d|msg=%s%s"
        (R.escape b.req_id) proto_version
        (Alloylite.Diag.stage_name d.Alloylite.Diag.stage)
        d.span.line d.span.col d.span.end_line d.span.end_col
        (R.escape (Alloylite.Diag.to_string d))
        (match d.hint with
        | None -> ""
        | Some h -> Printf.sprintf "|hint=%s" (R.escape h))
  | Error e ->
      Printf.sprintf "error|1|id=%s|proto=%d|msg=%s" (R.escape e.req_id)
        proto_version (R.escape e.msg)
  | Stats kvs ->
      String.concat "|"
        ("stats" :: "1"
        :: Printf.sprintf "proto=%d" proto_version
        :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" (R.escape k) v) kvs)
  | Fenced f ->
      Printf.sprintf "fenced|1|id=%s|proto=%d|epoch=%d" (R.escape f.req_id)
        proto_version f.fenced_epoch
  | Repl_ack a ->
      Printf.sprintf "repl-ack|1|proto=%d|epoch=%d|from=%d|have=%d"
        proto_version a.repl_epoch a.repl_from a.repl_have
  | Repl_frame f ->
      Printf.sprintf "repl-frame|1|idx=%d|fp=%s|rec=%s" f.frame_idx
        (R.escape f.frame_fp) (R.escape f.frame_rec)

(* ---- parsing ---- *)

let positive name = function
  | Some n when n >= 1 -> Ok n
  | Some _ -> Result.Error (Printf.sprintf "non-positive %s" name)
  | None -> Result.Error (Printf.sprintf "missing %s" name)

let deadline assoc =
  match R.raw assoc "deadline" with
  | None -> Ok None
  | Some d -> (
      match float_of_string_opt d with
      | Some d when d > 0.0 -> Ok (Some d)
      | _ -> Result.Error "invalid deadline")

let parse_incoming line =
  match R.parse line with
  | Some ("stats", _) -> Ok Get_stats
  | Some ("check", assoc) ->
      let ( let* ) = Result.bind in
      let* policy =
        Option.to_result ~none:"missing policy" (R.str assoc "policy")
      in
      let* agents = positive "n" (R.int assoc "n") in
      let* items = positive "j" (R.int assoc "j") in
      let* states = positive "st" (R.int assoc "st") in
      let* values = positive "vals" (R.int assoc "vals") in
      let* deadline_s = deadline assoc in
      Ok
        (Check
           {
             id = Option.value (R.str assoc "id") ~default:"";
             policy; agents; items; states; values;
             seed = Option.value (R.int assoc "seed") ~default:1;
             deadline_s;
             epoch = R.int assoc "epoch";
           })
  | Some ("fence", assoc) -> (
      match R.int assoc "epoch" with
      | Some e when e >= 1 ->
          Ok
            (Fence
               {
                 fence_id = Option.value (R.str assoc "id") ~default:"";
                 fence_epoch = e;
               })
      | _ -> Result.Error "fence without a positive epoch")
  | Some ("repl-hello", assoc) -> (
      match R.int assoc "from" with
      | Some from when from >= 0 ->
          Ok
            (Repl_hello
               {
                 repl_id = Option.value (R.str assoc "id") ~default:"";
                 repl_from = from;
               })
      | _ -> Result.Error "repl-hello without a valid position")
  | Some ("submit", assoc) ->
      let ( let* ) = Result.bind in
      let* spec_bytes =
        Option.to_result ~none:"missing bytes" (R.int assoc "bytes")
      in
      let* spec_bytes =
        if spec_bytes < 0 then Result.Error "negative bytes"
        else if spec_bytes > max_spec_bytes then
          Result.Error
            (Printf.sprintf "declared body of %d bytes exceeds framing cap %d"
               spec_bytes max_spec_bytes)
        else Ok spec_bytes
      in
      let* sub_deadline_s = deadline assoc in
      Ok
        (Submit
           {
             sub_id = Option.value (R.str assoc "id") ~default:"";
             tenant = Option.value (R.str assoc "tenant") ~default:"";
             spec_bytes;
             sub_cmd = R.str assoc "cmd";
             certify = Option.value ~default:false (R.bool assoc "certify");
             sub_deadline_s;
           })
  | Some (kind, _) -> Result.Error (Printf.sprintf "unknown request kind %S" kind)
  | None -> Result.Error "malformed request line"

let parse_response line =
  match R.parse line with
  | Some ("verdict", assoc) -> (
      let ( let* ) = Result.bind in
      let* sat =
        Option.to_result ~none:"missing sat verdict"
          (Option.bind (R.raw assoc "sat") Core.Experiments.verdict_of_wire)
      in
      let* exhaustive =
        Option.to_result ~none:"missing exh verdict"
          (Option.bind (R.raw assoc "exh") Core.Experiments.verdict_of_wire)
      in
      let* sim_ok =
        Option.to_result ~none:"missing sim flag" (R.bool assoc "sim")
      in
      let cached = Option.value ~default:false (R.bool assoc "cached") in
      let secs = Option.value ~default:0.0 (R.float assoc "secs") in
      Ok
        (Verdict
           {
             req_id = Option.value (R.str assoc "id") ~default:"";
             sat;
             exhaustive;
             sim_ok;
             rung = Option.value (R.str assoc "rung") ~default:"";
             cached;
             secs;
           }))
  | Some ("spec", assoc) -> (
      let ( let* ) = Result.bind in
      let* spec_verdict =
        Option.to_result ~none:"missing spec verdict"
          (Option.bind (R.raw assoc "verdict") spec_verdict_of_wire)
      in
      Ok
        (Spec
           {
             spec_id = Option.value (R.str assoc "id") ~default:"";
             digest = Option.value (R.str assoc "digest") ~default:"";
             command = Option.value (R.str assoc "cmd") ~default:"";
             spec_verdict;
             certified = Option.value ~default:false (R.bool assoc "cert");
             spec_cached = Option.value ~default:false (R.bool assoc "cached");
             spec_secs = Option.value ~default:0.0 (R.float assoc "secs");
           }))
  | Some ("shed", assoc) ->
      Ok
        (Shed
           {
             req_id = Option.value (R.str assoc "id") ~default:"";
             depth = Option.value (R.int assoc "depth") ~default:0;
             capacity = Option.value (R.int assoc "cap") ~default:0;
           })
  | Some ("quota", assoc) ->
      Ok
        (Quota
           {
             req_id = Option.value (R.str assoc "id") ~default:"";
             tenant = Option.value (R.str assoc "tenant") ~default:"";
             retry_after_s = Option.value ~default:0.0 (R.float assoc "retry");
           })
  | Some ("error", assoc) -> (
      let req_id = Option.value (R.str assoc "id") ~default:"" in
      let msg = Option.value (R.str assoc "msg") ~default:"" in
      (* an [error] carrying a [stage] key is a typed spec rejection *)
      match Option.bind (R.str assoc "stage") Alloylite.Diag.stage_of_name with
      | Some stage ->
          let at k d = Option.value (R.int assoc k) ~default:d in
          let line = at "line" 1 and col = at "col" 1 in
          let hint = R.str assoc "hint" in
          (* the [msg] field carries the full rendered diagnostic for the
             benefit of pre-submit clients; strip the location prefix and
             hint suffix back off so re-rendering is idempotent *)
          let msg =
            let prefix =
              Printf.sprintf "%s error: line %d, col %d: "
                (Alloylite.Diag.stage_name stage)
                line col
            in
            let msg =
              if String.starts_with ~prefix msg then
                String.sub msg (String.length prefix)
                  (String.length msg - String.length prefix)
              else msg
            in
            match hint with
            | None -> msg
            | Some h ->
                let suffix = Printf.sprintf " (hint: %s)" h in
                if String.ends_with ~suffix msg then
                  String.sub msg 0 (String.length msg - String.length suffix)
                else msg
          in
          Ok
            (Bad_spec
               {
                 req_id;
                 diag =
                   {
                     Alloylite.Diag.stage;
                     span =
                       {
                         line;
                         col;
                         end_line = at "eline" line;
                         end_col = at "ecol" col;
                       };
                     msg;
                     hint;
                   };
               })
      | None -> Ok (Error { req_id; msg }))
  | Some ("stats", assoc) ->
      Ok
        (Stats
           (List.filter_map
              (fun (k, v) ->
                (* [proto] is framing metadata, not a counter *)
                if k = "proto" then None
                else
                  Option.map (fun n -> (R.unescape k, n)) (int_of_string_opt v))
              assoc))
  | Some ("fenced", assoc) -> (
      match R.int assoc "epoch" with
      | Some e ->
          Ok
            (Fenced
               {
                 req_id = Option.value (R.str assoc "id") ~default:"";
                 fenced_epoch = e;
               })
      | None -> Result.Error "fenced reply without an epoch")
  | Some ("repl-ack", assoc) -> (
      match
        (R.int assoc "epoch", R.int assoc "from", R.int assoc "have")
      with
      | Some repl_epoch, Some repl_from, Some repl_have
        when repl_from >= 0 && repl_have >= 0 ->
          Ok (Repl_ack { repl_epoch; repl_from; repl_have })
      | _ -> Result.Error "malformed repl-ack")
  | Some ("repl-frame", assoc) -> (
      match (R.int assoc "idx", R.str assoc "fp", R.str assoc "rec") with
      | Some frame_idx, Some frame_fp, Some frame_rec when frame_idx >= 0 ->
          Ok (Repl_frame { frame_idx; frame_fp; frame_rec })
      | _ -> Result.Error "malformed repl-frame")
  | Some (kind, _) -> Result.Error (Printf.sprintf "unknown response kind %S" kind)
  | None -> Result.Error "malformed response line"

let pp_response ppf r = Format.pp_print_string ppf (render_response r)
