(** The service's wire protocol: newline-framed {!Parallel.Record}
    lines, the format of the sweep-journal records
    ({!Core.Experiments.cell_record}) too — one vocabulary for
    requests, replies, and the on-disk journal.

    Frames on the wire:

    {v
    check|1|id=r1|policy=submod|n=2|j=2|st=5|vals=6|seed=1|deadline=2.5
    submit|1|id=s1|tenant=alice|bytes=212|cmd=uniqueID|certify=true
    stats|1
    verdict|1|id=r1|proto=1|sat=holds|exh=holds|sim=true|rung=cdcl|cached=false|secs=0.41
    spec|1|id=s1|proto=1|digest=9af..|cmd=check uniqueID|verdict=holds|cert=true|cached=false|secs=0.12
    shed|1|id=|proto=1|depth=8|cap=8
    quota|1|id=s1|proto=1|tenant=mallory|retry=0.180
    error|1|id=s1|proto=1|stage=parse|line=3|col=7|eline=3|ecol=8|msg=...|hint=...
    error|1|id=r1|proto=1|msg=unknown policy
    stats|1|proto=1|accepted=12|admitted=9|shed=3|...
    fence|1|id=co2|epoch=2
    fenced|1|id=r9|proto=1|epoch=2
    repl-hello|1|id=sb1|from=4
    repl-ack|1|proto=1|epoch=1|from=4|have=6
    repl-frame|1|idx=4|fp=9af31c02|rec=cell%7c1%7cseed=1...
    v}

    A [submit] header line is followed by exactly [bytes] raw body
    bytes (the spec text, unescaped, newlines allowed) — the only
    frame that is not one line. The declared length is capped at
    {!max_spec_bytes} before a single body byte is read.

    Forward compatibility: parsers on both sides ignore [key=value]
    fields they do not recognize, and every reply carries a
    [proto={!proto_version}] field — a coordinator and its workers can
    be upgraded independently, one protocol revision apart, without
    either side rejecting the other's messages. *)

val proto_version : int
(** The protocol revision this build speaks (currently [1]), stamped
    into every rendered reply. *)

type request = {
  id : string;  (** client-chosen correlation id, echoed in the reply *)
  policy : string;  (** a paper-grid label, e.g. ["submod+release"] *)
  agents : int;
  items : int;
  states : int;  (** trace length (netState scope) *)
  values : int;  (** bid levels of the efficient encoding *)
  seed : int;  (** utility seed — part of the cell identity *)
  deadline_s : float option;
      (** wall-clock allowance for this request, from the moment a
          worker picks it up; capped by the server's [max_deadline] *)
  epoch : int option;
      (** the sending coordinator's leadership epoch. Workers remember
          the highest epoch they have seen and answer a lower one with
          {!Fenced} instead of doing any work — the split-brain guard
          for replicated coordinators. [None] (legacy clients, plain
          [mca_serve --client]) is never fenced. *)
}

val request :
  ?id:string -> ?agents:int -> ?items:int -> ?states:int -> ?values:int ->
  ?seed:int -> ?deadline_s:float -> ?epoch:int -> string -> request
(** [request policy] with the sweep defaults (2p/2v, 5 states,
    6 values, seed 1, no deadline, no epoch). *)

val scope_of_request : request -> string * Core.Mca_model.scope_spec
(** The (scope tag, scope) pair, tagged exactly as [mca_check --sweep]
    tags it — so journal records are interchangeable between the two. *)

val max_spec_bytes : int
(** Absolute framing cap on a submitted spec body (1 MiB). A header
    declaring more is rejected before any body byte is read,
    regardless of the per-server configured cap. *)

type submit_header = {
  sub_id : string;  (** client-chosen correlation id, echoed back *)
  tenant : string;  (** quota/fairness identity; [""] = anonymous *)
  spec_bytes : int;  (** declared body length following the header *)
  sub_cmd : string option;
      (** named check/run command to execute; [None] = the file's first *)
  certify : bool;  (** ask for a DRUP-certified verdict *)
  sub_deadline_s : float option;
}

val submit :
  ?id:string -> ?tenant:string -> ?cmd:string -> ?certify:bool ->
  ?deadline_s:float -> spec_bytes:int -> unit -> submit_header

type spec_verdict =
  | Spec_holds  (** check command: assertion holds in scope *)
  | Spec_counterexample  (** check command: counterexample exists *)
  | Spec_instance  (** run command: satisfying instance exists *)
  | Spec_none  (** run command: no instance in scope *)
  | Spec_unknown of string  (** budget or deadline exhausted; reason *)

val spec_verdict_to_wire : spec_verdict -> string
val spec_verdict_of_wire : string -> spec_verdict option

type spec_reply = {
  spec_id : string;
  digest : string;  (** content address (hex) of the spec text *)
  command : string;  (** the command that ran, e.g. ["check uniqueID"] *)
  spec_verdict : spec_verdict;
  certified : bool;  (** the refutation was DRUP-checked *)
  spec_cached : bool;  (** served from the verdict cache *)
  spec_secs : float;  (** solve seconds (the original ones on a hit) *)
}

type verdict_reply = {
  req_id : string;
  sat : Core.Experiments.sweep_verdict;
  exhaustive : Core.Experiments.sweep_verdict;
  sim_ok : bool;
  rung : string;
      (** which ladder rung answered the SAT column: ["cdcl"],
          ["explicit"], ["journal"] (cache hit) or ["none"] *)
  cached : bool;
  secs : float;
}

type response =
  | Verdict of verdict_reply
  | Spec of spec_reply
  | Shed of { req_id : string; depth : int; capacity : int }
      (** admission refused: queue depth was at the watermark *)
  | Quota of { req_id : string; tenant : string; retry_after_s : float }
      (** per-tenant admission refused: token bucket empty or the
          tenant already holds its fair share of the queue *)
  | Bad_spec of { req_id : string; diag : Alloylite.Diag.t }
      (** typed rejection of a submitted spec, carrying the stage,
          span and hint of {!Alloylite.Diag}; rendered as an [error]
          frame with extra [stage=…|line=…|col=…] keys so old clients
          still see a refusal *)
  | Error of { req_id : string; msg : string }
  | Stats of (string * int) list
  | Fenced of { req_id : string; fenced_epoch : int }
      (** the request carried a coordinator epoch below this worker's
          watermark: a newer coordinator has announced itself at
          [fenced_epoch], so the worker refuses the deposed one —
          no verification runs and nothing is journaled *)
  | Repl_ack of { repl_epoch : int; repl_from : int; repl_have : int }
      (** replication handshake reply: the primary's current epoch,
          the acknowledged standby position, and the primary's record
          count; [Repl_frame] lines for [repl_from..repl_have-1]
          follow on the same connection *)
  | Repl_frame of { frame_idx : int; frame_fp : string; frame_rec : string }
      (** one replicated journal record with its index and the CRC-32
          fingerprint of its bytes (verified by the standby before the
          record enters the replica journal) *)

type incoming =
  | Check of request
  | Submit of submit_header
  | Get_stats
  | Fence of { fence_id : string; fence_epoch : int }
      (** raise this worker's epoch watermark to [fence_epoch] — sent
          by a coordinator announcing itself before dispatching work,
          so a deposed primary's next request is refused *)
  | Repl_hello of { repl_id : string; repl_from : int }
      (** a standby asking for journal records from [repl_from] on *)

val render_request : request -> string

val render_submit_header : submit_header -> string
(** The header line only — the caller sends the raw body bytes after
    the terminating newline. *)

val stats_request : string

val render_fence : id:string -> epoch:int -> string
(** The one-line [fence|1|id=…|epoch=…] request. *)

val render_repl_hello : id:string -> from:int -> string
(** The one-line [repl-hello|1|id=…|from=…] request. *)

val parse_incoming : string -> (incoming, string) result
(** Server side; the error string is safe to echo back to the client. *)

val render_response : response -> string
val parse_response : string -> (response, string) result
val pp_response : Format.formatter -> response -> unit
