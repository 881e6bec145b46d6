(** Blocking client for the verification service: one newline-framed
    request and one reply per connection. *)

(** {2 Connections}

    The connecting side of the service's sockets (the listening side is
    {!Server.listen}), exposed for protocol extensions that read more
    than one line per connection (the replication puller and publisher
    in {!Repl}) and for the fault shim's upstream leg ({!Shim}). *)

val connect : ?timeout_s:float -> Server.addr -> Unix.file_descr
(** Connected socket with send/receive timeouts set. Raises on
    failure (callers wrap). *)

val send_all : Unix.file_descr -> string -> unit
(** Writes the whole string, retrying [EINTR]. Raises on a write
    error or a closed peer. *)

val line_reader : Unix.file_descr -> unit -> string option
(** A buffered reader of newline-terminated lines from one socket:
    each call returns the next line without its newline, or [None] on
    a clean EOF before any byte of it. It reads a chunk at a time and
    keeps the bytes past a newline for the next call. Raises [Failure]
    past 64 KiB without a newline, and [Unix.Unix_error] when a read
    fails or times out ([EINTR] is retried). *)

val with_connection :
  ?timeout_s:float ->
  Server.addr ->
  (Unix.file_descr -> (unit -> string option) -> ('a, string) result) ->
  ('a, string) result
(** Connects ({!connect}), runs the exchange with the socket and its
    {!line_reader}, and closes the socket. A failed connect and any
    exception of the exchange come back as [Error _]. *)

val roundtrip :
  ?timeout_s:float ->
  Server.addr -> string -> (Wire.response, string) result
(** Sends one raw request line and parses the one reply line.
    [timeout_s] (default 10) bounds connect and each socket
    read/write. Transport failures come back as [Error _], never an
    exception. *)

val check :
  ?timeout_s:float ->
  Server.addr -> Wire.request -> (Wire.response, string) result

val get_stats :
  ?timeout_s:float -> Server.addr -> ((string * int) list, string) result

val fence :
  ?timeout_s:float ->
  ?id:string -> Server.addr -> epoch:int -> (int, string) result
(** Raises the worker's coordinator-epoch watermark to at least [epoch]
    and returns the watermark after the raise. Sent by a coordinator
    announcing itself (primary at startup, standby at takeover) before
    it dispatches any work, so that a deposed coordinator's next
    request meets a [fenced] refusal. Idempotent and monotonic —
    re-sending after a transport failure is always safe. *)

val submit :
  ?timeout_s:float ->
  ?id:string ->
  ?tenant:string ->
  ?cmd:string ->
  ?certify:bool ->
  ?deadline_s:float ->
  Server.addr -> string -> (Wire.response, string) result
(** Submits a mini-Alloy spec text: sends the [submit] header line
    followed by the raw body bytes, then reads the one reply — a
    [Spec] verdict, a [Bad_spec] diagnostic, a [Quota] or [Shed]
    refusal. A body-write failure (the server refused from the header
    alone and closed) is swallowed so the refusal reply is still
    read. *)

(** Outcome of a {!check_retry} or {!submit_retry}: how many tries, and
    why the last failure (if any) was returned instead of retried. *)
type retry_report = {
  attempts : int;  (** total tries, including the first *)
  retried_shed : int;  (** shed replies waited out (check only) *)
  retried_transport : int;
  retried_quota : int;  (** quota refusals waited out (submit only) *)
  gave_up : string option;
      (** [Some _] only when the returned reply is still a failure:
          ["retries exhausted"] or ["retry budget exhausted"] *)
}

val check_retry :
  ?timeout_s:float ->
  ?retries:int ->
  ?retry_budget_s:float ->
  ?backoff:Netsim.Backoff.t ->
  ?seed:int ->
  Server.addr -> Wire.request -> (Wire.response, string) result * retry_report
(** {!check} that retries transport failures (connection refused during
    a restart, a connection closed before the reply) and explicit [shed]
    replies — both transient, and a check is a pure verification problem
    so re-asking is always safe. [retries] (default 0: behave exactly
    like {!check}) bounds the re-asks; [retry_budget_s] additionally
    caps the total wall clock including backoff sleeps. Delays come from
    [backoff] (default {!Netsim.Backoff.make}[ ()]: 50 ms base, 2 s cap,
    ±25% jitter) drawn from the per-request
    {!Netsim.Backoff.stream} [~seed ~key:("client/" ^ policy ^ "/" ^ id)],
    so many clients shed at the same instant spread their retries out
    instead of re-flooding in lockstep. *)

val submit_retry :
  ?timeout_s:float ->
  ?id:string ->
  ?tenant:string ->
  ?cmd:string ->
  ?certify:bool ->
  ?deadline_s:float ->
  ?retries:int ->
  ?retry_budget_s:float ->
  ?backoff:Netsim.Backoff.t ->
  ?seed:int ->
  Server.addr -> string -> (Wire.response, string) result * retry_report
(** {!submit} with the same jittered-backoff retry machinery as
    {!check_retry}, retrying only transport failures and [quota]
    refusals — safe because verdicts are content-addressed, so a
    duplicate submission can only hit the cache. A [quota] reply's
    [retry=…] hint is honored as a floor under the backoff delay.
    [shed] replies are {e not} retried (global overload — a refusal
    with substance), and neither are spec verdicts or typed
    diagnostics. *)

(** The overload probe: hammer the server from several domains and
    tally how every request was answered. The CI smoke job floods at
    several times the queue capacity and asserts that the excess got
    explicit [shed] replies — no crash, no hang, no silent drop. *)
type flood_report = {
  sent : int;
  verdicts : int;
  flood_shed : int;
  flood_errors : int;  (** error replies and transport failures *)
  undecided : int;  (** verdict replies whose SAT column is [Undecided] *)
}

val flood :
  ?timeout_s:float ->
  ?concurrency:int ->
  total:int -> Server.addr -> Wire.request array -> flood_report
(** Sends [total] requests round-robin from [reqs] (ids rewritten to
    ["f<i>"]) using [concurrency] (default 4) client domains. *)

val pp_flood : Format.formatter -> flood_report -> unit

(** The hostile-tenant probe: flood the [submit] verb, optionally
    mutating the base spec per request with the {!Alloylite.Fuzz}
    operators. The contract asserted by the CI smoke job: every
    request gets a structured reply — a verdict, a typed spanned
    diagnostic, a quota refusal or a shed — so [spec_transport]
    (and the untyped-error bucket folded into it) stays 0. *)
type spec_flood_report = {
  spec_sent : int;
  spec_verdicts : int;  (** [spec] replies (cached or computed) *)
  spec_hits : int;  (** the subset served from the verdict cache *)
  spec_typed : int;  (** [Bad_spec] replies carrying a span *)
  spec_quota : int;
  spec_shed : int;
  spec_transport : int;  (** no structured reply, or an untyped error *)
}

val spec_flood :
  ?timeout_s:float ->
  ?concurrency:int ->
  ?tenant:string ->
  ?cmd:string ->
  ?certify:bool ->
  ?mutate_seed:int ->
  total:int -> Server.addr -> string -> spec_flood_report
(** Sends [total] submissions of [spec] (ids ["sf<i>"]) from
    [concurrency] (default 2) domains. With [mutate_seed], request [i]
    instead sends the base spec after 1–3 deterministic
    {!Alloylite.Fuzz.mutate} steps seeded with [seed + i]. *)

val pp_spec_flood : Format.formatter -> spec_flood_report -> unit
