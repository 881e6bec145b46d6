(** The overload-safe verification daemon.

    Serves {!Wire} [check] requests — one policy-matrix cell each, the
    same verdict vocabulary as [mca_check --sweep] — over a Unix or TCP
    socket, one newline-framed request per connection. The [submit]
    verb additionally accepts a tenant-supplied mini-Alloy spec body
    (header line + declared byte count), runs it through the
    {!Speccheck} pipeline under per-tenant {!Tenant} admission, and
    answers with a verdict, a typed span-carrying diagnostic, a
    [quota] refusal or a [shed] — never a raw exception, never a hang:
    spec size is capped at the framing layer, scope is capped by
    {!Alloylite.Compile.universe_estimate} before translation, and the
    solve runs under the same deadline/budget regime as [check].
    Decided submit verdicts are content-addressed — journaled as
    [spec|1|…] records next to the sweep's cells and replayed
    byte-identically on resubmission.

    Overload behaviour is explicit, never emergent:

    - {b admission control}: a request is admitted only when
      {!Parallel.Bqueue.try_push} onto the bounded queue succeeds;
      otherwise the client gets a [shed] reply immediately. The
      acceptor never blocks — not on the queue (non-blocking push), not
      on clients (non-blocking sockets under [select], slow readers
      dropped after [io_deadline]).
    - {b deadline propagation}: every admitted request runs under one
      {!Netsim.Budget}: its deadline ([default_deadline] unless the
      client asked, capped by [max_deadline]) and a hook that cancels
      on abort or past that deadline. Each stage takes a
      {!Netsim.Budget.share} of it when it starts.
    - {b graceful degradation}: the SAT column is answered by the
      {!Ladder} (CDCL → explicit → [UNKNOWN]), with a per-rung
      {!Breaker} so a timing-out backend is skipped while it cools off.
    - {b drain on stop}: {!stop} (the SIGTERM handler's one call —
      it only flips an [Atomic]) stops admissions; queued requests
      complete, are answered and journaled, then workers exit and
      {!join} returns. A restart — or [mca_check --sweep --resume] —
      picks the completed verdicts up from the journal.

    With [journal = Some path] the server keeps a CRC-framed write-ahead
    journal of every {e decided} cell ({!Core.Experiments.cell_record}
    format) and serves repeat requests from it ([rung=journal],
    [cached=true]); [Undecided] answers are never journaled — they
    describe one moment's load, not the cell. *)

type addr = Unix_path of string | Tcp of string * int

val sockaddr_of : addr -> Unix.sockaddr

val pp_addr : Format.formatter -> addr -> unit
(** [unix:PATH] or [tcp:HOST:PORT]. *)

val addr_of_string : string -> (addr, string) result
(** Reads what {!pp_addr} prints; a bare path is a Unix socket and an
    empty host is [127.0.0.1]. The address syntax of the service
    binaries. *)

(** {2 Sockets}

    The listening side shared by the daemon, the replication publisher
    ({!Repl}) and the fault shim ({!Shim}); the connecting side is
    {!Client}. *)

val listen : addr -> Unix.file_descr
(** A bound, listening stream socket (blocking; callers that select
    set it non-blocking). A stale Unix socket file at the path is
    replaced. Raises [Unix.Unix_error] when the address cannot be
    bound. *)

val close_quiet : Unix.file_descr -> unit
(** [Unix.close], ignoring errors. *)

val unlink : addr -> unit
(** Removes a Unix socket's path, ignoring errors; nothing for TCP. *)

type config = {
  addr : addr;
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** admission watermark: a full queue sheds *)
  default_deadline : float;  (** seconds per request when none given *)
  max_deadline : float;  (** cap on client-requested deadlines *)
  io_deadline : float;  (** client socket read/write allowance *)
  seed : int;  (** cell identity seed, as in [mca_check --sweep] *)
  journal : string option;
  trip_after : int;  (** breaker: consecutive timeouts before opening *)
  breaker_base_s : float;
  breaker_cap_s : float;
  max_spec_bytes : int;
      (** [submit] body cap; must not exceed {!Wire.max_spec_bytes}.
          An oversized declaration is refused with a typed [Cap]
          diagnostic before any body byte is read. *)
  max_atoms : int;  (** submit universe-estimate ceiling (pre-translation) *)
  max_tuples : int;  (** submit field-tuple ceiling (pre-translation) *)
  quota_rate : float;  (** per-tenant sustained submissions per second *)
  quota_burst : float;  (** per-tenant burst allowance *)
}

val default_config : addr -> config
(** 2 workers, queue of 8, 30 s default / 120 s max deadline, 5 s I/O
    allowance, seed 1, no journal, breakers trip after 3 with 0.5–30 s
    cooldowns; submit caps and quotas from {!Speccheck.default_caps}
    and {!Tenant.default_config}. *)

type t

val start : config -> t
(** Binds, listens and spawns the acceptor and worker domains. Ignores
    SIGPIPE (a dropped client must not kill the server). Raises
    [Invalid_argument] for non-positive [jobs]/[queue_cap] and
    [Unix.Unix_error] when the address cannot be bound. *)

val stop : ?abort:bool -> t -> unit
(** Requests a graceful drain. Only flips atomics — safe to call from a
    signal handler. With [abort = true], in-flight backends are also
    cancelled through their budgets' hook (they answer [UNKNOWN]
    "cancelled" and are not journaled). *)

val join : t -> unit
(** Blocks until {!stop} has been called and the drain has finished:
    backlog served, domains joined, journal closed, socket unlinked. *)

val run : config -> unit
(** [start] + [join] — the daemon main loop. Install signal handlers
    calling {!stop} before [run]. *)

val stats : t -> (string * int) list
(** The live counters of the [stats] wire reply: [conns], [requests],
    [admitted], [shed], [errors], [served], [cached], [degraded],
    [drained], [submits], [quota], [spec_errors], [spec_cached],
    [fenced] (checks refused for a stale coordinator epoch), [epoch]
    (the fencing watermark), [tenants], [depth], [cap], [jobs], one
    [breaker_*_open] flag per ladder rung, and one
    [tenant.<name>.served]/[.refused]/[.cached] triple per tracked
    tenant ({!Tenant.stats}). *)

val address : t -> addr
