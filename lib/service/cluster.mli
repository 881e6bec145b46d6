(** The sharded verification cluster: a partition-tolerant coordinator
    driving a fleet of [mca_serve] workers through the existing wire
    protocol.

    The coordinator runs a policy-matrix sweep ({!Core.Experiments})
    exactly like [mca_check --sweep] — same task list, same cell
    identity, same canonical rendering — but instead of verifying cells
    itself it consistent-hashes them over the fleet ({!Shard}) and
    survives whatever the fleet does to it:

    - {b failure detection is evidence-based} (the
      {!Parallel.Supervise} doctrine): a worker is marked down only
      after [down_after] consecutive {e observed} transport failures —
      a connection refused, reset, or closed before the reply — never
      on elapsed time alone. A slow worker gets stolen from, not
      declared dead. A heartbeat domain probes every worker with the
      [stats] request (answered inline by the server's acceptor even
      under full load, so it is a pure liveness signal) and revives a
      down worker the moment it answers again.
    - {b shed escalation}: a worker answering [shed] is healthy but
      full; the cell is retried on the next sibling in its {!Shard}
      failover route after a {!Netsim.Backoff} delay drawn from the
      cell's own jitter stream — the cluster never surfaces a SHED for
      a cell while any sibling has room.
    - {b work stealing}: once the dispatch queue is empty, idle
      dispatchers duplicate the oldest in-flight cell older than
      [steal_after_s] onto a different worker; the first verdict wins a
      per-cell atomic CAS and the loser is discarded.
    - {b certified relocation}: a decided SAT verdict produced by any
      worker other than the cell's ring owner is re-derived locally on
      a throwaway certified session, and that verdict is checked
      ({!Core.Mca_model.certify}: DRUP refutation or model) before the
      coordinator accepts it; on a mismatch
      the locally certified answer wins and the event is counted.
    - {b journal-backed handoff}: with [cl_journal] every dispatch is
      recorded as a [disp] intent record and every decided cell as a
      standard {!Core.Experiments.cell_record}, group-committed. The
      journal is interchangeable with the single-process sweep's: a
      SIGKILL'd coordinator resumes with [cl_resume] (or hands the file
      to [mca_check --sweep --resume]) and completes byte-identically
      to an uninterrupted run.

    A cell still unanswered after [max_attempts] tries across the fleet
    is reported honestly as its last [Undecided] answer (origin
    [Quarantined]) — one unreachable cell never wedges the sweep.

    {b Replication and epoch fencing} (the failover layer): a
    coordinator run can carry a positive leadership {e epoch}. It then
    announces the epoch to every worker ([fence] verb) before
    dispatching anything, stamps it into every wire request and every
    journal record, and — with [repl_listen] — publishes its journal
    record-by-record to a warm standby ({!Repl}). The standby
    ({!run_standby}) tails the journal into a local replica, watches
    primary liveness with the same evidence-based discipline the
    coordinator applies to workers, and on lease expiry takes over:
    re-derives the remaining cells from its replica ([cl_resume]) and
    finishes the sweep at an epoch strictly above anything the old
    primary held. Split-brain safety rests on fencing, not on the
    failure detector being right: workers refuse stale-epoch requests
    with [fenced], and a deposed coordinator stops journaling at the
    first refusal — the commit gate runs inside the journal lock, so
    zero records land after deposition. *)

type config = {
  workers : Server.addr list;
  dispatchers : int;  (** coordinator dispatch domains *)
  seed : int;
  deadline_s : float;  (** per-cell allowance sent with each request *)
  timeout_s : float;  (** per-attempt socket timeout (connect + I/O) *)
  max_attempts : int;  (** tries per cell across the fleet *)
  backoff : Netsim.Backoff.t;  (** retry delays, per-cell jitter streams *)
  down_after : int;  (** consecutive failures before a worker is down *)
  heartbeat_s : float;  (** liveness probe period; [0.] disables *)
  steal_after_s : float;  (** in-flight age before a cell is stolen *)
  verify_relocated : bool;  (** DRUP re-check of non-owner verdicts *)
  ring_points : int;  (** virtual nodes per worker on the ring *)
  cl_journal : string option;
  cl_resume : bool;
  cl_flush_every : int;  (** journal group-commit batch *)
  epoch : int;
      (** leadership epoch; [0] = unfenced legacy mode. Positive:
          workers are fenced to it before dispatch, every request and
          journal record carries it, and a [fenced] reply deposes the
          run. *)
  repl_listen : Server.addr option;
      (** serve journal replication pulls here (requires
          [cl_journal]) *)
  cl_throttle_s : float;
      (** sleep before dispatching each cell; [0.] = off. For failover
          tests and benches that must land a kill or partition
          mid-sweep deterministically — not for production. *)
}

val default_config : Server.addr list -> config
(** 4 dispatchers, seed 1, 30 s cell deadline, 35 s socket timeout,
    5 attempts, 20 ms–0.5 s backoff, down after 2, 0.5 s heartbeat,
    steal after 5 s, relocation re-check on, 64 ring points, no
    journal, epoch 0, no replication, no throttle. *)

type report = {
  sweep : Core.Experiments.sweep_report;
      (** render with {!Core.Experiments.render_sweep} — byte-identical
          to the single-process sweep when every cell was decided *)
  cluster_stats : (string * int) list;
      (** dispatch/failover/steal/relocation/heartbeat/fenced counters *)
  worker_up : bool list;  (** final liveness, in [workers] order *)
  cl_epoch : int;
      (** the epoch dispatched under, or the deposing epoch if higher *)
  deposed : bool;
      (** a worker refused this run's epoch as stale: a newer
          coordinator owns the fleet. Dispatch and journaling stopped at
          the first refusal; the report is partial past it. *)
}

val run_sweep :
  ?stop:(unit -> bool) ->
  ?scopes:(string * Core.Mca_model.scope_spec) list ->
  config -> report
(** Runs the full policy-matrix sweep through the fleet. [stop]
    (default {!Parallel.Supervise.draining}, so the standard
    SIGINT/SIGTERM drain handlers work unchanged) drains the cluster:
    in-flight cells finish, unstarted cells come back [Skipped] and the
    report is partial. Raises [Invalid_argument] on an empty worker
    list, non-positive dispatchers/attempts, or [cl_resume] without
    [cl_journal]. *)

val fleet_stats :
  ?timeout_s:float ->
  Server.addr list -> (int * ((string * int) list, string) result) list
(** One [stats] probe per worker, indexed — the [--stats] mode of the
    CLI. *)

(** {2 Epoch durability}

    A coordinator must never reuse an epoch it already spent — a
    restarted primary at an old epoch would not be refused by workers
    that never saw the successor. These helpers maintain the durable
    floor: record every epoch before running at it, read the floor back
    at startup and start strictly above it. Any journal file works,
    including the coordinator journal itself (epochs appear both as
    [epoch] marker records and as [|epoch=N] stamps). *)

val latest_epoch : string -> int
(** Highest epoch recorded anywhere in the journal at [path]; [0] for a
    missing or epoch-free journal. *)

val commit_epoch : string -> seed:int -> epoch:int -> unit
(** Durably appends an [epoch] marker record to the journal at [path]
    (created if missing), fsync'd before return. *)

(** {2 Warm standby} *)

type standby_config = {
  sb_cluster : config;
      (** the configuration the takeover sweep runs with.
          [cl_journal] is the {e replica} journal path (required):
          replication fills it, takeover resumes from it. [epoch] here
          is a {e floor} of epochs known spent (e.g. from
          {!latest_epoch}), not an epoch to run at — the takeover epoch
          is one past the highest epoch seen anywhere. *)
  sb_source : Server.addr;  (** the primary's [repl_listen] address *)
  sb_poll_s : float;  (** delay between replication pulls *)
  sb_lease_s : float;
      (** wall clock since the last successful pull before takeover *)
  sb_down_after : int;
      (** consecutive failed pulls before takeover (both conditions
          must hold — lease {e and} failure evidence) *)
}

val default_standby : source:Server.addr -> config -> standby_config
(** 50 ms poll, 1 s lease, 3 consecutive failures. *)

type standby_outcome =
  | Took_over of {
      takeover_epoch : int;
      replicated : int;  (** records in the replica at takeover *)
      takeover_latency_s : float;
          (** last successful pull → takeover decision *)
      report : report;  (** the completed (or again-interrupted) sweep *)
    }
  | Standby_drained of { replicated : int }  (** [stop] fired first *)

val run_standby :
  ?stop:(unit -> bool) ->
  ?scopes:(string * Core.Mca_model.scope_spec) list ->
  ?on_replicated:(int -> unit) ->
  standby_config -> standby_outcome
(** Tails the primary's journal into the replica (pull loop, verified
    frames, append with [flush_every=1]) until either [stop] fires or
    the lease expires on hard evidence — [sb_down_after] consecutive
    failed pulls {e and} [sb_lease_s] elapsed since the last good one.
    A merely slow primary cannot trigger takeover; a partitioned-but-
    alive one can, and split-brain safety then rests on epoch fencing,
    not on the detector. On takeover, runs {!run_sweep} with
    [cl_resume] from the replica at the fresh epoch and returns its
    report. [on_replicated] is called with the replica record count
    after every successful pull (test synchronization hook). Raises
    [Invalid_argument] without [sb_cluster.cl_journal], or on
    non-positive [sb_poll_s]/[sb_down_after]. *)
