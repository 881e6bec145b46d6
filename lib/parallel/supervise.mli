(** Supervision for long verification campaigns: per-task deadlines,
    retry with exponential backoff, quarantine, and graceful drain.

    {!Pool} gives deterministic fan-out; this layer makes it survive a
    hostile workload. Each task runs as a sequence of {e attempts}
    inside its worker domain:

    - an attempt is armed with a deadline on {!Netsim.Clock}, enforced
      through the cooperative [stop] hook the task must poll (the sweep
      attaches it to the attempt's {!Netsim.Budget}, which the solvers
      and the explicit checker poll at every conflict/decision/state
      boundary) — a stalled attempt is cancelled within one poll, not
      killed;
    - a failed attempt (uncaught exception) or a stalled one is retried
      after an exponential {!Netsim.Backoff} delay with seeded jitter;
    - after [max_attempts] such attempts the task is {e quarantined}:
      the supervisor reports a structured [Quarantined] outcome and the
      rest of the workload is unaffected — one poisoned cell never
      wedges a sweep;
    - a global {e drain} flag (set from a SIGINT/SIGTERM handler)
      cancels running attempts and skips unstarted tasks, so a sweep
      shuts down at a record boundary with every completed result
      intact.

    Attempt classification is by evidence, not timing: an attempt
    counts as stalled/cancelled only when the task actually {e observed}
    [stop () = true], so a slow-but-honest completion is never
    discarded. *)

type policy = {
  max_attempts : int;  (** quarantine after this many failed/stalled attempts *)
  deadline_s : float option;  (** per-attempt deadline, in seconds *)
  backoff : Netsim.Backoff.t;  (** delay schedule between attempts *)
  seed : int;  (** jitter stream seed (per-task streams are derived) *)
}

val default_policy : policy
(** 3 attempts, no deadline, [Netsim.Backoff.make ()] (50 ms base,
    2 s cap, ±25% jitter), seed 0. *)

type 'a outcome =
  | Done of { value : 'a; attempts : int }
      (** completed on attempt [attempts] (1 = first try) *)
  | Quarantined of { attempts : int; reason : string }
      (** every attempt failed or stalled; [reason] is the last
          failure ([attempts = 0] marks a supervisor-internal error) *)
  | Skipped  (** drain was requested before the task could complete *)

val map :
  ?jobs:int ->
  ?policy:policy ->
  ?key:(int -> 'a -> string) ->
  (stop:(unit -> bool) -> 'a -> 'b) ->
  'a array ->
  'b outcome array
(** Supervised {!Pool.map_result}: every slot is filled, in task order,
    whatever fails, stalls, or is drained. Tasks receive a [stop] hook
    they must poll to be cancellable; a task that ignores it can still
    be retried on exception but not deadlined. [key] names each task for
    its {!Netsim.Backoff.stream} jitter stream (default: the task
    index); callers with stable task identities (e.g. sweep cells)
    should pass them so a task's retry schedule survives re-indexing
    across resumed runs and never collides with a neighbour's. Raises
    [Invalid_argument] when [jobs < 1] or [policy.max_attempts < 1]. *)

val request_drain : unit -> unit
(** Asks every supervised map in the process to stop gracefully:
    running attempts are cancelled through their [stop] hooks, queued
    tasks come back [Skipped]. Idempotent, async-signal-safe (a single
    atomic store) — designed to be called from a signal handler. *)

val draining : unit -> bool
val reset_drain : unit -> unit
(** Clears the flag (tests, or a driver starting a fresh campaign). *)

val on_drain_signals : (unit -> unit) -> unit
(** Makes SIGINT and SIGTERM call the function — {!request_drain} in
    the sweep drivers, the daemon's own stop in [mca_serve]. It runs
    in a signal handler, so it should only flip an atomic. A platform
    without these signals keeps its defaults. *)

val pp_outcome :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a outcome -> unit
