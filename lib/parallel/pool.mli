(** Domain-based worker pool with deterministic result collection.

    The multicore driver for the verification matrix: independent tasks
    (one policy/scope cell of the paper's evaluation each) are fanned
    out over OCaml 5 domains through a bounded {!Bqueue} and the results
    are collected {e keyed by task index}, so the output of
    {!map_result} is the same array whatever the scheduling —
    parallelism never changes a report, only its wall-clock time.

    [jobs = 1] (the default) runs every task inline in the calling
    domain without spawning: the sequential path and the 1-job parallel
    path are the same code by construction.

    Tasks must not share mutable state: per-domain state in the
    libraries (e.g. the {!Sat.Formula} hash-consing tables) makes a full
    build→translate→solve pipeline safe per task. A task that raises
    fills its own result slot with an explicit [Error] ({!map_result}),
    so a worker never dies mid-queue and joiners never wait on a lost
    slot. *)

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism cap
    that [--jobs 0] resolves to in the CLI drivers. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** [map_result ~jobs f tasks] evaluates every task to completion, even
    when some raise: slot [i] is [Ok (f tasks.(i))] or [Error exn]. The
    supervision layer builds on this — one poisoned cell must never
    discard the rest of a sweep. At most [jobs] domains run the tasks,
    clamped to the task count {e and} to {!available_jobs}:
    oversubscribing cores makes the stop-the-world minor GC serialize
    the domains and runs slower than sequentially, so [jobs] is a
    ceiling, not a demand. Raises [Invalid_argument] when [jobs < 1]. *)
