(** The one clock of the codebase: monotonic time from
    [bechamel.monotonic_clock] ([CLOCK_MONOTONIC] on Linux).

    Every duration, deadline, lease, breaker cooldown and backoff reads
    this clock, so none of them moves when the wall clock is stepped
    (an NTP correction, a suspended VM, [date -s]). A reading counts
    from an arbitrary origin: it means something only as a difference
    with another reading of the same process, so never write one to a
    journal or a wire line. *)

val now : unit -> float
(** Monotonic seconds. *)

val now_ns : unit -> int
(** The same clock in integer nanoseconds. Reading it allocates
    nothing, also from another module, where the float that {!now}
    returns is boxed: a poll that runs at every solver conflict or
    explored state compares [now_ns] instants. *)

val after : float -> int
(** [after s] is the {!now_ns} instant [s] seconds from now, saturated
    at [max_int] for a span too long to represent. *)
