(** The one value that bounds and cancels verification work.

    A budget bundles work caps (explorer states or simulation steps,
    CDCL conflicts and propagations), a wall-clock deadline on
    {!Clock} and an optional cancellation hook. Every backend polls
    {!check} with its current counters and must answer [Unknown]
    rather than hang or crash when the budget expires or is cancelled
    — so every [mca_check] invocation, sweep cell and served request
    terminates with an honest verdict. *)

type t

val create :
  ?wall_s:float -> ?steps:int -> ?conflicts:int -> ?propagations:int ->
  ?stop:(unit -> bool) -> unit -> t
(** Omitted caps are unlimited. The wall-clock deadline starts at
    creation time; use {!restarted} to re-arm a stored budget. [stop]
    is the cooperative cancellation hook (a drained sweep, a stalled
    attempt, an aborted daemon, a request past its deadline): once it
    answers [true], {!check} answers [Expired "cancelled"]. Raises
    [Invalid_argument] on negative caps. *)

val unlimited : t

val restarted : ?stop:(unit -> bool) -> t -> t
(** Same caps and hook, deadline re-armed from now. A given [stop] is
    polled after the budget's own hook, so the re-armed budget is
    cancelled when either answers [true]: the sweep attaches each
    attempt's supervision hook this way. *)

val share : t -> float -> t
(** [share t frac] is the budget of one stage of [t]'s work: [frac]
    (between 0 and 1) of the wall time that remains of [t] now, with
    [t]'s caps and hook. Without a wall cap, [t] is its own share. *)

type status = Within | Expired of string
(** [Expired reason] names what ended the work: ["cancelled"], or the
    first cap that was hit, e.g. ["conflict cap 5000"] or
    ["deadline 2s"]. *)

val check : steps:int -> conflicts:int -> propagations:int -> t -> status
(** Polls, in this order, the hook, the step, conflict and propagation
    caps against the caller's counters, then the clock; a caller
    passes 0 for a counter it does not keep. The counters are plain
    labelled ints, not optional ones, and the clock is read in
    integer nanoseconds, so that a poll at every decision, conflict
    and explored state allocates nothing. *)
