(** Graceful-degradation budgets shared by every verification backend.

    A budget bundles a wall-clock deadline with backend-specific work
    caps (explorer states, CDCL conflicts/propagations). Backends poll
    {!check} with their current counters and must answer [Unknown]
    rather than hang or crash when the budget expires — so every
    [mca_check] invocation terminates with an honest verdict. *)

type t

val create :
  ?wall_s:float -> ?steps:int -> ?conflicts:int -> ?propagations:int ->
  unit -> t
(** Omitted caps are unlimited. The wall-clock deadline starts at
    creation time; use {!restarted} to re-arm a stored budget. Raises
    [Invalid_argument] on negative caps. *)

val unlimited : t
val is_unlimited : t -> bool

val until : deadline:float -> t
(** [until ~deadline] is a pure wall-clock budget expiring at the
    absolute Unix time [deadline] (already-past deadlines give a
    zero-width window, i.e. immediately [Expired]). This is how the
    verification service propagates a per-request deadline into the
    [?stop]/budget chain of the backends: each degradation rung gets
    the time remaining until the request's deadline, never more. *)

val restarted : t -> t
(** Same caps, deadline re-armed from now. *)

val intersect : t -> t -> t
(** Tightest combination of two budgets: the smaller of each work cap,
    and the earlier of the two wall-clock deadlines (compared as time
    remaining from now; the result's window opens now). Used by the
    parallel sweep driver to combine a global [--timeout] with a
    per-task cap. *)

val elapsed : t -> float
(** Wall-clock seconds since creation (or the last {!restarted}). *)

type status = Within | Expired of string
(** [Expired reason] names the first cap that was hit, e.g.
    ["conflict cap 5000"] or ["deadline 2s"]. *)

val check : steps:int -> conflicts:int -> propagations:int -> t -> status
(** Compares the caller's counters (and the clock) against the caps; a
    caller passes 0 for a counter it does not keep. The counters are
    plain labelled ints, not optional ones, so that a poll at every
    decision and conflict allocates nothing. *)

val pp : Format.formatter -> t -> unit
