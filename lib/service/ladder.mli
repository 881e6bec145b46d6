(** The graceful-degradation ladder: CDCL → explicit checker →
    [UNKNOWN].

    Each rung is guarded by its own {!Breaker}: a backend that keeps
    timing out is skipped (its breaker is open) until a backoff-drawn
    cooldown has passed, so an overloaded server stops burning its
    per-request deadline on a rung that cannot answer in time. A rung
    that answers [Undecided] within its slice of the deadline counts as
    a breaker timeout and the request falls to the next rung; only when
    every rung is refused or undecided does the request resolve to
    [Undecided "degraded: …"] — the service's honest [UNKNOWN], never a
    crash or a hang. *)

type rung = Cdcl | Explicit

val rung_name : rung -> string
(** ["cdcl"], ["explicit"]. *)

type t
(** One breaker per rung; shared by all worker domains. *)

val make :
  ?trip_after:int -> ?backoff:Netsim.Backoff.t -> ?seed:int -> unit -> t
(** Breaker parameters are per {!Breaker.make}; [seed] (default 0)
    derives each rung's decorrelated cooldown stream. *)

val breaker : t -> rung -> Breaker.t
(** Exposed for stats reporting and tests. *)

type answer = {
  verdict : Core.Experiments.sweep_verdict;
  rung : string;  (** rung that answered, or ["none"] *)
  degraded : bool;  (** at least one higher rung was skipped or failed *)
  trail : (string * string) list;
      (** per-rung disposition, top-down: ["open"], ["decided"],
          ["cancelled"], or the [Undecided] reason *)
}

val guarded :
  ?now:(unit -> float) ->
  t -> rung -> (unit -> Core.Experiments.sweep_verdict) ->
  Core.Experiments.sweep_verdict option
(** Runs one rung through its breaker: [None] when the breaker refuses
    it, else the verdict, recorded on the breaker as {!decide} records
    it. {!decide} runs every rung through this. *)

val decide :
  ?now:(unit -> float) ->
  t -> (rung * (unit -> Core.Experiments.sweep_verdict)) list -> answer
(** Walks the rungs top-down. [Holds]/[Violated] records a breaker
    success and stops; [Undecided "cancelled"] (an abort, or the request
    deadline observed by the budget's cancellation hook) stops
    {e without} a breaker transition — cancellation says nothing about
    the backend's health; any other [Undecided], such as a rung's own
    share of the deadline expiring, records a breaker timeout and falls
    through. [now] (default {!Netsim.Clock.now}) is injected for
    deterministic tests. *)

(** What the SAT rung solves: a cached scope-wide shared translation
    plus the cell's policy. The CDCL rung solves the shared CNF under
    three selector assumptions on this worker domain's {e warm session}
    ({!Core.Mca_model.check_consensus_incremental} over
    {!Core.Mca_model.domain_session}): service workers are long-lived,
    so learnt clauses amortize across every request hitting the same
    (scope, target). *)
type backend =
  | Shared_translation of Core.Mca_model.shared * Core.Mca_model.policy

val consensus_rungs :
  budget_for:(rung -> Netsim.Budget.t) ->
  backend:backend ->
  exhaustive:(unit -> Core.Experiments.sweep_verdict) ->
  unit -> (rung * (unit -> Core.Experiments.sweep_verdict)) list
(** The standard two rungs for a [check consensus] cell: bounded CDCL
    (with symmetry breaking) and the caller's [exhaustive] thunk — in
    the service this reuses the explicit-state verdict the reply needs
    anyway, so the bottom rung costs nothing extra. [budget_for] gives
    a rung its budget when the rung starts: in the service, a
    {!Netsim.Budget.share} of the request's budget, which carries the
    request's cancellation hook. *)

val check_consensus :
  ?now:(unit -> float) ->
  budget_for:(rung -> Netsim.Budget.t) ->
  backend:backend ->
  exhaustive:(unit -> Core.Experiments.sweep_verdict) ->
  t -> answer
(** [decide] over [consensus_rungs]. *)
