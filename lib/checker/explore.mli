(** Exhaustive bounded model checking of MCA convergence, optionally
    against a budgeted message adversary.

    Explores every reachable configuration under every message
    interleaving (depth-first, deduplicating states by
    {!State.canonical_key}). Because time-rank canonicalization makes
    the state space finite, the search decides the paper's consensus
    property for the given scope:

    - {b Converges}: every execution reaches a terminal state (empty
      buffer, no possible bid, all views equal), and every terminal
      allocation is conflict-free — the assertion of Section V holds.
    - {b Nonconvergence}: some execution revisits a configuration (a back
      edge in the reachable-state graph), i.e. the protocol can oscillate
      forever — the paper's instability counterexample, with the witness
      trace.
    - {b Bad_terminal}: an execution terminates in a conflicting
      allocation (never observed; kept as a soundness alarm).
    - {b Unknown}: a budget (state cap, or a {!Netsim.Budget} deadline)
      expired first; the reason says which.

    With [?max_drops]/[?max_dups] armed, the environment may additionally
    lose or duplicate up to that many in-flight messages at any point,
    chosen nondeterministically — so a [Converges] verdict {e decides}
    drop/duplicate tolerance for the scope rather than sampling it.

    This explicit-state path is the independent oracle for the SAT-based
    Alloy-lite model of [Mca_model] — experiment E3 runs both and
    cross-checks the verdicts. *)

type verdict =
  | Converges of { states : int; terminals : int }
  | Nonconvergence of { trace : State.transition list; states : int }
  | Bad_terminal of { trace : State.transition list; states : int }
  | Unknown of { states : int; reason : string }

val run :
  ?max_states:int -> ?max_drops:int -> ?max_dups:int ->
  ?budget:Netsim.Budget.t -> Mca.Protocol.config -> verdict
(** Default budget: 200_000 states, no wall-clock deadline, no
    adversary (the paper's reliable network). The budget is polled per
    expanded state, its step cap against the states explored so far;
    when its cancellation hook fires (a drained sweep, a request past
    its deadline) the search answers [Unknown {reason = "cancelled"; _}]. *)

val replay :
  ?max_drops:int -> ?max_dups:int -> Mca.Protocol.config ->
  State.transition list -> State.t list
(** Replays a witness trace from the initial state; the returned list
    includes the initial and every intermediate state. Arm the same
    [?max_drops]/[?max_dups] the trace was found under, or the replay of
    its [Drop]/[Duplicate] steps raises. *)

val faults_used : State.transition list -> int * int
(** [(drops, duplications)] an adversary spent along a trace — the
    fault-budget context of a witness. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_transition : Format.formatter -> State.transition -> unit
