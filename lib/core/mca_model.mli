(** The paper's Alloy model of the Max-Consensus Auction, rebuilt on the
    Alloy-lite stack — static sub-model (agents, items, connectivity,
    utilities, policies) plus dynamic sub-model (ordered [netState]
    trace, message-processing and bidding transitions, release-on-outbid
    reaction), with the [consensus] assertion of Section V.

    Two encodings reproduce the paper's abstraction-efficiency study
    (Section IV, "Abstractions Efficiency"):

    - {b Naive}: per-state information kept in quaternary relations
      [netState -> pnode -> vnode -> _] and bids drawn from the built-in
      [Int] (compiled to bit-vector circuits), mirroring the paper's
      first model with ternary relations + integers;
    - {b Efficient}: the per-(state, agent) rows reified as [bidVector]
      atoms with lower-arity fields — the paper's [bidTriple] trick —
      and bids drawn from an ordered, exactly-bounded [value] signature
      whose comparisons translate to constant matrices instead of adder
      circuits;
    - {b Buffered}: the Efficient data layout plus the paper's explicit
      [message] signature and per-state [buffMsgs] buffer — every
      transition consumes one (possibly stale) buffered message, exactly
      the paper's [stateTransition]/[messageProcessing] design. The
      Efficient encoding instead abstracts in-flight staleness into a
      simultaneous-exchange transition (see DESIGN.md §5.0); the
      Buffered one makes it concrete at a higher translation cost.

    Both encodings expose the same commands; experiment E5 measures the
    translation-size gap, and experiments E3/E4 check the [consensus]
    assertion per policy, cross-validated against {!Checker.Explore}. *)

type encoding = Naive | Efficient | Buffered

type policy = {
  submodular : bool;  (** p_u: later bids no larger (Definition 2) *)
  release_outbid : bool;  (** p_RO *)
  rebid_attack : bool;
      (** Result 2: some (solver-chosen, nonempty) set of agents ignores
          the Remark-1 beat-check *)
  target : int;  (** p_T: 1 or 2 items per agent *)
}

val honest_submodular : policy
val paper_policies : (string * policy) list
(** The Result-1/Result-2 grid, named as in {!Mca.Policy.paper_grid}. *)

type scope_spec = {
  pnodes : int;
  vnodes : int;
  states : int;  (** trace length (netState scope; ordered, exact) *)
  values : int;  (** bid levels for the efficient encoding (ordered) *)
  bitwidth : int;  (** Int bitwidth for the naive encoding *)
}

val paper_scope : scope_spec
(** The paper's headline scope: 3 physical nodes, 2 virtual nodes (plus
    5 states, 6 values, bitwidth 4). *)

val small_scope : scope_spec
(** 2×2, for quick checks and tests. *)

type t = {
  compiled : Alloylite.Compile.t;
  encoding : encoding;
  policy : policy;
  scope : scope_spec;
  consensus_pred : Relalg.Ast.formula;
      (** the assertion body: agreement on winners and bids at the last
          state of the trace *)
}

val build : encoding -> policy -> scope_spec -> t
(** Compiles the model. Raises [Invalid_argument] for a [target] outside
    [1..vnodes] or non-positive scopes. *)

(** One translation serving every policy cell of a scope: the three
    policy booleans are reified as single-tuple selector relations
    ([cfg_submod]/[cfg_release]/[cfg_attack] on an always-present
    MCAConf atom), so a cell check is a solve of the {e same} immutable
    CNF under three unit assumptions instead of a full build →
    translate pipeline per cell. The translation may safely be shared
    read-only across worker domains. *)
type shared = {
  shared_encoding : encoding;
  shared_scope : scope_spec;
  shared_target : int;
  shared_model : t;
      (** the policy-generic model, selectors in place of the policy:
          [shared_translation] is its {!translation} *)
  shared_translation : Relalg.Translate.translation;
  sel_submod : Sat.Cnf.var;
  sel_release : Sat.Cnf.var;
  sel_attack : Sat.Cnf.var;
}

val translation : ?symmetry:bool -> t -> Relalg.Translate.translation
(** The [check consensus] query (facts ∧ ¬consensus) as one
    translation: the input of a per-policy session, of the E5 size
    measurements ({!Relalg.Translate.translation_stats}), and of the
    cross-engine differential harness, which feeds its CNF to both
    DPLL and CDCL ([constant = Some false] or an unsatisfiable
    [problem] means consensus holds in scope). [symmetry] as in
    {!check_consensus}. *)

val build_shared :
  ?symmetry:bool -> ?target:int -> encoding -> scope_spec -> shared
(** Builds the policy-generic model and translates [check consensus]
    once. [symmetry] (default true) and [target] (default 2) are fixed
    at translation time: only the three booleans vary per cell. Raises
    [Invalid_argument] like {!build}. *)

val shared_assumptions : shared -> policy -> Sat.Cnf.lit list
(** The three selector literals encoding [policy]. Raises
    [Invalid_argument] when [policy.target] differs from the target the
    shared translation was built for. *)

type session
(** A {!Relalg.Translate.session} over a {!shared} translation: one SAT
    solver threaded through any number of policy cells. Kept per
    worker, it is warm, carrying learnt clauses and heuristic state
    across cells (the cells differ only in three selector assumptions,
    so most learnt clauses transfer); opened for one cell and dropped,
    it is a cold solve. Mutable solver state — never share a session
    across domains; the underlying {!shared} value can be shared
    freely. *)

val incremental_session : ?certify:bool -> shared -> session
(** Opens a session. [~certify:true] (default false) enables DRUP proof
    logging, so that {!certify} can check each verdict. *)

val check_consensus_incremental :
  budget:Netsim.Budget.t -> session -> policy ->
  Relalg.Translate.bounded_outcome
(** Checks one policy cell: the shared CNF under the policy's selector
    assumptions. Same verdict as checking [build encoding policy scope]
    (the differential suite pins this, warm and cold); on [Unknown] the
    session stays reusable and a retry resumes warm. Raises
    [Invalid_argument] on a target mismatch like {!shared_assumptions}. *)

val certify : session -> Sat.Proof.report option
(** Certifies the verdict the last {!check_consensus_incremental} on a
    [~certify:true] session decided, under that cell's selector
    assumptions, which are never asserted as clauses (see
    {!Relalg.Translate.certify}, whose exceptions it raises). [None]
    when the circuit constant-folded away. *)

val session_solver_stats : session -> Sat.Solver.stats option
(** Lifetime counters of the session solver ([None] when the circuit
    constant-folded away): per-cell work is a delta between snapshots. *)

val domain_session : shared -> session
(** The calling domain's cached (uncertified) session for [sh], opened
    on first use. Keyed by physical equality on [sh] and capped at a
    few entries per domain, so worker domains and the service's
    long-lived workers amortize warmth across cells and requests
    without ever sharing a solver across domains. *)

val check_consensus : ?symmetry:bool -> t -> Alloylite.Compile.outcome
(** The paper's [check consensus]: searches for a trace refuting
    consensus at the horizon. [Sat inst] is an oscillation/instability
    counterexample; [Unsat] means the assertion holds in scope.
    [symmetry] (default false) adds Kodkod-style symmetry-breaking
    predicates — the ablation of experiment E5b. *)

val run_instance : t -> Alloylite.Compile.outcome
(** [run {}]: any instance of the model (sanity: the facts are
    satisfiable, so [check] verdicts are not vacuous). *)

val describe : t -> string
