(** Conflict-driven clause-learning (CDCL) SAT solver.

    A from-scratch MiniSat-style solver: two-literal watching, first-UIP
    conflict analysis with clause minimization, VSIDS decision heuristic
    with phase saving, Luby restarts and activity-based learnt-clause
    database reduction. This is the engine under the relational-logic
    translation ({!Relalg}) and hence under every Alloy-lite [check]/[run]
    command, mirroring the Alloy Analyzer's use of MiniSat via Kodkod. *)

type t

(** Outcome of a [solve] call. The model array is indexed by variable
    (entry 0 unused) and is always verified against the clause database
    before being returned. *)
type result = Sat of Cnf.model | Unsat

(** Outcome of a budgeted {!solve_bounded} call: either the instance was
    decided, or the {!Netsim.Budget} expired first. [conflicts] and
    [propagations] count work done by this call (not the solver's
    lifetime totals). *)
type bounded_result =
  | Decided of result
  | Unknown of { reason : string; conflicts : int; propagations : int }

(** Solver counters, for the benchmark harness and tests. *)
type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  max_vars : int;
  clauses_added : int;
  compactions : int;
      (** times the clause store was compacted after a learnt-clause
          reduction freed much of it *)
}

val create : unit -> t

val new_var : t -> Cnf.var
(** Allocates the next variable. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars s n] makes variables [1..n] available. *)

val num_vars : t -> int

val add_clause : t -> Cnf.lit list -> unit
(** Adds a clause over existing variables (unknown variables are allocated
    automatically). Tautologies are dropped; duplicate literals merged.
    Adding the empty clause marks the instance unsatisfiable. Raises
    [Invalid_argument] on a literal over variable 0, adding nothing. *)

val solve : ?assumptions:Cnf.lit list -> ?certify:bool -> t -> result
(** Decides the instance. With [assumptions], decides satisfiability under
    the given temporary unit hypotheses; the solver can be reused with
    different assumptions afterwards: every solve starts from a
    root-level backtrack, assumptions are pushed as pseudo-decisions
    below all search decisions, and learnt clauses — which only ever
    mention assumptions as negated literals, so they are consequences
    of the clause set alone — stay valid for the next call whatever its
    assumptions are. This is the warm-session contract the incremental
    policy-matrix sweep is built on.

    With [~certify:true] (default false) the verdict is independently
    certified before being returned: a [Sat] model is re-checked against
    every original clause by {!Proof.check_model}, and an [Unsat] answer
    must come with a DRUP trail accepted by {!Proof.check_refutation}.
    Requires proof logging ({!enable_proof} or [of_problem ~proof:true])
    and no assumptions; raises [Invalid_argument] otherwise, and
    {!Proof.Certification_failed} if a certificate is rejected (i.e. a
    solver bug was caught). *)

val solve_bounded :
  ?assumptions:Cnf.lit list ->
  ?stop:(unit -> bool) ->
  budget:Netsim.Budget.t ->
  t ->
  bounded_result
(** Like {!solve}, but gives up with [Unknown] once [budget] expires
    (checked against this call's conflict/propagation counts and the
    wall clock). On [Unknown] the solver backtracks to the root level
    and stays reusable — learnt clauses are kept, so a retry with a
    larger budget resumes warm. Certification is not supported on the
    bounded path.

    [stop] is the cooperative-cancellation hook: it is polled together
    with the budget at {e every} conflict/decision boundary — not merely
    at restarts — so when it flips to [true] (e.g. a sweep drains or a
    request passes its deadline) the call returns
    [Unknown {reason = "cancelled"; _}] within one conflict. *)

val failed_assumptions : t -> Cnf.lit list
(** After an [Unsat] answer from {!solve} or {!solve_bounded} under
    assumptions: the failed-assumption core — a subset of the
    assumptions that is already unsatisfiable together with the clause
    set, computed by final conflict analysis (MiniSat's
    [analyzeFinal]) over the closing conflict. [[]] after an [Unsat]
    with no assumptions involved (the clause set itself is
    unsatisfiable), and [[]] after any [Sat] or [Unknown] answer. The
    core is reset by every solve call. *)

val solve_assuming_certified : assumptions:Cnf.lit list -> t -> result
(** Certified solve under assumptions, for warm session solvers. The
    certificate covers the {e assumed problem} — {!original_problem}
    extended with one unit clause per assumption: a [Sat] model is
    checked against all of it, and an [Unsat] answer is certified by
    the session's DRUP trail closed with one empty-clause addition
    (sound because learnt clauses never use assumptions as premises,
    and the final conflict is a unit-propagation consequence of the
    assumption units). The solver itself is {e not} mutated beyond a
    normal warm solve — in particular the assumptions are never added
    as clauses, so the session stays reusable under different
    assumptions. Requires proof logging; raises [Invalid_argument]
    otherwise and {!Proof.Certification_failed} if the certificate is
    rejected. *)

val enable_proof : t -> unit
(** Turns on DRUP proof logging and original-clause capture. Must be
    called before any clause is added (raises [Invalid_argument]
    otherwise), so that the logged trail is checkable against the full
    original CNF. *)

val proof_enabled : t -> bool

val proof_steps : t -> Proof.step list
(** The DRUP trail logged so far, in chronological order ([[]] when
    logging is off). After an assumption-free [Unsat] answer the trail
    ends with the empty clause and is a complete refutation of
    {!original_problem}. *)

val original_problem : t -> Cnf.problem
(** The clauses as passed to {!add_clause}, before any root-level
    simplification — the CNF that certificates are checked against.
    Raises [Invalid_argument] when proof logging is off. *)

val last_certification : t -> Proof.report option
(** Report of the most recent successful [~certify:true] solve. *)

val of_problem : ?proof:bool -> Cnf.problem -> t
(** Loads a {!Cnf.problem} into a fresh solver, as {!add_clause} would
    add its clauses one by one in order (after {!ensure_vars} of its
    [num_vars]), but without allocating per clause. [~proof:true]
    (default false) enables proof logging before loading, and the
    problem itself is then the start of {!original_problem}. *)

val solve_problem : ?certify:bool -> Cnf.problem -> result
(** One-shot convenience wrapper; [~certify] as in {!solve}. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
