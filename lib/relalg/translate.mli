(** Translation of relational formulas to SAT, and the solve loop — the
    Kodkod analogue.

    Pipeline: allocate one primary SAT variable per tuple in each
    relation's [upper \ lower] bound, interpret the formula over boolean
    matrices ({!Matrix}), Tseitin-translate the resulting circuit
    ({!Sat.Formula.to_cnf}), then solve it in a {!session} on the CDCL
    solver. A satisfying model is read back into an {!Instance.t}. *)

type translation = {
  cnf : Sat.Formula.cnf_result;
  num_primary : int;  (** primary (relational) variables *)
  circuit_size : int;  (** connective count of the boolean circuit *)
  bounds : Bounds.t;
  alloc : (string * (Tuple.t * Sat.Cnf.var option) list) list;
      (** per relation: upper-bound tuple → its primary variable, or
          [None] when the tuple is in the lower bound (fixed true) *)
}

val translate : ?symmetry:bool -> Bounds.t -> Ast.formula -> translation
(** Compiles the formula. Raises [Invalid_argument] on arity errors,
    unbound relations, or unbound quantifier variables — the static
    errors Alloy reports at analysis start.

    [symmetry] (default false) conjoins Kodkod-style partial
    symmetry-breaking predicates: for every adjacent pair of atoms whose
    swap provably preserves all bounds (and that carry no integer
    value), a lex-leader constraint prunes isomorphic instances. Sound
    for both instance finding and refutation; counterexamples are then
    reported in canonical form. *)

val circuit : ?symmetry:bool -> Bounds.t -> Ast.formula -> Sat.Formula.t * int
(** The boolean circuit {!translate} hands to {!Sat.Formula.to_cnf},
    with its number of primary variables: the relational half of a
    translation, for measuring the two halves apart. *)

type outcome = Sat of Instance.t | Unsat

(** An {!outcome} that may also be [Unknown reason] when a
    {!Netsim.Budget} expired, or the [stop] hook fired, before the SAT
    solver decided. *)
type bounded_outcome = Decided of outcome | Unknown of string

(** An outcome paired with its certification evidence: the DRUP/model
    report from {!Sat.Proof}, or [None] when the formula constant-folded
    and no SAT call was made (the verdict is then trivially right). *)
type certified_outcome = {
  outcome : outcome;
  certification : Sat.Proof.report option;
}

type session
(** A solving session: one {!Sat.Solver.t} over one {!translation},
    threaded through any number of assumption-parameterized solves.
    This is the only way to a SAT verdict. A session opened for one
    call and then dropped is a cold solve; a session kept per worker
    is warm: learnt clauses and VSIDS state carry across calls, so
    deciding the six policy-matrix cells — which differ only in three
    selector assumptions — is measurably cheaper than six cold solves.
    A session is mutable solver state: it must never be shared across
    domains (open one per worker; the underlying translation {e can}
    be shared). A constant-folded circuit gets no solver: every call
    is then decided directly (a trivially-[Sat] instance reflects the
    assumed literal polarities), never [Unknown]. *)

val session : ?certify:bool -> translation -> session
(** Opens a session over [tr]. [~certify:true] (default false) enables
    DRUP proof logging on the session solver so {!solve_cell_certified}
    is available; logging has a small per-clause cost. *)

val solve_cell :
  ?stop:(unit -> bool) ->
  budget:Netsim.Budget.t -> session -> Sat.Cnf.lit list -> bounded_outcome
(** Budgeted solve under the given assumptions. [stop] is the
    cooperative-cancellation hook of the parallel drivers, forwarded to
    {!Sat.Solver.solve_bounded}: when it flips to [true] the answer is
    [Unknown "cancelled"] within one conflict. On [Unknown] the solver
    is back at the root level and stays reusable; retrying the same
    cell with a larger budget resumes warm. Assumptions never leak
    between calls: they are pseudo-decisions, undone by the root-level
    backtrack that starts every solve. *)

val solve_cell_certified : session -> Sat.Cnf.lit list -> certified_outcome
(** Certified solve under the given assumptions: a [Sat] model is
    re-checked against every clause of the assumed problem, and an
    [Unsat] answer must come with a DRUP refutation accepted by
    {!Sat.Proof.check_refutation}. The assumptions are never asserted
    as clauses — that would poison the session for every later cell —
    yet the certificate covers exactly the assumed problem (see
    {!Sat.Solver.solve_assuming_certified}). May follow a
    {!solve_cell} on the same session, which then certifies the verdict
    that call found. Raises [Invalid_argument] unless the session was
    opened with [~certify:true], and {!Sat.Proof.Certification_failed}
    if a certificate is rejected. *)

val session_stats : session -> Sat.Solver.stats option
(** Counters of the session solver ([None] when the circuit
    constant-folded and no solver exists) — the observability hook for
    warm-reuse assertions: conflicts/propagations are lifetime totals,
    so per-cell work is a delta between snapshots. *)

val selector_var : translation -> string -> Sat.Cnf.var option
(** [selector_var tr rel] is the primary variable of relation [rel] when
    it has exactly one tuple free between its bounds — the shape of a
    policy-selector relation — and [None] otherwise. *)

val enumerate : ?symmetry:bool -> ?limit:int -> Bounds.t -> Ast.formula -> Instance.t list
(** All satisfying instances, up to [limit] (default 100): Alloy's
    "Next" button. Each found model is blocked on the primary variables
    and the (incremental) solver is re-run. With [symmetry] the stream
    is restricted to the lex-leader representative of most isomorphism
    classes. *)

val instance_of_model : translation -> Sat.Cnf.model -> Instance.t

type stats = { vars : int; clauses : int; primary : int; circuit : int }

val translation_stats : translation -> stats
(** Size of the generated SAT problem — the measurements behind the
    paper's 259K-vs-190K clause comparison (experiment E5). *)

val pp_stats : Format.formatter -> stats -> unit
