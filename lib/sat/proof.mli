(** Verdict certification: DRUP proof trails, an independent proof
    checker and a strict model certifier.

    The solver's [Unsat] answers are the load-bearing direction of every
    Alloy-lite [check] (an unsatisfiable counterexample query means the
    assertion holds in scope), yet without a certificate they rest
    entirely on the CDCL implementation being bug-free. This module
    closes that gap: {!Solver} can log every learnt and deleted clause
    as a DRUP (Delete Reverse Unit Propagation) trail, and
    {!check_refutation} re-validates the trail against the original CNF
    using nothing but naive occurrence-list unit propagation — no code
    is shared with the solver's watched-literal loop, so a bug must be
    present in two independent implementations to go unnoticed. The
    [Sat] direction is covered by {!check_model}, which re-evaluates
    every original clause under the returned assignment. *)

(** One DRUP proof event, in solver order: [Add] for a learnt clause
    (the empty array closes the refutation), [Delete] for a clause
    dropped from the learnt database. *)
type step = Add of Cnf.lit array | Delete of Cnf.lit array

(** A mutable in-memory proof trail, appended to by the solver. *)
type trail

exception Certification_failed of string
(** Raised by {!Solver.certify} when a verdict's certificate is
    rejected — i.e. a solver bug was caught in the act. *)

val create : unit -> trail

val log_add : trail -> Cnf.lit array -> unit
(** Appends an addition step (the array is copied). *)

val log_delete : trail -> Cnf.lit array -> unit
(** Appends a deletion step (the array is copied). *)

val steps : trail -> step list
(** The trail in chronological order. *)

(** The checkers below take the problem and, as a required argument
    next to it, [units]: literals that hold as unit clauses on top of
    the problem — the assumptions a verdict was found under ([[]] for
    none). They are checked as if appended to [p], without a copy of
    it. *)

val check_model :
  Cnf.problem -> units:Cnf.lit list -> Cnf.model -> (unit, string) result
(** [check_model p ~units m] is the strict [Sat] certifier: every clause
    of [p] and every literal of [units] must be true under [m], and [m]
    must cover every variable of [p]. The error message names the first
    falsified clause or unit. *)

val check_refutation :
  Cnf.problem -> units:Cnf.lit list -> step list -> (unit, string) result
(** [check_refutation p ~units steps] validates a DRUP refutation of [p]
    plus [units]: each added clause must be derivable by reverse unit
    propagation from those clauses plus the previously added (and not
    yet deleted) ones, and the trail must derive the empty clause.
    Steps after the empty clause are ignored. Deletions of clauses not
    present are ignored, as in standard DRUP checkers (they can only
    make checking harder, never unsound). *)

(** What a verdict is certified by: a satisfying assignment or a DRUP
    refutation trail. *)
type certificate = Model of Cnf.model | Refutation of step list

(** Outcome of a successful certification, for reporting: proof size
    and the time the independent check took. *)
type report = {
  kind : [ `Model | `Refutation ];
  additions : int;  (** clause additions in the trail (0 for models) *)
  deletions : int;  (** clause deletions in the trail (0 for models) *)
  check_time : float;  (** seconds spent in the independent checker *)
}

val certify :
  Cnf.problem -> units:Cnf.lit list -> certificate -> (report, string) result
(** Runs the appropriate checker against [p] plus [units] and times it.
    A refutation's [additions] and [deletions] count every step of the
    trail, those after the empty clause included. *)

val pp_report : Format.formatter -> report -> unit
