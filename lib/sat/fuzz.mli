(** Differential fuzzing of the SAT engines with certified verdicts.

    Generates seeded random k-CNF instances across a spread of
    clause/variable ratios (straddling the k=3 phase transition at
    ~4.26), then runs every instance through both the CDCL solver
    ({!Solver}, each verdict checked by {!Solver.certify}) and the DPLL
    reference oracle ({!Dpll}), recording any disagreement or
    certification failure.
    Seeding goes through {!Netsim.Rng}, the library-wide splittable
    PRNG, so a run is reproducible from a single integer. *)

type failure = {
  index : int;  (** which instance of the run (0-based) *)
  detail : string;  (** what went wrong *)
  dimacs : string;  (** the offending instance, for replay *)
}

type outcome = {
  instances : int;
  sat_instances : int;
  unsat_instances : int;
  proof_additions : int;
      (** total DRUP additions across all certified [Unsat] verdicts *)
  proof_deletions : int;
  certification_time : float;  (** total seconds in the independent checker *)
  failures : failure list;
}

val random_problem :
  Netsim.Rng.t -> k:int -> num_vars:int -> num_clauses:int -> Cnf.problem
(** Uniform random k-CNF with distinct variables per clause, drawn from
    the given stream. *)

val run :
  ?ks:int list ->
  ?min_vars:int ->
  ?max_vars:int ->
  ?ratios:float list ->
  count:int ->
  seed:int ->
  unit ->
  outcome
(** [run ~count ~seed ()] fuzzes [count] instances. Defaults:
    [ks = [2; 3]], [min_vars = 8], [max_vars = 20],
    [ratios = [1.5; 3.0; 4.26; 6.0]]. An empty [failures] list means
    CDCL and DPLL agreed everywhere and every verdict carried a valid
    certificate. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Solver-reuse differential}

    Random {e schedules} of interleaved operations against one warm
    solver — solve under assumptions, change the assumptions, solve
    again, add clauses in between — where every solve is checked
    against a cold solver built from scratch over the clauses added so
    far. Any divergence means state leaked across calls (the hazard
    class incremental sessions must exclude); failing schedules are
    greedily shrunk (dropping whole ops, then single assumption
    literals) before being reported. *)

type reuse_op =
  | Solve_with of Cnf.lit list  (** solve under these assumptions *)
  | Add_clause of Cnf.lit list

type reuse_outcome = {
  schedules : int;
  reuse_solves : int;
      (** warm [Solve_with] steps checked against a cold oracle *)
  reuse_failures : failure list;
      (** [detail] carries the shrunk schedule; [dimacs] the base CNF *)
}

val check_schedule : Cnf.problem -> reuse_op list -> (int * string) option
(** Replays one schedule; [Some (step, what)] identifies the first
    diverging solve. Beyond verdict equality it also checks that a warm
    [Sat] model satisfies the current clauses plus assumptions, and
    that a warm [Unsat] yields a {!Solver.failed_assumptions} core that
    is a subset of the assumptions and genuinely unsatisfiable with the
    current clauses. *)

val run_reuse :
  ?min_vars:int ->
  ?max_vars:int ->
  ?max_ops:int ->
  count:int ->
  seed:int ->
  unit ->
  reuse_outcome
(** [run_reuse ~count ~seed ()] fuzzes [count] random schedules over
    random base CNFs. Defaults: [min_vars = 6], [max_vars = 16],
    [max_ops = 12]. An empty [reuse_failures] means the warm solver was
    indistinguishable from a cold one at every step. *)

