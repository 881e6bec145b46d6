(** Plain DPLL solver (unit propagation + chronological backtracking, no
    learning). Exponentially slower than {!Solver} on hard instances but
    simple enough to be obviously correct: {!Fuzz} and the test suite
    use it as an oracle against the CDCL engine, and [sat_solve --dpll]
    runs it as a baseline. No verdict of the service or the sweep comes
    from it. *)

val solve : Cnf.problem -> Solver.result
(** Decides the problem by depth-first search. *)

val solve_bounded :
  budget:Netsim.Budget.t ->
  Cnf.problem ->
  Solver.bounded_result
(** The budgeted entry point, for the differential suite's
    side-by-side runs: decisions count against the budget's step cap,
    and the budget, with its cancellation hook, is polled per decision,
    so a cancelled search returns [Unknown {reason = "cancelled"; _}]
    within one decision, as {!Solver.solve_bounded} does within one
    conflict. [Unknown.conflicts] reports decisions (DPLL learns no
    clauses). *)
