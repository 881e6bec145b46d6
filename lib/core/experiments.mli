(** Experiment drivers: one function per paper artifact (see the
    experiment index in DESIGN.md). Each returns the rows it printed so
    tests and the bench harness can assert the qualitative shape —
    who converges, who oscillates, which encoding is smaller — that the
    paper reports. *)

(** E1 — Figure 1: the two-agent, three-item worked example. *)
type figure1_row = {
  item : string;
  winner : int;  (** agent index *)
  bid : int;
}

val figure1 : Format.formatter -> figure1_row list
(** Runs the Figure-1 auction and prints the final consensus column.
    Expected: A→1@20, B→1@15, C→0@30 in 1 exchange round. *)

(** E2/E3 — Figure 2 and Result 1: the policy matrix over the three
    backends. *)
type matrix_row = {
  policy_name : string;
  sim_converges : bool;
  explicit_converges : bool;
  sat_holds : bool;
}

val policy_matrix : ?include_sat:bool -> Format.formatter -> matrix_row list
(** Prints the Result-1 table. [include_sat] (default true) also runs the
    SAT-model checks (tens of seconds for the UNSAT rows). *)

(** E11 — the multicore driver: the Result-1/Result-2 policy matrix,
    optionally crossed with several scopes, sharded over a
    {!Parallel.Pool} of domains. Every cell is an independent
    verification problem (one SAT check, one exhaustive exploration,
    one simulation), which is exactly the shape of the paper's
    evaluation table — the sweep turns the paper's sequential
    hours-long matrix into an embarrassingly parallel one. *)

type sweep_verdict =
  | Holds  (** consensus holds (SAT: Unsat; exhaustive: converges) *)
  | Violated
  | Undecided of string  (** a budget expired; the reason names the cap *)

type cell_origin =
  | Computed  (** verified in this run *)
  | Resumed  (** loaded from a journal, digest re-validated *)
  | Quarantined  (** exhausted its supervised retries *)
  | Skipped  (** a drain request arrived before the cell started *)

type sweep_cell = {
  policy_label : string;
  scope_tag : string;
  sat_verdict : sweep_verdict;
  sim_ok : bool;  (** the synchronous simulation converged *)
  exhaustive : sweep_verdict;
  cell_seconds : float;
  origin : cell_origin;
}

type sweep_report = {
  sweep_jobs : int;
  sweep_seed : int;
  cells : sweep_cell list;
      (** always in task order — result collection is keyed by task
          index, so scheduling never reorders the report *)
  sweep_wall : float;
  sweep_resumed : int;  (** cells taken from the journal, not re-run *)
  sweep_partial : bool;
      (** a drain left [Skipped] cells; the journal (if any) holds every
          completed cell, so a [~resume] re-run finishes the matrix *)
}

val sweep_scopes : (string * Mca_model.scope_spec) list
(** Default scope column: the 2p/2v small scope. *)

val sweep_tasks :
  ?scopes:(string * Mca_model.scope_spec) list ->
  unit ->
  (string * Mca.Policy.t * Mca_model.policy * string * Mca_model.scope_spec)
  array
(** The sweep's work list: policy grid × scopes, in report order. *)

val run_sweep :
  ?jobs:int ->
  ?seed:int ->
  ?budget:Netsim.Budget.t ->
  ?scopes:(string * Mca_model.scope_spec) list ->
  ?journal:string ->
  ?resume:bool ->
  ?journal_flush_every:int ->
  ?journal_flush_interval_s:float ->
  ?supervision:Parallel.Supervise.policy ->
  unit ->
  sweep_report
(** Runs the matrix with at most [jobs] (default 1) worker domains;
    [jobs = 1] runs inline with no domain spawned. Each cell attempt
    gets [Netsim.Budget.restarted ~stop budget], with the attempt's
    supervision hook as [stop], so a global [--timeout] bounds every
    cell individually and a drained or stalled attempt is cancelled
    through the same budget. Same [seed], same task list ⇒ identical
    verdicts for any [jobs] (see {!render_sweep}).

    Shared translation: before any worker starts, the relational model
    is translated to CNF {e once per scope} ({!Mca_model.build_shared})
    and each cell solves that immutable CNF under its three policy
    selector assumptions — workers never rebuild nearly-identical CNF
    per cell, which is what once made [--jobs 4] slower than
    sequential. Each worker domain threads {e one warm solver} through
    its share of cells ({!Mca_model.domain_session}): learnt clauses
    and heuristic state carry across cells, making the matrix
    measurably cheaper than independent solves (bench E17). Verdicts —
    and hence the rendered grid — are byte-identical at any [jobs] and
    to a grid of cold cells ([run_cell ~incremental:false]); the
    differential suite pins warm ≡ cold ≡ per-cell build.

    Crash safety: with [~journal:path] every completed cell is appended
    to a CRC-framed, fsync'd write-ahead journal; with [~resume:true]
    (requires [~journal], else [Invalid_argument]) cells already
    journaled under the same [seed] are loaded instead of re-run —
    after re-validating each record's content digest, so a tampered
    verdict forces a re-run. Duplicate records resolve last-write-wins.
    [journal_flush_every]/[journal_flush_interval_s] tune the journal's
    group commit (see {!Parallel.Journal.open_append}): the default is
    one fsync per cell; a larger batch amortizes fsyncs at the price of
    losing at most the unflushed tail on a crash (a drain or normal
    completion always flushes). Cells run under
    {!Parallel.Supervise.map} with [supervision]
    (default {!Parallel.Supervise.default_policy}): a crashing or
    stalled cell is retried with backoff and eventually reported as a
    [Quarantined] [Undecided] cell without poisoning the rest of the
    matrix, and a {!Parallel.Supervise.request_drain} (e.g. from a
    SIGINT handler) stops scheduling new cells, flushes the journal and
    yields a [sweep_partial] report. *)

val lookup_policy : string -> (Mca.Policy.t * Mca_model.policy) option
(** Resolves one of the paper-grid labels ("submod",
    "nonsubmod+release", …) to its protocol and relational-model policy
    — the request vocabulary of the verification service. *)

val cell_config :
  seed:int -> policy_label:string -> scope_tag:string ->
  Mca.Policy.t -> Mca_model.scope_spec -> Mca.Protocol.config
(** The deterministic per-cell protocol instance: the paper's contended
    utilities at the canonical 2×2 scope, utilities seeded from
    (seed, policy, scope) elsewhere. Shared by the sweep and the
    service so a cell means the same problem everywhere. *)

val run_cell :
  shared:Mca_model.shared ->
  ?incremental:bool ->
  budget:Netsim.Budget.t ->
  seed:int ->
  (string * Mca.Policy.t * Mca_model.policy * string * Mca_model.scope_spec) ->
  sweep_cell
(** Verifies one cell of {!sweep_tasks} across the three backends —
    the unit of work of {!run_sweep}. The budget bounds each backend
    individually. The SAT backend solves [shared] — the task scope's
    translation for the cell's effective target — under the cell's
    selector assumptions: on the calling domain's warm session with
    [~incremental:true], on a throwaway session opened for this cell
    alone with [~incremental:false] (the default). The budget's
    cancellation hook stops all three backends: a cancelled verdict
    column reads [Undecided "cancelled"], a cancelled simulation
    [sim_ok = false]. Raises [Invalid_argument] when [shared] was built
    for another scope or target. *)

val verdict_of_explore : Checker.Explore.verdict -> sweep_verdict
(** The exhaustive column of an explicit-state verdict: [Converges] is
    [Holds], an oscillation or a conflicting terminal is [Violated],
    [Unknown] is [Undecided] with its reason. *)

val verdict_of_sat : Relalg.Translate.bounded_outcome -> sweep_verdict
(** The SAT column of a consensus check: no counterexample ([Unsat]) is
    [Holds], a counterexample is [Violated], [Unknown] is [Undecided]
    with its reason. *)

val verdict_to_wire : sweep_verdict -> string
val verdict_of_wire : string -> sweep_verdict option
(** The verdict text of the journal records and of the service's
    verdict replies: ["holds"], ["violated"] or
    {!Parallel.Record.unknown} of the reason. *)

val cell_record : seed:int -> sweep_cell -> string
(** The journal line for a completed cell (format ["cell|1|…"], with a
    CRC-32 content digest in its [cert] field). Exposed for the
    robustness tests and the crash-recovery smoke job. *)

val cell_of_record : string -> (int * sweep_cell) option
(** Parses and digest-checks a journal line; [None] for foreign,
    malformed or tampered records. The cell comes back with
    [origin = Resumed]. *)

val cell_decided : sweep_cell -> bool
(** Neither verdict column is [Undecided]: the cell may be journaled,
    cached and replayed. *)

val undecided_cell :
  origin:cell_origin ->
  reason:string ->
  (string * Mca.Policy.t * Mca_model.policy * string * Mca_model.scope_spec) ->
  sweep_cell
(** A task's cell with both verdict columns [Undecided reason] — what a
    quarantined, drained or unanswered cell reports. *)

val load_journal :
  seed:int -> string -> (string * string, sweep_cell) Hashtbl.t
(** The resume step of {!run_sweep}: recovers the journal at the path
    (truncating a torn tail) and returns its digest-valid cells of
    [seed], keyed by (scope tag, policy label); the last record of a
    cell wins. *)

val render_sweep : ?timings:bool -> sweep_report -> string
(** Canonical text of the report. Without [timings] (the default) the
    rendering contains no clocks: equal verdicts give byte-identical
    strings whatever [jobs] was — the determinism contract the test
    suite pins. *)

val pp_sweep : ?timings:bool -> Format.formatter -> sweep_report -> unit

val sweep_decided : sweep_report -> bool
(** [true] when every cell is {!cell_decided} — the CLI maps [false] to the
    UNKNOWN exit code (10), exactly as in sequential runs. *)

(** E4 — Result 2: the rebidding attack with a single attacker, plus the
    footnote-7 detection. *)
type attack_row = {
  scenario : string;
  converges : bool;
  detected : Mca.Types.agent_id list;
}

val rebidding_attack : Format.formatter -> attack_row list

(** E5 — the abstraction-efficiency study: naive vs efficient encoding
    translation sizes (the paper's 259K vs 190K clause comparison), and
    solve time for the tractable cases. *)
type encoding_row = {
  encoding : string;
  scope_label : string;
  primary : int;
  vars : int;
  clauses : int;
  solve_seconds : float option;  (** [None] when skipped as intractable *)
}

val encoding_comparison : ?solve_naive:bool -> Format.formatter -> encoding_row list
(** [solve_naive] (default false) also times the naive-encoding check —
    expect minutes-to-hours, matching the paper's day-long naive run. *)

(** E6 — the D·|J| convergence bound: rounds-to-consensus across
    topologies and item counts. *)
type bound_row = {
  topology : string;
  agents : int;
  diameter : int;
  items : int;
  rounds : int;
  messages : int;
  bound : int;  (** D * |J| *)
}

val convergence_bound : Format.formatter -> bound_row list

(** E7 — the VN-mapping case study: acceptance and utility of MCA
    against the greedy and optimal baselines. *)
type vnm_row = {
  mapper : string;
  accepted : int;
  total : int;
  mean_residual_ratio : float;  (** vs exhaustive optimum, accepted only *)
}

val vnm_comparison : ?instances:int -> Format.formatter -> vnm_row list

(** E8 — the Section III listings, run through the textual frontend. *)
val paper_listings : Format.formatter -> (string * bool) list
(** Returns [(command, expected_outcome_met)] per command of the
    reconstructed listing file. *)
