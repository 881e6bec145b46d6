(* Push-button MCA convergence checking, the paper's headline tool.

   Three backends over the same policy knobs:
     --backend sim       protocol simulation (sync or async schedule);
                         with --faults/--crash, an adversarial run with
                         unreliable channels and crash-restart agents
     --backend explicit  exhaustive explicit-state checking of all
                         message interleavings (bounded, canonicalized);
                         with --max-drops/--max-dups, against a budgeted
                         message adversary — the verdict then *decides*
                         fault tolerance for the scope
     --backend sat       the Alloy-lite relational model compiled to SAT

   Policy flags mirror the paper: --non-submodular, --release-outbid,
   --rebid-attack, --target N.

   --timeout SECS arms a wall-clock budget on every backend: instead of
   hanging, the tool reports UNKNOWN and exits with code 10.

   --certify (sat backend) re-validates the verdict with the
   independent Sat.Proof checker: a HOLDS answer must come with an
   accepted DRUP refutation, a VIOLATED answer with a model that
   satisfies every translated clause. With --timeout too, an UNKNOWN
   carries no certificate, and a decided verdict is certified. *)

open Cmdliner

type backend = Sim | Explicit | Sat_model

let backend_conv =
  Arg.enum [ ("sim", Sim); ("explicit", Explicit); ("sat", Sat_model) ]

type topo = Clique | Line | Ring | Star | Grid | Random

let topo_conv =
  Arg.enum
    [
      ("clique", Clique); ("line", Line); ("ring", Ring); ("star", Star);
      ("grid", Grid); ("random", Random);
    ]

(* near-square factorization: the tallest grid no wider than square *)
let grid_dims n =
  let r = ref (int_of_float (sqrt (float_of_int n))) in
  while n mod !r <> 0 do decr r done;
  (!r, n / !r)

let graph_of topo n rng =
  match topo with
  | Clique -> Netsim.Topology.clique n
  | Line -> Netsim.Topology.line n
  | Ring -> Netsim.Topology.ring n
  | Star -> Netsim.Topology.star n
  | Grid ->
      let rows, cols = grid_dims n in
      Netsim.Topology.grid rows cols
  | Random -> Netsim.Topology.erdos_renyi_connected rng n 0.5

let crash_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "invalid crash spec %S, expected AGENT:AT or AGENT:AT:RESTART" s))
    in
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some agent; Some at ] -> Ok (Netsim.Faults.crash ~agent ~at ())
    | [ Some agent; Some at; Some restart_at ] ->
        Ok (Netsim.Faults.crash ~restart_at ~agent ~at ())
    | _ -> fail ()
  in
  let print ppf (c : Netsim.Faults.crash) =
    match c.restart_at with
    | None -> Format.fprintf ppf "%d:%d" c.agent c.crash_at
    | Some r -> Format.fprintf ppf "%d:%d:%d" c.agent c.crash_at r
  in
  Arg.conv (parse, print)

let exit_unknown = 10
let exit_partial = 11

let budget_of_timeout = function
  | None -> Netsim.Budget.unlimited
  | Some wall_s -> Netsim.Budget.create ~wall_s ()

(* --sweep: the whole policy matrix at the requested scope, sharded over
   a worker pool. Exit codes are the same as sequential runs: --jobs
   changes wall-clock time, never the verdicts or the exit code.

   With --journal, completed cells are persisted as they finish;
   Ctrl-C/SIGTERM requests a graceful drain (finish in-flight cells,
   flush the journal, print the partial report, exit 11) and a second
   run with --resume picks up exactly where the first one stopped. *)
let run_sweep jobs seed agents items states timeout journal resume
    journal_flush_every journal_flush_interval task_deadline retries =
  let jobs = if jobs = 0 then Parallel.Pool.available_jobs () else jobs in
  let scope =
    { Core.Mca_model.pnodes = agents; vnodes = items; states; values = 6;
      bitwidth = 4 }
  in
  let scope_tag = Printf.sprintf "%dp%dv/%dst" agents items states in
  let supervision =
    { Parallel.Supervise.default_policy with
      max_attempts = retries; deadline_s = task_deadline; seed }
  in
  (* Atomic.set is async-signal-safe; everything else (journal flush,
     partial report) happens on the normal path once workers notice the
     flag through the hook of their cell's budget. *)
  Parallel.Supervise.on_drain_signals Parallel.Supervise.request_drain;
  let report =
    Core.Experiments.run_sweep ~jobs ~seed ~budget:(budget_of_timeout timeout)
      ~scopes:[ (scope_tag, scope) ] ?journal ~resume
      ?journal_flush_every ?journal_flush_interval_s:journal_flush_interval
      ~supervision ()
  in
  Format.printf "%a" (Core.Experiments.pp_sweep ~timings:true) report;
  if report.Core.Experiments.sweep_partial then begin
    (match journal with
    | Some path ->
        Format.printf "partial sweep: resume with --journal %s --resume@." path
    | None -> Format.printf "partial sweep: interrupted before completion@.");
    exit_partial
  end
  else if Core.Experiments.sweep_decided report then 0
  else exit_unknown

let run backend encoding symmetry certify non_submodular release_outbid
    rebid_attack target agents items topology seed drop duplicate max_delay
    crashes max_drops max_dups timeout =
  let rng = Netsim.Rng.create seed in
  let budget = budget_of_timeout timeout in
  let policy =
    Mca.Policy.make
      ~utility:
        (if non_submodular then Mca.Policy.Non_submodular 10
         else Mca.Policy.Submodular 2)
      ~release_outbid ~rebid_lost:rebid_attack
      ~target_items:(min target items) ()
  in
  match backend with
  | Sat_model ->
      let mpolicy =
        {
          Core.Mca_model.submodular = not non_submodular;
          release_outbid;
          rebid_attack;
          target = min target items;
        }
      in
      let scope =
        {
          Core.Mca_model.pnodes = agents;
          vnodes = items;
          states = 6;
          values = 6;
          bitwidth = 4;
        }
      in
      let enc =
        match encoding with
        | "naive" -> Core.Mca_model.Naive
        | "buffered" -> Core.Mca_model.Buffered
        | _ -> Core.Mca_model.Efficient
      in
      let m = Core.Mca_model.build enc mpolicy scope in
      Format.printf "model: %s@." (Core.Mca_model.describe m);
      let session =
        Relalg.Translate.session ~certify (Core.Mca_model.translation ~symmetry m)
      in
      let outcome = Relalg.Translate.solve_cell ~budget session [] in
      (match outcome with
      | Relalg.Translate.Decided _ when certify -> (
          match Relalg.Translate.certify session with
          | Some report ->
              Format.printf "certificate: %a@." Sat.Proof.pp_report report
          | None ->
              Format.printf
                "certificate: trivial (formula constant-folded, no SAT call)@.")
      | _ -> ());
      (match outcome with
      | Relalg.Translate.Decided Relalg.Translate.Unsat ->
          Format.printf "consensus assertion HOLDS within scope@.";
          0
      | Relalg.Translate.Decided (Relalg.Translate.Sat inst) ->
          Format.printf "consensus VIOLATED — counterexample trace:@.%a@."
            Relalg.Instance.pp inst;
          1
      | Relalg.Translate.Unknown reason ->
          Format.printf "UNKNOWN: budget exhausted (%s)@." reason;
          exit_unknown)
  | Explicit | Sim ->
      let graph = graph_of topology agents rng in
      let base_utilities =
        Array.init agents (fun _ ->
            Array.init items (fun _ -> 5 + Netsim.Rng.int rng 25))
      in
      let cfg =
        Mca.Protocol.uniform_config ~graph ~num_items:items ~base_utilities
          ~policy
      in
      if backend = Sim then begin
        let faulty =
          drop > 0.0 || duplicate > 0.0 || max_delay > 0 || crashes <> []
        in
        if faulty then begin
          let plan =
            Netsim.Faults.plan
              ~default_link:
                (Netsim.Faults.lossy ~drop ~duplicate ~max_delay ())
              ~crashes ~seed ()
          in
          let verdict, faults = Mca.Protocol.run_faulty ~budget ~faults:plan cfg in
          Format.printf "simulation (faulty async): %a@."
            Mca.Protocol.pp_verdict verdict;
          Format.printf "%a@." Netsim.Faults.pp_ledger faults;
          match verdict with
          | Mca.Protocol.Converged _ -> 0
          | Mca.Protocol.Exhausted _ ->
              Format.printf
                "UNKNOWN: step/time budget exhausted before quiescence@.";
              exit_unknown
          | Mca.Protocol.Oscillating _ -> 1
        end
        else begin
          let verdict = Mca.Protocol.run_sync ~max_rounds:500 ~budget cfg in
          Format.printf "simulation (sync): %a@." Mca.Protocol.pp_verdict
            verdict;
          let verdict_async =
            Mca.Protocol.run_async ~max_steps:50_000 ~budget cfg
          in
          Format.printf "simulation (async fifo): %a@." Mca.Protocol.pp_verdict
            verdict_async;
          match (verdict, verdict_async) with
          | Mca.Protocol.Converged _, Mca.Protocol.Converged _ -> 0
          | (Mca.Protocol.Exhausted _, _ | _, Mca.Protocol.Exhausted _)
            when timeout <> None ->
              Format.printf "UNKNOWN: budget exhausted@.";
              exit_unknown
          | _ -> 1
        end
      end
      else begin
        let t0 = Netsim.Clock.now () in
        let verdict =
          Checker.Explore.run ~max_states:1_000_000 ~max_drops ~max_dups
            ~budget cfg
        in
        let secs = Netsim.Clock.now () -. t0 in
        Format.printf "explicit-state: %a@." Checker.Explore.pp_verdict verdict;
        let states =
          match verdict with
          | Checker.Explore.Converges { states; _ }
          | Checker.Explore.Nonconvergence { states; _ }
          | Checker.Explore.Bad_terminal { states; _ }
          | Checker.Explore.Unknown { states; _ } ->
              states
        in
        Format.printf "explored %d states in %.1f ms (%.0f states/s)@." states
          (1e3 *. secs)
          (float_of_int states /. Float.max secs 1e-6);
        if max_drops > 0 || max_dups > 0 then
          Format.printf
            "adversary budget: up to %d drop(s), %d duplication(s) per \
             execution@."
            max_drops max_dups;
        match verdict with
        | Checker.Explore.Converges _ -> 0
        | Checker.Explore.Unknown _ -> exit_unknown
        | _ -> 1
      end

let run_safe sweep jobs sweep_states journal resume journal_flush_every
    journal_flush_interval task_deadline retries backend encoding symmetry
    certify ns ro ra target agents items topology seed drop duplicate
    max_delay crashes max_drops max_dups timeout =
  match
    if sweep then
      run_sweep jobs seed agents items sweep_states timeout journal resume
        journal_flush_every journal_flush_interval task_deadline retries
    else
      run backend encoding symmetry certify ns ro ra target agents items
        topology seed drop duplicate max_delay crashes max_drops max_dups
        timeout
  with
  | code -> code
  | exception (Failure msg | Invalid_argument msg) ->
      Printf.eprintf "error: %s\n" msg;
      2
  | exception Sat.Proof.Certification_failed msg ->
      Printf.eprintf "error: certificate REJECTED: %s\n" msg;
      3

let term =
  let backend =
    Arg.(value & opt backend_conv Sim & info [ "backend"; "b" ] ~doc:"sim, explicit or sat")
  in
  let non_submodular =
    Arg.(value & flag & info [ "non-submodular" ] ~doc:"p_u: non-sub-modular utility")
  in
  let release =
    Arg.(value & flag & info [ "release-outbid" ] ~doc:"p_RO: release items after an outbid one")
  in
  let attack =
    Arg.(value & flag & info [ "rebid-attack" ] ~doc:"violate Remark 1 (malicious rebidding)")
  in
  let target =
    Arg.(value & opt int 2 & info [ "target" ] ~doc:"p_T: items per agent")
  in
  let agents = Arg.(value & opt int 2 & info [ "agents"; "n" ] ~doc:"number of agents") in
  let items = Arg.(value & opt int 2 & info [ "items"; "j" ] ~doc:"number of items") in
  let topology =
    Arg.(value & opt topo_conv Clique
         & info [ "topology" ]
             ~doc:"network topology: $(b,clique), $(b,line), $(b,ring), \
                   $(b,star), $(b,grid) (near-square) or $(b,random) \
                   (connected Erdős–Rényi)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"utility/topology/fault seed") in
  let encoding =
    Arg.(value & opt string "efficient"
         & info [ "encoding" ] ~doc:"SAT-model encoding: efficient, buffered or naive")
  in
  let symmetry =
    Arg.(value & flag & info [ "symmetry" ] ~doc:"add symmetry-breaking predicates (sat backend)")
  in
  let certify =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"independently certify the SAT-backend verdict (DRUP proof \
                   check for HOLDS, strict model check for VIOLATED); with \
                   --timeout, an UNKNOWN carries no certificate")
  in
  let drop =
    Arg.(value & opt float 0.0
         & info [ "faults" ]
             ~doc:"sim backend: i.i.d. per-message drop probability on every \
                   link (enables the fault-injection run with \
                   retransmission)" ~docv:"RATE")
  in
  let duplicate =
    Arg.(value & opt float 0.0
         & info [ "duplicate" ]
             ~doc:"sim backend: i.i.d. per-message duplication probability"
             ~docv:"RATE")
  in
  let max_delay =
    Arg.(value & opt int 0
         & info [ "max-delay" ]
             ~doc:"sim backend: maximum random in-flight delay, in scheduler \
                   steps" ~docv:"STEPS")
  in
  let crashes =
    Arg.(value & opt_all crash_conv []
         & info [ "crash" ]
             ~doc:"sim backend: crash agent $(b,A) at step $(b,T), optionally \
                   restarting (with empty state) at step $(b,R); repeatable"
             ~docv:"A:T[:R]")
  in
  let max_drops =
    Arg.(value & opt int 0
         & info [ "max-drops" ]
             ~doc:"explicit backend: arm a message adversary that may lose up \
                   to $(docv) in-flight messages per execution — a CONVERGES \
                   verdict then decides drop tolerance" ~docv:"K")
  in
  let max_dups =
    Arg.(value & opt int 0
         & info [ "max-dups" ]
             ~doc:"explicit backend: the adversary may duplicate up to \
                   $(docv) in-flight messages per execution" ~docv:"K")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ]
             ~doc:"wall-clock budget in seconds for any backend; on expiry \
                   the verdict is UNKNOWN and the exit code is 10. Under \
                   --sweep the budget is re-armed per cell"
             ~docv:"SECS")
  in
  let sweep =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"run the whole Result-1/Result-2 policy matrix at the \
                   $(b,-n)x$(b,-j) scope across all three backends, sharded \
                   over $(b,--jobs) worker domains; verdicts and exit codes \
                   are independent of the job count")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ]
             ~doc:"worker domains for --sweep (1 = run inline; 0 = one per \
                   available core)" ~docv:"N")
  in
  let sweep_states =
    Arg.(value & opt int 5
         & info [ "sweep-states" ]
             ~doc:"trace length (netState scope) used by --sweep"
             ~docv:"K")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ]
             ~doc:"--sweep: append every completed cell to a crash-safe \
                   (CRC-framed, fsync'd) journal at $(docv); interrupting \
                   the sweep (Ctrl-C, SIGTERM, or even SIGKILL) loses at \
                   most the in-flight cells" ~docv:"FILE")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"--sweep: skip cells already recorded in --journal under \
                   the same seed (each record's content digest is \
                   re-validated first; tampered records are re-run)")
  in
  let journal_flush_every =
    Arg.(value & opt (some int) None
         & info [ "journal-flush-every" ]
             ~doc:"--sweep: group-commit the journal every $(docv) cells \
                   instead of fsync'ing each one — amortizes fsync cost at \
                   the price of losing at most $(docv)-1 completed cells on \
                   a crash (a drain or normal exit always flushes)"
             ~docv:"N")
  in
  let journal_flush_interval =
    Arg.(value & opt (some float) None
         & info [ "journal-flush-interval" ]
             ~doc:"--sweep: with --journal-flush-every, also flush any \
                   pending journal records older than $(docv) seconds, \
                   bounding the durability window in time as well as in \
                   record count" ~docv:"SECS")
  in
  let task_deadline =
    Arg.(value & opt (some float) None
         & info [ "task-deadline" ]
             ~doc:"--sweep: cancel any cell attempt still running after \
                   $(docv) seconds; the cell is retried with backoff and \
                   quarantined as UNKNOWN after --retries attempts"
             ~docv:"SECS")
  in
  let retries =
    Arg.(value & opt int 3
         & info [ "retries" ]
             ~doc:"--sweep: supervised attempts per cell before it is \
                   quarantined (crashing or stalled cells never poison the \
                   rest of the matrix)" ~docv:"N")
  in
  Term.(
    const run_safe $ sweep $ jobs $ sweep_states $ journal $ resume
    $ journal_flush_every $ journal_flush_interval
    $ task_deadline $ retries $ backend $ encoding $ symmetry
    $ certify
    $ non_submodular $ release $ attack $ target $ agents $ items $ topology
    $ seed $ drop $ duplicate $ max_delay $ crashes $ max_drops $ max_dups
    $ timeout)

let cmd =
  let exits =
    Cmd.Exit.info 0 ~doc:"consensus holds / the run converged"
    :: Cmd.Exit.info 1
         ~doc:"consensus violated: a counterexample, oscillation or \
               conflicting allocation was found"
    :: Cmd.Exit.info 2 ~doc:"invalid arguments or runtime error"
    :: Cmd.Exit.info 3 ~doc:"certificate rejected (solver bug caught)"
    :: Cmd.Exit.info exit_unknown
         ~doc:"UNKNOWN: a state, step or wall-clock budget expired before \
               the backend could decide"
    :: Cmd.Exit.info exit_partial
         ~doc:"partial sweep: a drain request (SIGINT/SIGTERM) stopped the \
               sweep early; the --journal file is resumable with --resume"
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "mca_check" ~exits
       ~doc:"Check Max-Consensus Auction convergence under policy instantiations")
    term

let () = exit (Cmd.eval' cmd)
