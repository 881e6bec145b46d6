(* mca_cluster: the sharded verification cluster coordinator.

   Consistent-hashes the policy-matrix cell space over a fleet of
   mca_serve workers (named with repeatable --worker flags) and runs
   the full sweep through them: failover on worker death, shed
   escalation onto siblings, work stealing for stragglers, DRUP
   re-certification of relocated verdicts, and a journal whose records
   are interchangeable with mca_check --sweep --journal/--resume.

   Replicated-coordinator mode: a primary started with --repl publishes
   its journal to a warm standby started with --standby, which tails it
   into a local replica and takes over on lease expiry — finishing the
   sweep at a strictly higher epoch. Workers fence stale epochs, so a
   partitioned-but-alive old primary deposes itself (exit 13) without
   committing another record.

   The verdict grid it prints is the same canonical rendering as
   mca_check --sweep — byte-identical verdicts whatever the fleet did —
   followed by the cluster's own counters. Exit codes match mca_check:
   0 decided, 10 UNKNOWN cells, 11 partial (drained; resumable),
   plus 13 deposed. *)

open Cmdliner

let exit_error = 2
let exit_unknown = 10
let exit_partial = 11
let exit_fenced = 13

let worker_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun m -> `Msg m) (Service.Server.addr_of_string s)),
      Service.Server.pp_addr )

let print_stats workers timeout =
  List.iter
    (fun (i, r) ->
      match r with
      | Ok kvs ->
          Format.printf "worker %d: %s@." i
            (String.concat " "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs))
      | Error msg -> Format.printf "worker %d: unreachable (%s)@." i msg)
    (Service.Cluster.fleet_stats ~timeout_s:timeout workers);
  0

let print_report journal (report : Service.Cluster.report) =
  Format.printf "%a"
    (Core.Experiments.pp_sweep ~timings:true)
    report.Service.Cluster.sweep;
  Format.printf "  cluster: %s@."
    (String.concat " "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          report.Service.Cluster.cluster_stats));
  List.iteri
    (fun i up ->
      if not up then Format.printf "  cluster: worker %d down at exit@." i)
    report.Service.Cluster.worker_up;
  let sweep = report.Service.Cluster.sweep in
  if report.Service.Cluster.deposed then begin
    Format.printf
      "deposed: epoch %d superseded this coordinator; the successor owns \
       the sweep@."
      report.Service.Cluster.cl_epoch;
    exit_fenced
  end
  else if sweep.Core.Experiments.sweep_partial then begin
    (match journal with
    | Some path ->
        Format.printf "partial sweep: resume with --journal %s --resume@." path
    | None -> Format.printf "partial sweep: interrupted before completion@.");
    exit_partial
  end
  else if Core.Experiments.sweep_decided sweep then 0
  else exit_unknown

let run_sweep workers jobs seed agents items states deadline timeout retries
    steal_after down_after heartbeat no_recheck journal resume flush_every
    ring_points repl epoch epoch_journal standby lease_ms poll_ms
    dispatch_delay_ms =
  let scope =
    { Core.Mca_model.pnodes = agents; vnodes = items; states; values = 6;
      bitwidth = 4 }
  in
  let scope_tag = Printf.sprintf "%dp%dv/%dst" agents items states in
  (* same drain path as mca_check: the handler only flips an atomic; the
     coordinator's stop hook polls it between attempts *)
  Parallel.Supervise.on_drain_signals Parallel.Supervise.request_drain;
  (* epoch choice: never at or below the durable floor. The floor is the
     highest epoch in --epoch-journal (if given); an explicit --epoch
     above the floor is honored, anything else becomes floor+1. The
     chosen epoch is committed to the floor before any dispatch. *)
  let epoch_used =
    match (standby, epoch_journal) with
    | Some _, _ -> epoch (* standby treats it as a floor; resolved below *)
    | None, None -> epoch
    | None, Some path ->
        let floor = Service.Cluster.latest_epoch path in
        let chosen = if epoch > floor then epoch else floor + 1 in
        Service.Cluster.commit_epoch path ~seed ~epoch:chosen;
        chosen
  in
  let cfg =
    {
      (Service.Cluster.default_config workers) with
      Service.Cluster.dispatchers = jobs;
      seed;
      deadline_s = deadline;
      timeout_s = timeout;
      max_attempts = retries;
      steal_after_s = steal_after;
      down_after;
      heartbeat_s = heartbeat;
      verify_relocated = not no_recheck;
      ring_points;
      cl_journal = journal;
      cl_resume = resume;
      cl_flush_every = flush_every;
      epoch = epoch_used;
      repl_listen = repl;
      cl_throttle_s = float_of_int dispatch_delay_ms /. 1000.0;
    }
  in
  let scopes = [ (scope_tag, scope) ] in
  match standby with
  | None -> print_report journal (Service.Cluster.run_sweep ~scopes cfg)
  | Some source -> (
      let floor =
        max epoch
          (match epoch_journal with
          | Some path -> Service.Cluster.latest_epoch path
          | None -> 0)
      in
      let sb =
        {
          (Service.Cluster.default_standby ~source cfg) with
          Service.Cluster.sb_cluster = { cfg with epoch = floor };
          sb_lease_s = float_of_int lease_ms /. 1000.0;
          sb_poll_s = Float.max 0.001 (float_of_int poll_ms /. 1000.0);
          sb_down_after = down_after;
        }
      in
      match Service.Cluster.run_standby ~scopes sb with
      | Service.Cluster.Standby_drained { replicated } ->
          Format.printf "standby: drained after replicating %d records@."
            replicated;
          exit_partial
      | Service.Cluster.Took_over
          { takeover_epoch; replicated; takeover_latency_s; report } ->
          (match epoch_journal with
          | Some path ->
              Service.Cluster.commit_epoch path ~seed ~epoch:takeover_epoch
          | None -> ());
          Format.printf
            "standby: took over at epoch %d after replicating %d records \
             (%.3fs past lease)@."
            takeover_epoch replicated takeover_latency_s;
          print_report journal report)

let main workers stats jobs seed agents items states deadline timeout retries
    steal_after down_after heartbeat no_recheck journal resume flush_every
    ring_points repl epoch epoch_journal standby lease_ms poll_ms
    dispatch_delay_ms =
  if workers = [] then begin
    Printf.eprintf "error: at least one --worker is required\n";
    exit_error
  end
  else
    match
      if stats then print_stats workers timeout
      else
        run_sweep workers jobs seed agents items states deadline timeout
          retries steal_after down_after heartbeat no_recheck journal resume
          flush_every ring_points repl epoch epoch_journal standby lease_ms
          poll_ms dispatch_delay_ms
    with
    | code -> code
    | exception (Failure msg | Invalid_argument msg) ->
        Printf.eprintf "error: %s\n" msg;
        exit_error
    | exception Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
        exit_error

let term =
  let workers =
    Arg.(value & opt_all worker_conv []
         & info [ "worker"; "w" ]
             ~doc:"a worker address: unix:PATH, tcp:HOST:PORT, or a bare \
                   Unix-socket path (repeatable; order fixes ring identity)"
             ~docv:"ADDR")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"probe every worker's live counters and exit")
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "jobs" ] ~doc:"coordinator dispatch domains" ~docv:"N")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"cell identity seed")
  in
  let agents =
    Arg.(value & opt int 2 & info [ "agents"; "n" ] ~doc:"scope: agents")
  in
  let items =
    Arg.(value & opt int 2 & info [ "items"; "j" ] ~doc:"scope: items")
  in
  let states =
    Arg.(value & opt int 5
         & info [ "sweep-states"; "states" ] ~doc:"scope: trace length")
  in
  let deadline =
    Arg.(value & opt float 30.0
         & info [ "deadline" ]
             ~doc:"per-cell wall-clock allowance sent with each request"
             ~docv:"SECS")
  in
  let timeout =
    Arg.(value & opt float 35.0
         & info [ "timeout" ]
             ~doc:"per-attempt socket timeout (connect and I/O); keep it \
                   above --deadline or healthy slow cells read as transport \
                   failures" ~docv:"SECS")
  in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ]
             ~doc:"attempts per cell across the fleet before its last \
                   UNKNOWN answer is reported" ~docv:"N")
  in
  let steal_after =
    Arg.(value & opt float 5.0
         & info [ "steal-after" ]
             ~doc:"in-flight age before an idle dispatcher duplicates a \
                   straggling cell onto a sibling" ~docv:"SECS")
  in
  let down_after =
    Arg.(value & opt int 2
         & info [ "down-after" ]
             ~doc:"consecutive observed transport failures before a worker \
                   is routed around (also the standby's failed-pull \
                   threshold)" ~docv:"N")
  in
  let heartbeat =
    Arg.(value & opt float 0.5
         & info [ "heartbeat" ]
             ~doc:"liveness-probe period (stats request per worker); 0 \
                   disables" ~docv:"SECS")
  in
  let no_recheck =
    Arg.(value & flag
         & info [ "no-recheck" ]
             ~doc:"accept relocated verdicts without the local DRUP \
                   re-certification")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ]
             ~doc:"coordinator write-ahead journal: dispatch intents and \
                   decided cells; interchangeable with mca_check --sweep \
                   --journal. In --standby mode this is the replica the \
                   takeover resumes from" ~docv:"PATH")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"load cells already decided in --journal instead of \
                   re-dispatching them")
  in
  let flush_every =
    Arg.(value & opt int 1
         & info [ "journal-flush-every" ]
             ~doc:"journal group-commit batch size" ~docv:"N")
  in
  let ring_points =
    Arg.(value & opt int 64
         & info [ "ring-points" ]
             ~doc:"virtual nodes per worker on the hash ring" ~docv:"N")
  in
  let repl =
    Arg.(value & opt (some worker_conv) None
         & info [ "repl" ]
             ~doc:"publish the journal for standby replication at this \
                   address (requires --journal)" ~docv:"ADDR")
  in
  let epoch =
    Arg.(value & opt int 0
         & info [ "epoch" ]
             ~doc:"leadership epoch (0 = unfenced legacy mode). With \
                   --epoch-journal the effective epoch is raised above the \
                   recorded floor; in --standby mode this is a floor, and \
                   the takeover epoch is one past everything seen" ~docv:"N")
  in
  let epoch_journal =
    Arg.(value & opt (some string) None
         & info [ "epoch-journal" ]
             ~doc:"durable epoch floor: every epoch is recorded here before \
                   use, and a restarted coordinator starts strictly above \
                   the highest recorded one" ~docv:"PATH")
  in
  let standby =
    Arg.(value & opt (some worker_conv) None
         & info [ "standby" ]
             ~doc:"run as warm standby: tail the journal published at ADDR \
                   into --journal (the replica) and take over on lease \
                   expiry" ~docv:"ADDR")
  in
  let lease_ms =
    Arg.(value & opt int 1000
         & info [ "lease-ms" ]
             ~doc:"standby: wall clock since the last successful pull \
                   before takeover (and --down-after consecutive pulls must \
                   have failed)" ~docv:"MS")
  in
  let poll_ms =
    Arg.(value & opt int 50
         & info [ "poll-ms" ] ~doc:"standby: delay between replication pulls"
             ~docv:"MS")
  in
  let dispatch_delay_ms =
    Arg.(value & opt int 0
         & info [ "dispatch-delay" ]
             ~doc:"sleep before dispatching each cell — stretches the sweep \
                   so failover tests and benches can land a kill mid-flight \
                   deterministically; not for production" ~docv:"MS")
  in
  Term.(
    const main $ workers $ stats $ jobs $ seed $ agents $ items $ states
    $ deadline $ timeout $ retries $ steal_after $ down_after $ heartbeat
    $ no_recheck $ journal $ resume $ flush_every $ ring_points $ repl
    $ epoch $ epoch_journal $ standby $ lease_ms $ poll_ms
    $ dispatch_delay_ms)

let cmd =
  let exits =
    Cmd.Exit.info 0 ~doc:"every cell decided"
    :: Cmd.Exit.info exit_error ~doc:"invalid arguments or I/O error"
    :: Cmd.Exit.info exit_unknown
         ~doc:"UNKNOWN cells remain (fleet exhausted the per-cell retries)"
    :: Cmd.Exit.info exit_partial
         ~doc:"drained before completion; the journal is resumable"
    :: Cmd.Exit.info exit_fenced
         ~doc:"deposed: a coordinator with a newer epoch owns the sweep"
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "mca_cluster" ~exits
       ~doc:"Sharded verification cluster: consistent-hash a policy-matrix \
             sweep over mca_serve workers with failover, work stealing, \
             journal-backed handoff, and warm-standby coordinator \
             replication with epoch fencing")
    term

let () = exit (Cmd.eval' cmd)
