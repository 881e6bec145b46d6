(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (experiments E1-E10; see DESIGN.md for the index), then
   times the computational kernels behind them with Bechamel.

   Run with: dune exec bench/main.exe
   Pass --fast to skip the slow SAT-model checks (the Result-1 UNSAT rows
   take tens of seconds each; the naive-encoding solve is reported as
   intractable by design, matching the paper's day-long naive run). *)

let fast_mode = Array.exists (( = ) "--fast") Sys.argv

(* --scaling-smoke: run only the E15 scaling sweep at a reduced scope
   and exit nonzero if --jobs 4 is materially slower than --jobs 1 —
   the CI regression gate for the old 0.47x --jobs 4 slowdown. *)
let scaling_smoke = Array.exists (( = ) "--scaling-smoke") Sys.argv

(* --cluster-smoke: run only the E16 sharded-cluster sweep at a reduced
   scope and exit nonzero if the fleet ever loses or changes a verdict
   — the CI gate for the coordinator's failover/handoff invariant. *)
let cluster_smoke = Array.exists (( = ) "--cluster-smoke") Sys.argv

(* --incremental-smoke: run only the E17 incremental matrix and exit
   nonzero if the warm session is not materially cheaper than six
   independent solves, or if the certified 3p2v pin diverges — the CI
   gate for the incremental-session speedup and soundness claims. *)
let incremental_smoke = Array.exists (( = ) "--incremental-smoke") Sys.argv

(* --spec-smoke: run only the E18 spec-submission sweep and exit nonzero
   if a cached verdict is not cheaper than a cold solve or if a hostile
   mutating flood gets anything other than a structured reply — the CI
   gate for the multi-tenant submit verb. *)
let spec_smoke = Array.exists (( = ) "--spec-smoke") Sys.argv

(* --failover-smoke: run only the E19 replicated-coordinator bench and
   exit nonzero if the replication stream costs a healthy sweep more
   than 10%, or if a takeover sweep is not byte-identical to the
   reference — the CI gate for the warm-standby failover invariant. *)
let failover_smoke = Array.exists (( = ) "--failover-smoke") Sys.argv

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* Timing methodology of the timed benches: a discarded warm-up run
   first (paging in the allocator and code paths used to make whatever
   configuration ran first look slower — the source of the old
   "journaled jobs=1 faster than plain" anomaly), then the
   configurations interleaved across [repeats] rounds so clock drift
   hits all of them alike, reporting medians. *)
let median l =
  match List.sort compare l with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables (the paper's figures and results)         *)

let run_experiments () =
  let ppf = Format.std_formatter in
  section "E1 - Figure 1 worked example";
  ignore (Core.Experiments.figure1 ppf);

  section "E2/E3 - Figure 2 and Result 1: policy matrix";
  ignore (Core.Experiments.policy_matrix ~include_sat:(not fast_mode) ppf);

  section "E4 - Result 2: rebidding attack";
  ignore (Core.Experiments.rebidding_attack ppf);

  section "E5 - Abstraction efficiency (naive vs efficient encoding)";
  ignore (Core.Experiments.encoding_comparison ~solve_naive:false ppf);
  Format.printf
    "  note: the naive-encoding check is not solved here — as in the paper,@.";
  Format.printf
    "  where the naive model ran ~a day vs <2h for the efficient one.@.";

  section "E6 - Convergence bound (rounds vs D*|J|)";
  let rows = Core.Experiments.convergence_bound ppf in
  let within =
    List.filter
      (fun r -> r.Core.Experiments.rounds <= r.Core.Experiments.bound + 2)
      rows
  in
  Format.printf "  %d/%d runs within D*|J|+2 rounds@." (List.length within)
    (List.length rows);

  section "E7 - VN mapping case study";
  ignore
    (Core.Experiments.vnm_comparison ~instances:(if fast_mode then 10 else 30) ppf);

  section "E8 - Section III listings";
  ignore (Core.Experiments.paper_listings ppf)

(* ------------------------------------------------------------------ *)
(* E10: graceful degradation — convergence under message loss.
   Sweeps i.i.d. loss rates over the fixed topologies and scopes, runs
   the retransmitting protocol in the fault-injected scheduler, and
   reports rounds-to-quiescence against the reliable-network D*|J|
   bound. The bound does not hold under loss (each lost broadcast can
   cost a retransmission interval), so the interesting column is the
   inflation factor. *)

let run_loss_sweep () =
  section "E10 - Convergence under message loss (fault injection)";
  Format.printf "  %-7s %-5s %3s %3s %6s %7s %6s %8s %9s@." "topo" "loss"
    "n" "j" "D*|J|" "rounds" "msgs" "lost" "verdict";
  let topos = [ ("line", Netsim.Topology.line); ("ring", Netsim.Topology.ring);
                ("clique", Netsim.Topology.clique) ] in
  let losses = [ 0.0; 0.05; 0.1; 0.2 ] in
  let converged = ref 0 and total = ref 0 in
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun loss ->
          List.iter
            (fun (n, j) ->
              (* a 2-ring is not a simple graph; fall back to the line *)
              let topo = if tname = "ring" && n < 3 then Netsim.Topology.line else topo in
              let rng = Netsim.Rng.create (Hashtbl.hash (tname, loss, n, j)) in
              let graph = topo n in
              let base_utilities =
                Array.init n (fun _ ->
                    Array.init j (fun _ -> 5 + Netsim.Rng.int rng 25))
              in
              let cfg =
                Mca.Protocol.uniform_config ~graph ~num_items:j ~base_utilities
                  ~policy:
                    (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2)
                       ~target_items:j ())
              in
              let plan =
                if loss = 0.0 then Netsim.Faults.no_faults
                else
                  Netsim.Faults.plan
                    ~default_link:(Netsim.Faults.lossy ~drop:loss ())
                    ~seed:(Hashtbl.hash (tname, loss, n, j, "plan")) ()
              in
              let verdict, faults = Mca.Protocol.run_faulty ~faults:plan cfg in
              let bound = Netsim.Graph.diameter graph * j in
              let sent, lost, _, _ = Netsim.Faults.totals faults in
              incr total;
              (match verdict with
              | Mca.Protocol.Converged { rounds; messages; _ } ->
                  incr converged;
                  Format.printf "  %-7s %-5.2f %3d %3d %6d %7d %6d %3d/%-4d %9s@."
                    tname loss n j bound rounds messages lost sent "ok"
              | v ->
                  Format.printf "  %-7s %-5.2f %3d %3d %6d %7s %6s %3d/%-4d %a@."
                    tname loss n j bound "-" "-" lost sent
                    Mca.Protocol.pp_verdict v))
            [ (2, 2); (3, 3); (4, 4) ])
        losses)
    topos;
  Format.printf "  %d/%d runs converged (honest sub-modular, retransmission)@."
    !converged !total

(* ------------------------------------------------------------------ *)
(* Shared by the BENCH_*.json writers. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* E15: the scaling sweep — what the shared translation and the
   group-commit journal bought. One translation per scope is built up
   front and every policy cell solves it under three selector
   assumptions (no per-cell build/translate), and the worker pool caps
   its domain count at the available cores; together these are the fix
   for the old regression where --jobs 4 ran at 0.47x the speed of
   --jobs 1. The journal is measured with group commit (one fsync per
   batch instead of per cell) against the plain run. Methodology: see
   [median] — warm-up, interleaved configurations, medians. *)

let run_scaling_sweep () =
  section "E15 - Scaling sweep (shared translation, group-commit journal)";
  let cores = Parallel.Pool.available_jobs () in
  let scope_2p2v =
    { Core.Mca_model.small_scope with Core.Mca_model.states = 4;
      Core.Mca_model.values = 5 }
  in
  let scope_3p2v =
    { Core.Mca_model.pnodes = 3; vnodes = 2; states = 3; values = 4;
      bitwidth = 4 }
  in
  let measured_scopes =
    ("2p2v/4st", scope_2p2v, 5)
    :: (if scaling_smoke || fast_mode then []
        else [ ("3p2v/3st", scope_3p2v, 3) ])
  in
  let budget () = Netsim.Budget.create ~wall_s:600.0 () in
  let job_counts = [ 1; 2; 4 ] in
  let scope_rows =
    List.map
      (fun (tag, scope, repeats) ->
        let scopes = [ (tag, scope) ] in
        ignore
          (Core.Experiments.run_sweep ~jobs:1 ~seed:1 ~budget:(budget ())
             ~scopes ());
        let walls = List.map (fun j -> (j, ref [])) job_counts in
        let reference = ref None and cells = ref 0 in
        for _ = 1 to repeats do
          List.iter
            (fun jobs ->
              let r =
                Core.Experiments.run_sweep ~jobs ~seed:1 ~budget:(budget ())
                  ~scopes ()
              in
              cells := List.length r.Core.Experiments.cells;
              (match !reference with
              | None -> reference := Some (Core.Experiments.render_sweep r)
              | Some ref_render ->
                  if Core.Experiments.render_sweep r <> ref_render then
                    failwith "E15: sweep verdicts differ across job counts");
              let acc = List.assoc jobs walls in
              acc := r.Core.Experiments.sweep_wall :: !acc)
            job_counts
        done;
        let medians = List.map (fun j -> (j, median !(List.assoc j walls))) job_counts in
        List.iter
          (fun (j, w) ->
            Format.printf "  %s --jobs %d: wall %.2fs (median of %d)@." tag j w
              repeats)
          medians;
        (tag, !cells, repeats, medians))
      measured_scopes
  in
  let _, _, _, primary = List.hd scope_rows in
  let m1 = List.assoc 1 primary and m4 = List.assoc 4 primary in
  (* the two job counts run the identical code path once the pool caps
     workers at the core count, so the comparison is noise-bounded: a
     2% + 20ms tolerance keeps the gate honest without flaking *)
  let jobs4_not_slower = m4 <= (m1 *. 1.02) +. 0.02 in
  let smoke_ok = m4 <= (m1 *. 1.2) +. 0.05 in
  Format.printf "  jobs-4/jobs-1 wall ratio: %.3f (not slower: %b)@."
    (m4 /. Float.max m1 1e-9) jobs4_not_slower;
  (* group-commit journal overhead at --jobs 2, one fsync per batch *)
  let flush_every = 8 in
  let tag, scope, _ = List.hd measured_scopes in
  let scopes = [ (tag, scope) ] in
  let journal = Filename.temp_file "bench_e15" ".wal" in
  let wp, wj =
    Fun.protect
      ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
      (fun () ->
        let wps = ref [] and wjs = ref [] in
        for _ = 1 to 3 do
          let plain =
            Core.Experiments.run_sweep ~jobs:2 ~seed:1 ~budget:(budget ())
              ~scopes ()
          in
          (try Sys.remove journal with Sys_error _ -> ());
          let journaled =
            Core.Experiments.run_sweep ~jobs:2 ~seed:1 ~budget:(budget ())
              ~scopes ~journal ~journal_flush_every:flush_every ()
          in
          if
            Core.Experiments.render_sweep plain
            <> Core.Experiments.render_sweep journaled
          then failwith "E15: group-commit journaling changed the verdicts";
          wps := plain.Core.Experiments.sweep_wall :: !wps;
          wjs := journaled.Core.Experiments.sweep_wall :: !wjs
        done;
        (median !wps, median !wjs))
  in
  let overhead_pct = 100.0 *. (wj -. wp) /. Float.max wp 1e-9 in
  let overhead_ok = overhead_pct <= 10.0 in
  Format.printf
    "  journal (group commit, flush_every=%d, --jobs 2): plain %.2fs, \
     journaled %.2fs (overhead %+.1f%%)@."
    flush_every wp wj overhead_pct;
  (* the shared translation's certified path, on a throwaway certified
     session: the DRUP certificate must cover the assumed
     (selector-fixed) problem and pass the checker *)
  let shared = Core.Mca_model.build_shared Core.Mca_model.Efficient scope_2p2v in
  let cert =
    Core.Mca_model.check_consensus_incremental_certified
      (Core.Mca_model.incremental_session ~certify:true shared)
      Core.Mca_model.honest_submodular
  in
  let drup_ok =
    match (cert.Relalg.Translate.outcome, cert.Relalg.Translate.certification)
    with
    | Alloylite.Compile.Unsat, Some r -> r.Sat.Proof.kind = `Refutation
    | _ -> false
  in
  if not drup_ok then failwith "E15: shared-translation DRUP check failed";
  Format.printf "  shared translation certified (DRUP, assumed selectors): true@.";
  let oc = open_out "BENCH_E15.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E15-scaling-sweep\",\n";
  p "  \"cores\": %d,\n" cores;
  p "  \"mode\": \"%s\",\n"
    (if scaling_smoke then "smoke" else if fast_mode then "fast" else "full");
  p "  \"scopes\": [\n";
  List.iteri
    (fun i (tag, cells, repeats, medians) ->
      p "    {\"scope\": \"%s\", \"cells\": %d, \"repeats\": %d, \
         \"wall_seconds_median\": {%s}}%s\n"
        (json_escape tag) cells repeats
        (String.concat ", "
           (List.map
              (fun (j, w) -> Printf.sprintf "\"jobs_%d\": %.3f" j w)
              medians))
        (if i = List.length scope_rows - 1 then "" else ","))
    scope_rows;
  p "  ],\n";
  p "  \"jobs4_over_jobs1_ratio\": %.3f,\n" (m4 /. Float.max m1 1e-9);
  p "  \"jobs4_not_slower_than_jobs1\": %b,\n" jobs4_not_slower;
  p "  \"journal\": {\"jobs\": 2, \"flush_every\": %d, \"plain_s\": %.3f, \
     \"journaled_s\": %.3f, \"overhead_pct\": %.2f},\n"
    flush_every wp wj overhead_pct;
  p "  \"journal_overhead_le_10pct\": %b,\n" overhead_ok;
  p "  \"verdicts_identical_across_jobs\": true,\n";
  p "  \"shared_translation_drup_certified\": %b\n" drup_ok;
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E15.json@.";
  smoke_ok && overhead_ok

(* ------------------------------------------------------------------ *)
(* E17: the incremental matrix — one warm session solving all six
   policy cells of the shared translation, against six independent
   solves of the same translation, each on a throwaway session (a cold
   solver opened for one cell and dropped). The warm session amortizes
   watch-list construction, variable activities and learnt clauses
   across cells, so the whole matrix should come in under the
   independent cost (the CI smoke gate asks for <= 0.9x). Alongside
   the wall clocks: per-cell verdict identity every round, the session
   solver's lifetime counters, and the certified 3p2v differential pin
   — the warm certified session must agree with a throwaway certified
   session on every cell and carry a checked DRUP/model certificate,
   without ever asserting selector units as clauses into the warm
   solver. *)

let run_incremental_matrix () =
  section "E17 - Incremental matrix (warm session vs independent solves)";
  let scope_2p2v =
    { Core.Mca_model.small_scope with Core.Mca_model.states = 4;
      Core.Mca_model.values = 5 }
  in
  let scope_3p2v =
    { Core.Mca_model.pnodes = 3; vnodes = 2; states = 3; values = 4;
      bitwidth = 4 }
  in
  let budget () = Netsim.Budget.create ~wall_s:600.0 () in
  let policies = Core.Mca_model.paper_policies in
  let tag_of = function
    | Relalg.Translate.Decided Relalg.Translate.Unsat -> "holds"
    | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> "violated"
    | Relalg.Translate.Unknown r -> "unknown:" ^ r
  in
  let repeats = 5 in
  let shared =
    Core.Mca_model.build_shared Core.Mca_model.Efficient scope_2p2v
  in
  let independent_pass () =
    List.map
      (fun (name, p) ->
        ( name,
          tag_of
            (Core.Mca_model.check_consensus_incremental ~budget:(budget ())
               (Core.Mca_model.incremental_session shared)
               p) ))
      policies
  in
  let incremental_pass () =
    let session = Core.Mca_model.incremental_session shared in
    let verdicts =
      List.map
        (fun (name, p) ->
          ( name,
            tag_of
              (Core.Mca_model.check_consensus_incremental ~budget:(budget ())
                 session p) ))
        policies
    in
    (verdicts, Core.Mca_model.session_solver_stats session)
  in
  (* warm-up: page in both code paths before anything is timed *)
  ignore (independent_pass ());
  ignore (incremental_pass ());
  let indep_walls = ref [] and incr_walls = ref [] in
  let stats = ref None in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    let vi = independent_pass () in
    let t1 = Unix.gettimeofday () in
    let vw, st = incremental_pass () in
    let t2 = Unix.gettimeofday () in
    if vi <> vw then
      failwith "E17: incremental verdicts differ from independent solves";
    stats := st;
    indep_walls := (t1 -. t0) :: !indep_walls;
    incr_walls := (t2 -. t1) :: !incr_walls
  done;
  let wi = median !indep_walls and ww = median !incr_walls in
  let ratio = ww /. Float.max wi 1e-9 in
  let ratio_ok = ratio <= 0.9 in
  Format.printf
    "  2p2v/4st matrix (%d cells): independent %.3fs, incremental %.3fs \
     (ratio %.3f, median of %d)@."
    (List.length policies) wi ww ratio repeats;
  (match !stats with
  | Some st ->
      Format.printf
        "  session counters: %d conflicts, %d propagations, %d learnt \
         literals across the matrix@."
        st.Sat.Solver.conflicts st.Sat.Solver.propagations
        st.Sat.Solver.learnt_literals
  | None -> ());
  (* certified 3p2v pin: warm certified verdicts = cold certified
     verdicts, each carrying a checked certificate of the right kind *)
  let shared_3p2v =
    Core.Mca_model.build_shared Core.Mca_model.Efficient scope_3p2v
  in
  let certified_session =
    Core.Mca_model.incremental_session ~certify:true shared_3p2v
  in
  let cert_ok =
    List.for_all
      (fun (_, p) ->
        let warm =
          Core.Mca_model.check_consensus_incremental_certified
            certified_session p
        in
        let fresh =
          Core.Mca_model.check_consensus_incremental_certified
            (Core.Mca_model.incremental_session ~certify:true shared_3p2v)
            p
        in
        let verdict_agrees =
          match
            (warm.Relalg.Translate.outcome, fresh.Relalg.Translate.outcome)
          with
          | Relalg.Translate.Unsat, Relalg.Translate.Unsat -> true
          | Relalg.Translate.Sat _, Relalg.Translate.Sat _ -> true
          | _ -> false
        in
        let certificate_checks =
          match
            (warm.Relalg.Translate.outcome, warm.Relalg.Translate.certification)
          with
          | Relalg.Translate.Unsat, Some r -> r.Sat.Proof.kind = `Refutation
          | Relalg.Translate.Sat _, Some r -> r.Sat.Proof.kind = `Model
          | _, None -> false
        in
        verdict_agrees && certificate_checks)
      policies
  in
  if not cert_ok then
    failwith "E17: certified 3p2v pin failed (verdict or certificate)";
  Format.printf
    "  3p2v certified pin: warm session = cold certified on all %d cells@."
    (List.length policies);
  let oc = open_out "BENCH_E17.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E17-incremental-matrix\",\n";
  p "  \"mode\": \"%s\",\n"
    (if incremental_smoke then "smoke"
     else if fast_mode then "fast"
     else "full");
  p "  \"scope\": \"2p2v/4st\",\n";
  p "  \"cells\": %d,\n" (List.length policies);
  p "  \"repeats\": %d,\n" repeats;
  p "  \"independent_s\": %.4f,\n" wi;
  p "  \"incremental_s\": %.4f,\n" ww;
  p "  \"incremental_over_independent_ratio\": %.4f,\n" ratio;
  p "  \"ratio_le_0_9\": %b,\n" ratio_ok;
  (match !stats with
  | Some st ->
      p
        "  \"session_stats\": {\"conflicts\": %d, \"propagations\": %d, \
         \"decisions\": %d, \"restarts\": %d, \"learnt_literals\": %d, \
         \"clauses_added\": %d},\n"
        st.Sat.Solver.conflicts st.Sat.Solver.propagations
        st.Sat.Solver.decisions st.Sat.Solver.restarts
        st.Sat.Solver.learnt_literals st.Sat.Solver.clauses_added
  | None -> p "  \"session_stats\": null,\n");
  p "  \"verdicts_identical_to_independent\": true,\n";
  p "  \"certified_3p2v_pin\": %b\n" cert_ok;
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E17.json@.";
  ratio_ok && cert_ok

(* ------------------------------------------------------------------ *)
(* E14: the overload-safe service — throughput and shed rate vs offered
   load at a fixed worker count. The daemon runs in-process on a Unix
   socket; each offered-load point floods it with distinct cells (fresh
   seeds, so the journal cache never short-circuits the work) and
   tallies how admission control split the load into verdicts and
   explicit SHED replies. The invariant benchmarked alongside the
   numbers: every request is answered — none dropped, none hung. *)

let run_overload_service () =
  section "E14 - Overload service (throughput / shed rate vs offered load)";
  let jobs = 2 and queue_cap = 4 in
  let sock = Filename.temp_file "mca_bench" ".sock" in
  let cfg =
    {
      (Service.Server.default_config (Service.Server.Unix_path sock)) with
      Service.Server.jobs;
      queue_cap;
      default_deadline = 0.5;
      max_deadline = 1.0;
      seed = 1;
    }
  in
  let t = Service.Server.start cfg in
  let addr = Service.Server.Unix_path sock in
  let total = if fast_mode then 12 else 24 in
  let loads = if fast_mode then [ 1; 8 ] else [ 1; 4; 16 ] in
  Format.printf "  jobs=%d queue_cap=%d deadline=%.1fs, %d requests per point@."
    jobs queue_cap cfg.Service.Server.default_deadline total;
  Format.printf "  %-12s %10s %12s %10s %10s@." "concurrency" "wall(s)"
    "verdicts/s" "shed_rate" "undecided";
  let points =
    List.map
      (fun concurrency ->
        let reqs =
          (* fresh seeds per point and per request: every admitted
             request is real verification work, never a cache hit *)
          Array.init total (fun i ->
              Service.Wire.request ~states:3 ~seed:((concurrency * 1000) + i)
                ~deadline_s:0.5
                (if i mod 2 = 0 then "submod" else "nonsubmod"))
        in
        let t0 = Unix.gettimeofday () in
        let r = Service.Client.flood ~concurrency ~total addr reqs in
        let wall = Unix.gettimeofday () -. t0 in
        if r.Service.Client.sent <> total then
          failwith "E14: a flooded request went unanswered";
        if r.Service.Client.flood_errors > 0 then
          failwith "E14: the service answered a flood with errors";
        let throughput = float_of_int r.Service.Client.verdicts /. wall in
        let shed_rate =
          float_of_int r.Service.Client.flood_shed /. float_of_int total
        in
        Format.printf "  %-12d %10.2f %12.2f %10.2f %10d@." concurrency wall
          throughput shed_rate r.Service.Client.undecided;
        (concurrency, wall, throughput, shed_rate, r))
      loads
  in
  Service.Server.stop t;
  Service.Server.join t;
  (try Sys.remove sock with Sys_error _ -> ());
  let oc = open_out "BENCH_E14.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E14-overload-service\",\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"queue_cap\": %d,\n" queue_cap;
  p "  \"requests_per_point\": %d,\n" total;
  p "  \"deadline_s\": %.2f,\n" cfg.Service.Server.default_deadline;
  p "  \"points\": [\n";
  List.iteri
    (fun i (concurrency, wall, throughput, shed_rate, r) ->
      p
        "    {\"concurrency\": %d, \"wall_seconds\": %.3f, \
         \"verdicts_per_second\": %.3f, \"shed_rate\": %.3f, \
         \"verdicts\": %d, \"shed\": %d, \"undecided\": %d}%s\n"
        concurrency wall throughput shed_rate r.Service.Client.verdicts
        r.Service.Client.flood_shed r.Service.Client.undecided
        (if i = List.length points - 1 then "" else ","))
    points;
  p "  ],\n";
  p "  \"all_requests_answered\": true\n";
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E14.json@."

(* ------------------------------------------------------------------ *)
(* E16: the sharded verification cluster — sweep throughput vs fleet
   size with the coordinator running 8 dispatch domains against
   workers capped at one solver domain and a two-deep queue each (an
   8x-overloaded fleet, so shed escalation and failover routing are
   exercised, not idled past), plus the robustness point: one of three
   workers aborted mid-sweep must cost zero lost or changed verdicts. *)

let run_cluster_sweep () =
  section "E16 - Sharded cluster (throughput vs fleet size, kill-a-worker)";
  let states = if cluster_smoke || fast_mode then 3 else 4 in
  let tag = Printf.sprintf "2p2v/%dst" states in
  let scope =
    { Core.Mca_model.pnodes = 2; vnodes = 2; states; values = 6; bitwidth = 4 }
  in
  let scopes = [ (tag, scope) ] in
  let dispatchers = 8 in
  let worker_jobs = 1 and worker_cap = 2 in
  let start_worker () =
    let sock = Filename.temp_file "mca_clbench" ".sock" in
    let t =
      Service.Server.start
        {
          (Service.Server.default_config (Service.Server.Unix_path sock)) with
          Service.Server.jobs = worker_jobs;
          queue_cap = worker_cap;
        }
    in
    (Service.Server.Unix_path sock, t, sock)
  in
  let stop_worker (_, t, sock) =
    Service.Server.stop t;
    Service.Server.join t;
    try Sys.remove sock with Sys_error _ -> ()
  in
  let reference =
    Core.Experiments.render_sweep
      (Core.Experiments.run_sweep ~jobs:2 ~seed:1 ~scopes ())
  in
  let mk_cfg workers =
    {
      (Service.Cluster.default_config workers) with
      Service.Cluster.dispatchers;
      (* an 8x-overloaded fleet sheds for a long time relative to the
         backoff band: give each cell enough attempts to outlast a
         full queue drain instead of quarantining it as UNKNOWN *)
      max_attempts = 200;
      backoff = Netsim.Backoff.make ~base_s:0.02 ~cap_s:0.5 ();
      heartbeat_s = 0.1;
      steal_after_s = 5.0;
      (* cells at this scope decide in well under a second: a tight
         socket timeout keeps a dispatcher blocked on an aborted
         worker's half-open connection from stalling the final join *)
      deadline_s = 10.0;
      timeout_s = 12.0;
    }
  in
  Format.printf
    "  scope %s, %d dispatchers vs jobs=%d cap=%d workers (8x overload)@." tag
    dispatchers worker_jobs worker_cap;
  let sweep_cells = ref 0 in
  let points =
    List.map
      (fun n ->
        let fleet = List.init n (fun _ -> start_worker ()) in
        let workers = List.map (fun (a, _, _) -> a) fleet in
        let t0 = Unix.gettimeofday () in
        let r = Service.Cluster.run_sweep ~scopes (mk_cfg workers) in
        let wall = Unix.gettimeofday () -. t0 in
        List.iter stop_worker fleet;
        if Core.Experiments.render_sweep r.Service.Cluster.sweep <> reference
        then failwith "E16: cluster verdicts differ from the reference sweep";
        let cells = List.length r.Service.Cluster.sweep.Core.Experiments.cells in
        sweep_cells := cells;
        let throughput = float_of_int cells /. wall in
        let shed = List.assoc "shed_retries" r.Service.Cluster.cluster_stats in
        Format.printf
          "  %d worker(s): wall %.2fs, %.2f verdicts/s, shed_retries=%d@." n
          wall throughput shed;
        (n, wall, throughput, shed))
      [ 1; 2; 3 ]
  in
  (* kill-a-worker: abort one of three workers once the sweep is in
     flight; every verdict must still land, byte-identical *)
  let fleet = List.init 3 (fun _ -> start_worker ()) in
  let workers = List.map (fun (a, _, _) -> a) fleet in
  let _, victim, _ = List.nth fleet 1 in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Service.Server.stop ~abort:true victim)
  in
  let t0 = Unix.gettimeofday () in
  let r = Service.Cluster.run_sweep ~scopes (mk_cfg workers) in
  let kill_wall = Unix.gettimeofday () -. t0 in
  Domain.join killer;
  List.iter stop_worker fleet;
  let kill_identical =
    Core.Experiments.render_sweep r.Service.Cluster.sweep = reference
  in
  let stat k = List.assoc k r.Service.Cluster.cluster_stats in
  Format.printf
    "  killed-worker run: wall %.2fs, identical=%b, failovers=%d \
     relocated=%d recertified=%d@."
    kill_wall kill_identical (stat "failovers") (stat "relocated")
    (stat "recertified");
  let oc = open_out "BENCH_E16.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E16-sharded-cluster\",\n";
  p "  \"mode\": \"%s\",\n"
    (if cluster_smoke then "smoke" else if fast_mode then "fast" else "full");
  p "  \"scope\": \"%s\",\n" (json_escape tag);
  p "  \"cells\": %d,\n" !sweep_cells;
  p "  \"dispatchers\": %d,\n" dispatchers;
  p "  \"worker_jobs\": %d,\n" worker_jobs;
  p "  \"worker_queue_cap\": %d,\n" worker_cap;
  p "  \"points\": [\n";
  List.iteri
    (fun i (n, wall, throughput, shed) ->
      p
        "    {\"workers\": %d, \"wall_seconds\": %.3f, \
         \"verdicts_per_second\": %.3f, \"shed_retries\": %d}%s\n"
        n wall throughput shed
        (if i = List.length points - 1 then "" else ","))
    points;
  p "  ],\n";
  p
    "  \"killed_worker\": {\"workers\": 3, \"wall_seconds\": %.3f, \
     \"failovers\": %d, \"relocated\": %d, \"recertified\": %d, \
     \"verdicts_identical\": %b},\n"
    kill_wall (stat "failovers") (stat "relocated") (stat "recertified")
    kill_identical;
  p "  \"verdicts_identical\": %b\n" kill_identical;
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E16.json@.";
  kill_identical

(* ------------------------------------------------------------------ *)
(* E19: the replicated coordinator. Two numbers worth pinning: what the
   always-on replication stream costs a healthy sweep (a publisher
   serving the journal plus a standby tailing every group commit must
   stay within the same 10% budget the journal itself is held to), and
   how long a takeover takes as a function of the lease — with the
   takeover sweep, resumed at a fenced epoch from the replica journal,
   still byte-identical to the reference grid. *)

let run_failover_bench () =
  section "E19 - Replicated coordinator (replication overhead, takeover vs lease)";
  let states = if failover_smoke || fast_mode then 3 else 4 in
  let tag = Printf.sprintf "2p2v/%dst" states in
  let scope =
    { Core.Mca_model.pnodes = 2; vnodes = 2; states; values = 6; bitwidth = 4 }
  in
  let scopes = [ (tag, scope) ] in
  let start_worker () =
    let sock = Filename.temp_file "mca_fobench" ".sock" in
    let t =
      Service.Server.start
        {
          (Service.Server.default_config (Service.Server.Unix_path sock)) with
          Service.Server.jobs = 1;
        }
    in
    (Service.Server.Unix_path sock, t, sock)
  in
  let stop_worker (_, t, sock) =
    Service.Server.stop t;
    Service.Server.join t;
    try Sys.remove sock with Sys_error _ -> ()
  in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  let reference =
    Core.Experiments.render_sweep
      (Core.Experiments.run_sweep ~jobs:2 ~seed:1 ~scopes ())
  in
  let mk_cfg ?journal ?repl ?(epoch = 0) ?(throttle = 0.0) workers =
    {
      (Service.Cluster.default_config workers) with
      Service.Cluster.dispatchers = 4;
      max_attempts = 200;
      backoff = Netsim.Backoff.make ~base_s:0.02 ~cap_s:0.5 ();
      heartbeat_s = 0.1;
      deadline_s = 10.0;
      timeout_s = 12.0;
      cl_journal = journal;
      repl_listen =
        (match repl with
        | None -> None
        | Some p -> Some (Service.Server.Unix_path p));
      epoch;
      cl_throttle_s = throttle;
    }
  in
  (* -- replication overhead: plain journaled sweep vs the same sweep
     with the publisher on and a live standby tailing it, interleaved
     repeats, medians.  The replica must come out a verbatim prefix of
     the primary journal (the drain races the publisher shutdown for
     the final batch, so prefix — not equality — is the invariant). *)
  let repeats = if failover_smoke || fast_mode then 3 else 4 in
  (* every timed run gets a fresh fleet so both configurations pay the
     same cold solves: against warm worker caches the sweep collapses
     to ~50ms of wire traffic and a 10% gate would measure jitter, not
     the replication stream *)
  let plain_walls = ref [] and repl_walls = ref [] in
  let prefix_ok = ref true in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  for _ = 1 to repeats do
    let fleet = List.init 3 (fun _ -> start_worker ()) in
    let workers = List.map (fun (a, _, _) -> a) fleet in
    let j = Filename.temp_file "mca_fobench" ".journal" in
    let t0 = Unix.gettimeofday () in
    let r = Service.Cluster.run_sweep ~scopes (mk_cfg ~journal:j workers) in
    plain_walls := (Unix.gettimeofday () -. t0) :: !plain_walls;
    if Core.Experiments.render_sweep r.Service.Cluster.sweep <> reference then
      failwith "E19: plain journaled sweep diverged from the reference";
    List.iter stop_worker fleet;
    rm j;
    let fleet = List.init 3 (fun _ -> start_worker ()) in
    let workers = List.map (fun (a, _, _) -> a) fleet in
    let j = Filename.temp_file "mca_fobench" ".journal" in
    let replica = Filename.temp_file "mca_fobench" ".replica" in
    let repl_sock = Filename.temp_file "mca_fobench" ".sock" in
    let drained = Atomic.make false in
    let sb_cfg =
      {
        (Service.Cluster.default_standby
           ~source:(Service.Server.Unix_path repl_sock)
           (mk_cfg ~journal:replica workers))
        with
        Service.Cluster.sb_poll_s = 0.01;
        sb_lease_s = 3600.0;
        sb_down_after = max_int;
      }
    in
    let standby =
      Domain.spawn (fun () ->
          Service.Cluster.run_standby
            ~stop:(fun () -> Atomic.get drained)
            ~scopes sb_cfg)
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Service.Cluster.run_sweep ~scopes
        (mk_cfg ~journal:j ~repl:repl_sock ~epoch:1 workers)
    in
    repl_walls := (Unix.gettimeofday () -. t0) :: !repl_walls;
    Atomic.set drained true;
    (match Domain.join standby with
    | Service.Cluster.Standby_drained _ -> ()
    | Service.Cluster.Took_over _ ->
        failwith "E19: the tailing standby took over a healthy sweep");
    if Core.Experiments.render_sweep r.Service.Cluster.sweep <> reference then
      failwith "E19: replicated sweep diverged from the reference";
    let primary = (Parallel.Journal.recover j).Parallel.Journal.entries in
    let replica_entries =
      (Parallel.Journal.recover replica).Parallel.Journal.entries
    in
    if not (is_prefix replica_entries primary) then prefix_ok := false;
    List.iter stop_worker fleet;
    List.iter rm [ j; replica; repl_sock ]
  done;
  let plain_med = median !plain_walls and repl_med = median !repl_walls in
  let ratio = repl_med /. plain_med in
  let overhead_ok = ratio <= 1.10 in
  Format.printf
    "  replication overhead: plain %.2fs vs replicated %.2fs (%.2fx, \
     replica prefix ok=%b)@."
    plain_med repl_med ratio !prefix_ok;
  (* -- takeover latency vs lease: a throttled primary is stopped once
     the standby has replicated two records; the standby must detect
     the silence (down_after consecutive failed pulls AND a lapsed
     lease), fence the fleet at epoch 2 and finish to the same grid. *)
  let leases =
    if failover_smoke || fast_mode then [ 0.2; 0.5 ] else [ 0.2; 0.5; 1.0 ]
  in
  let takeover_points =
    List.map
      (fun lease ->
        let fleet = List.init 3 (fun _ -> start_worker ()) in
        let workers = List.map (fun (a, _, _) -> a) fleet in
        let j = Filename.temp_file "mca_fobench" ".journal" in
        let replica = Filename.temp_file "mca_fobench" ".replica" in
        let repl_sock = Filename.temp_file "mca_fobench" ".sock" in
        let dead = Atomic.make false in
        let primary =
          Domain.spawn (fun () ->
              Service.Cluster.run_sweep
                ~stop:(fun () -> Atomic.get dead)
                ~scopes
                (mk_cfg ~journal:j ~repl:repl_sock ~epoch:1 ~throttle:0.1
                   workers))
        in
        (* only start the standby's lease clock once the publisher is
           reachable, as mca_cluster --standby operators are told to *)
        let rec wait_up deadline =
          match
            Service.Repl.pull (Service.Server.Unix_path repl_sock) ~from:0
          with
          | Ok _ -> ()
          | Error _ ->
              if Unix.gettimeofday () > deadline then
                failwith "E19: replication publisher never came up"
              else begin
                Unix.sleepf 0.02;
                wait_up deadline
              end
        in
        wait_up (Unix.gettimeofday () +. 30.0);
        let sb_cfg =
          {
            (Service.Cluster.default_standby
               ~source:(Service.Server.Unix_path repl_sock)
               (mk_cfg ~journal:replica ~epoch:1 workers))
            with
            Service.Cluster.sb_poll_s = 0.02;
            sb_lease_s = lease;
            sb_down_after = 2;
          }
        in
        let outcome =
          Service.Cluster.run_standby ~scopes
            ~on_replicated:(fun n -> if n >= 2 then Atomic.set dead true)
            sb_cfg
        in
        ignore (Domain.join primary : Service.Cluster.report);
        List.iter stop_worker fleet;
        match outcome with
        | Service.Cluster.Standby_drained _ ->
            failwith "E19: standby drained instead of taking over"
        | Service.Cluster.Took_over
            { takeover_epoch; replicated; takeover_latency_s; report } ->
            let identical =
              Core.Experiments.render_sweep report.Service.Cluster.sweep
              = reference
            in
            Format.printf
              "  lease %.1fs: takeover at epoch %d after %d records, \
               latency %.3fs, identical=%b@."
              lease takeover_epoch replicated takeover_latency_s identical;
            List.iter rm [ j; replica; repl_sock ];
            (lease, takeover_latency_s, replicated, identical))
      leases
  in
  let all_identical =
    List.for_all (fun (_, _, _, ok) -> ok) takeover_points
  in
  let oc = open_out "BENCH_E19.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E19-replicated-coordinator\",\n";
  p "  \"mode\": \"%s\",\n"
    (if failover_smoke then "smoke" else if fast_mode then "fast" else "full");
  p "  \"scope\": \"%s\",\n" (json_escape tag);
  p
    "  \"replication_overhead\": {\"plain_wall_median_s\": %.3f, \
     \"replicated_wall_median_s\": %.3f, \"ratio\": %.3f, \
     \"replica_prefix_ok\": %b, \"within_10_percent\": %b},\n"
    plain_med repl_med ratio !prefix_ok overhead_ok;
  p "  \"takeover\": [\n";
  List.iteri
    (fun i (lease, latency, replicated, identical) ->
      p
        "    {\"lease_s\": %.2f, \"takeover_latency_s\": %.3f, \
         \"replicated_records\": %d, \"verdicts_identical\": %b}%s\n"
        lease latency replicated identical
        (if i = List.length takeover_points - 1 then "" else ","))
    takeover_points;
  p "  ],\n";
  p "  \"verdicts_identical\": %b\n" all_identical;
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E19.json@.";
  overhead_ok && !prefix_ok && all_identical

(* ------------------------------------------------------------------ *)
(* E18: the multi-tenant submit verb. Three costs worth pinning: a cold
   spec (parse + elaborate + translate + solve), a cache hit on the same
   digest, and a quota refusal (which must be answered from the header
   alone, before any spec work). The smoke gate also runs the hostile
   mutating flood and requires every reply to be structured. *)

let spec_fixture =
  "sig vnode {}\n\
   sig pnode { pid: one Int, initBids: set vnode }\n\
   fact uniqueIDs { all disj p, q: pnode | p.pid != q.pid }\n\
   assert uniqueID { all disj p, q: pnode | p.pid != q.pid }\n\
   check uniqueID for 3 but 4 Int\n\
   run {} for 2 but 4 Int\n"

let run_spec_service () =
  section "E18 - Spec submission service (cold / cached / refused)";
  let sock = Filename.temp_file "mca_bench_spec" ".sock" in
  Sys.remove sock;
  let cfg =
    {
      (Service.Server.default_config (Service.Server.Unix_path sock)) with
      Service.Server.jobs = 2;
      queue_cap = 8;
      default_deadline = 10.0;
      (* tight named-tenant quota so the refusal path is exercised;
         the timing runs below submit anonymously, which bypasses it *)
      quota_rate = 0.01;
      quota_burst = 2.0;
    }
  in
  let t = Service.Server.start cfg in
  let addr = Service.Server.Unix_path sock in
  Fun.protect ~finally:(fun () ->
      Service.Server.stop t;
      Service.Server.join t;
      try Sys.remove sock with Sys_error _ -> ())
  @@ fun () ->
  let submits = if spec_smoke || fast_mode then 5 else 12 in
  let time_submit ?tenant ?certify body =
    let t0 = Unix.gettimeofday () in
    let r = Service.Client.submit ?tenant ?certify addr body in
    let wall = Unix.gettimeofday () -. t0 in
    (r, wall)
  in
  (* cold: distinct digests via a trailing comment, so every submission
     is a real solve and never a cache hit *)
  let cold =
    List.init submits (fun i ->
        let body = Printf.sprintf "%s// cold %d\n" spec_fixture i in
        match time_submit body with
        | Ok (Service.Wire.Spec s), wall ->
            if s.Service.Wire.spec_cached then failwith "E18: cold run cached";
            if s.Service.Wire.spec_verdict <> Service.Wire.Spec_holds then
              failwith "E18: paper spec did not hold";
            wall
        | _ -> failwith "E18: cold submit failed")
  in
  (* cached: the same digest over and over; the first submission warms *)
  ignore (time_submit spec_fixture);
  let cached =
    List.init submits (fun _ ->
        match time_submit spec_fixture with
        | Ok (Service.Wire.Spec s), wall ->
            if not s.Service.Wire.spec_cached then
              failwith "E18: repeat submission missed the cache";
            wall
        | _ -> failwith "E18: cached submit failed")
  in
  (* certified: one cold certified solve, for the overhead column *)
  let certified_wall =
    match time_submit ~certify:true (spec_fixture ^ "// certified\n") with
    | Ok (Service.Wire.Spec s), wall ->
        if not s.Service.Wire.certified then
          failwith "E18: certification refused on the paper spec";
        wall
    | _ -> failwith "E18: certified submit failed"
  in
  (* refused: exhaust a named tenant's two-token bucket, then time the
     quota replies — answered from the header, no spec work *)
  ignore (time_submit ~tenant:"mallory" spec_fixture);
  ignore (time_submit ~tenant:"mallory" spec_fixture);
  let refused =
    List.init submits (fun _ ->
        match time_submit ~tenant:"mallory" spec_fixture with
        | Ok (Service.Wire.Quota _), wall -> wall
        | _ -> failwith "E18: exhausted tenant was not refused")
  in
  let m_cold = median cold
  and m_cached = median cached
  and m_refused = median refused in
  Format.printf "  %-22s %12s@." "path" "median(ms)";
  Format.printf "  %-22s %12.2f@." "cold solve" (m_cold *. 1e3);
  Format.printf "  %-22s %12.2f@." "cache hit" (m_cached *. 1e3);
  Format.printf "  %-22s %12.2f@." "certified cold" (certified_wall *. 1e3);
  Format.printf "  %-22s %12.2f@." "quota refusal" (m_refused *. 1e3);
  (* the hostile flood: mutated specs from two concurrent clients; the
     robustness contract is that transport failures stay at zero *)
  let flood_total = if spec_smoke || fast_mode then 60 else 200 in
  let fr =
    Service.Client.spec_flood ~concurrency:2 ~mutate_seed:18 ~total:flood_total
      addr spec_fixture
  in
  Format.printf "  hostile flood: %a@." Service.Client.pp_spec_flood fr;
  let flood_ok =
    fr.Service.Client.spec_sent = flood_total
    && fr.Service.Client.spec_transport = 0
  in
  let cache_ok = m_cached <= m_cold in
  let oc = open_out "BENCH_E18.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E18-spec-submission-service\",\n";
  p "  \"mode\": \"%s\",\n"
    (if spec_smoke then "smoke" else if fast_mode then "fast" else "full");
  p "  \"submits_per_path\": %d,\n" submits;
  p "  \"cold_median_ms\": %.3f,\n" (m_cold *. 1e3);
  p "  \"cached_median_ms\": %.3f,\n" (m_cached *. 1e3);
  p "  \"certified_cold_ms\": %.3f,\n" (certified_wall *. 1e3);
  p "  \"quota_refusal_median_ms\": %.3f,\n" (m_refused *. 1e3);
  p "  \"flood\": {\"total\": %d, \"verdicts\": %d, \"cached\": %d, \
     \"typed\": %d, \"quota\": %d, \"shed\": %d, \"transport\": %d},\n"
    flood_total fr.Service.Client.spec_verdicts fr.Service.Client.spec_hits
    fr.Service.Client.spec_typed fr.Service.Client.spec_quota
    fr.Service.Client.spec_shed fr.Service.Client.spec_transport;
  p "  \"cache_hit_cheaper\": %b,\n" cache_ok;
  p "  \"flood_all_structured\": %b\n" flood_ok;
  p "}\n";
  close_out oc;
  Format.printf "  wrote BENCH_E18.json@.";
  cache_ok && flood_ok

(* ------------------------------------------------------------------ *)
(* Part 2: certified verdicts — DRUP proof size and re-check cost      *)

let run_certification () =
  section "E9 - Certified verdicts (DRUP proof size, independent re-check)";
  Format.printf "  %-28s %-7s %10s %10s %9s %9s@." "instance" "verdict"
    "additions" "deletions" "check(s)" "solve(s)";
  let row name problem =
    let solver = Sat.Solver.of_problem ~proof:true problem in
    let t0 = Sys.time () in
    let result = Sat.Solver.solve ~certify:true solver in
    let total = Sys.time () -. t0 in
    let verdict =
      match result with Sat.Solver.Sat _ -> "SAT" | Sat.Solver.Unsat -> "UNSAT"
    in
    match Sat.Solver.last_certification solver with
    | Some r ->
        Format.printf "  %-28s %-7s %10d %10d %9.3f %9.3f@." name verdict
          r.Sat.Proof.additions r.Sat.Proof.deletions r.Sat.Proof.check_time
          (total -. r.Sat.Proof.check_time)
    | None -> Format.printf "  %-28s %-7s (no certificate)@." name verdict
  in
  row "pigeonhole-6-into-5" (Sat.Gen.pigeonhole 5);
  row "pigeonhole-7-into-6" (Sat.Gen.pigeonhole 6);
  row "php-sat-6-into-6" (Sat.Gen.php_sat 6);
  row "random3sat-100v-r4.2"
    (Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:100 ~num_clauses:420);
  if not fast_mode then begin
    (* the paper's check consensus at the headline 3p/2v scope, verdict
       re-validated by the independent proof checker *)
    let m =
      Core.Mca_model.build Core.Mca_model.Efficient
        Core.Mca_model.honest_submodular Core.Mca_model.paper_scope
    in
    let t0 = Sys.time () in
    let { Relalg.Translate.outcome; certification } =
      Core.Mca_model.check_consensus_certified m
    in
    let total = Sys.time () -. t0 in
    let verdict =
      match outcome with
      | Alloylite.Compile.Unsat -> "UNSAT"
      | Alloylite.Compile.Sat _ -> "SAT"
    in
    match certification with
    | Some r ->
        Format.printf "  %-28s %-7s %10d %10d %9.3f %9.3f@."
          "mca-consensus-3p2v" verdict r.Sat.Proof.additions
          r.Sat.Proof.deletions r.Sat.Proof.check_time
          (total -. r.Sat.Proof.check_time)
    | None ->
        Format.printf "  %-28s %-7s (constant-folded, no SAT call)@."
          "mca-consensus-3p2v" verdict
  end
  else
    Format.printf "  (certified MCA consensus check skipped in fast mode)@."

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel timing of the kernels                              *)

let bench_tests () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  ignore Instance.one;
  let sat_php =
    Test.make ~name:"e5/sat-cdcl-pigeonhole-7-into-6"
      (Staged.stage (fun () ->
           match Sat.Solver.solve_problem (Sat.Gen.pigeonhole 6) with
           | Sat.Solver.Unsat -> ()
           | Sat.Solver.Sat _ -> assert false))
  in
  let sat_random =
    Test.make ~name:"e5/sat-cdcl-random3sat-100v"
      (Staged.stage (fun () ->
           ignore
             (Sat.Solver.solve_problem
                (Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:100 ~num_clauses:420))))
  in
  let relalg_translate =
    let m =
      Core.Mca_model.build Core.Mca_model.Efficient
        Core.Mca_model.honest_submodular Core.Mca_model.small_scope
    in
    Test.make ~name:"e5/translate-efficient-2p2v"
      (Staged.stage (fun () -> ignore (Core.Mca_model.translation_stats m)))
  in
  let consensus_attack_sat =
    Test.make ~name:"e3/sat-check-attack-counterexample"
      (Staged.stage (fun () ->
           let p =
             { Core.Mca_model.honest_submodular with
               Core.Mca_model.rebid_attack = true }
           in
           let m =
             Core.Mca_model.build Core.Mca_model.Efficient p
               { Core.Mca_model.small_scope with Core.Mca_model.states = 4 }
           in
           match Core.Mca_model.check_consensus m with
           | Alloylite.Compile.Sat _ -> ()
           | Alloylite.Compile.Unsat -> assert false))
  in
  let explicit_checker =
    let cfg =
      Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
        ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |] |]
        ~policy:
          (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ())
    in
    Test.make ~name:"e3/explicit-checker-2x2"
      (Staged.stage (fun () -> ignore (Checker.Explore.run cfg)))
  in
  let protocol_sim =
    let rng = Netsim.Rng.create 4 in
    let graph = Netsim.Topology.erdos_renyi_connected rng 8 0.4 in
    let base_utilities =
      Array.init 8 (fun _ -> Array.init 4 (fun _ -> 1 + Netsim.Rng.int rng 30))
    in
    let cfg =
      Mca.Protocol.uniform_config ~graph ~num_items:4 ~base_utilities
        ~policy:
          (Mca.Policy.make ~utility:(Mca.Policy.Submodular 1) ~target_items:4 ())
    in
    Test.make ~name:"e6/protocol-sim-8agents-4items"
      (Staged.stage (fun () -> ignore (Mca.Protocol.run_sync cfg)))
  in
  let vnm_embed =
    let rng = Netsim.Rng.create 9 in
    let physical =
      Vnm.Vnet.random_physical rng ~nodes:6 ~edge_prob:0.5 ~max_cpu:20 ~max_bw:16
    in
    let virtual_net =
      Vnm.Vnet.random_virtual rng ~nodes:3 ~edge_prob:0.6 ~max_cpu:5 ~max_bw:4
    in
    Test.make ~name:"e7/vnm-mca-embed"
      (Staged.stage (fun () -> ignore (Vnm.Embed.mca ~physical ~virtual_net ())))
  in
  let listings =
    Test.make ~name:"e8/textual-frontend-check"
      (Staged.stage (fun () ->
           ignore
             (Alloylite.Elaborate.run_file
                "sig a { f: set a } assert refl { all x: a | x in x.*f } check refl for 3")))
  in
  [
    sat_php; sat_random; relalg_translate; consensus_attack_sat;
    explicit_checker; protocol_sim; vnm_embed; listings;
  ]

let run_benchmarks () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  section "Kernel timings (Bechamel, ns per run)";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Format.printf "  %-44s %14.0f@." name est
          | _ -> Format.printf "  %-44s (no estimate)@." name)
        results)
    (bench_tests ())

let () =
  if scaling_smoke then begin
    Format.printf "MCA verification library — scaling smoke (E15 only)@.";
    let ok = run_scaling_sweep () in
    if not ok then begin
      Format.eprintf
        "scaling smoke FAILED: --jobs 4 beyond 1.2x of --jobs 1, or journal \
         overhead above 10%%@.";
      exit 1
    end;
    Format.printf "@.scaling smoke passed.@."
  end
  else if cluster_smoke then begin
    Format.printf "MCA verification library — cluster smoke (E16 only)@.";
    let ok = run_cluster_sweep () in
    if not ok then begin
      Format.eprintf
        "cluster smoke FAILED: a killed worker lost or changed verdicts@.";
      exit 1
    end;
    Format.printf "@.cluster smoke passed.@."
  end
  else if incremental_smoke then begin
    Format.printf "MCA verification library — incremental smoke (E17 only)@.";
    let ok = run_incremental_matrix () in
    if not ok then begin
      Format.eprintf
        "incremental smoke FAILED: warm session above 0.9x of independent \
         solves, or certified 3p2v pin diverged@.";
      exit 1
    end;
    Format.printf "@.incremental smoke passed.@."
  end
  else if failover_smoke then begin
    Format.printf "MCA verification library — failover smoke (E19 only)@.";
    let ok = run_failover_bench () in
    if not ok then begin
      Format.eprintf
        "failover smoke FAILED: replication stream above 10%% overhead, the \
         replica diverged from the primary journal, or a takeover sweep \
         changed a verdict@.";
      exit 1
    end;
    Format.printf "@.failover smoke passed.@."
  end
  else if spec_smoke then begin
    Format.printf "MCA verification library — spec-service smoke (E18 only)@.";
    let ok = run_spec_service () in
    if not ok then begin
      Format.eprintf
        "spec smoke FAILED: cache hit dearer than a cold solve, or the \
         hostile flood broke the structured-reply contract@.";
      exit 1
    end;
    Format.printf "@.spec smoke passed.@."
  end
  else begin
    Format.printf "MCA verification library — benchmark & experiment harness@.";
    Format.printf "(%s mode)@." (if fast_mode then "fast" else "full");
    run_experiments ();
    ignore (run_scaling_sweep () : bool);
    ignore (run_incremental_matrix () : bool);
    run_overload_service ();
    ignore (run_spec_service () : bool);
    ignore (run_cluster_sweep () : bool);
    ignore (run_failover_bench () : bool);
    run_certification ();
    run_loss_sweep ();
    run_benchmarks ();
    Format.printf "@.done.@."
  end
