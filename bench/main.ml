(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (experiments E1-E10; see DESIGN.md for the index), the
   service and cluster benches E14-E19, and Bechamel timings of the
   computational kernels behind them.

   Run with: dune exec bench/main.exe -- [--suite ID] [--fast]
   Without --suite every suite runs, in the order of [suites] below,
   each in a child process of its own (the same executable with
   --suite ID); the run names the suites that failed and exits 1.
   --fast skips the slow SAT-model checks (the Result-1 UNSAT rows take
   tens of seconds each; the naive-encoding solve is reported as
   intractable by design, matching the paper's day-long naive run) and
   shrinks the E14-E19 scopes to the ones CI gates on.

   Every suite returns one [result] and writes it to BENCH_<ID>.json in
   the working directory. Its [gates] are the checks that decide the
   exit code: the suite exits 1, after it has written its file, if any
   gate failed. Invariants that must never break (identical verdicts,
   checked certificates) raise instead. *)

let fast_mode = ref false

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

type result = {
  scope : string;
  phases : (string * float list) list;  (** named timing samples, seconds *)
  counts : (string * float) list;  (** the numbers the suite computed *)
  gates : (string * bool) list;  (** the checks that decide the exit code *)
}

let sorted l = Array.of_list (List.sort compare l)

(* The one median of printouts, gates and files: the mean of the two
   middle samples when their number is even. *)
let median l =
  let a = sorted l and n = List.length l in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the maximum for fewer than 100 samples. *)
let p99 l =
  let a = sorted l and n = List.length l in
  if n = 0 then nan else a.(((99 * n) + 99) / 100 - 1)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Timing methodology of the A/B benches: one discarded warm-up round
   first (paging in the allocator and code paths used to make whichever
   configuration ran first look slower — the source of the old
   "journaled jobs=1 faster than plain" anomaly), then [repeats] rounds
   that run every configuration once each, so drift in the machine hits
   all of them alike; the gates compare medians. Each [run] returns the
   seconds it measured. *)
let interleaved ~repeats configs =
  List.iter (fun (_, run) -> ignore (run () : float)) configs;
  let samples = List.map (fun (name, _) -> (name, ref [])) configs in
  for _ = 1 to repeats do
    List.iter2 (fun (_, run) (_, acc) -> acc := run () :: !acc) configs samples
  done;
  List.map (fun (name, acc) -> (name, List.rev !acc)) samples

(* The pairs behind the two overhead gates (E15 journal <= 10%, E19
   replication <= 1.10x). On a 2-core VM one sweep's wall spreads by
   about +-15% around its median, and E19's cluster walls also cluster
   on a 50 ms grid (the coordinator's heartbeat domain sleeps in 50 ms
   steps before the sweep returns), so the median of a few pairs often
   lands a grid step away from the typical overhead. EXPERIMENTS E15
   and E19 have the failure counts behind this number. *)
let overhead_pairs = 81

let rm path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* BENCH_<ID>.json, one schema for every suite. *)

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

let json_string s = "\"" ^ json_escape s ^ "\""

let json_number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x || Float.abs x >= 1e5 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let json_object ~indent fields =
  let pad = String.make indent ' ' in
  if fields = [] then "{}"
  else
    "{\n"
    ^ String.concat ",\n"
        (List.map
           (fun (k, v) -> Printf.sprintf "%s  %s: %s" pad (json_string k) v)
           fields)
    ^ "\n" ^ pad ^ "}"

let git_rev () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, rev when rev <> "" -> rev
  | _ -> "unknown"

let write_result ~git_rev ~cores id r =
  let file = Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii id) in
  let phase samples =
    Printf.sprintf "{\"median_ms\": %s, \"p99_ms\": %s, \"n\": %d}"
      (json_number (1e3 *. median samples))
      (json_number (1e3 *. p99 samples))
      (List.length samples)
  in
  let oc = open_out file in
  output_string oc
    (json_object ~indent:0
       [
         ("suite", json_string id);
         ("git_rev", json_string git_rev);
         ("cores", string_of_int cores);
         ("mode", json_string (if !fast_mode then "fast" else "full"));
         ("scope", json_string r.scope);
         ( "phases",
           json_object ~indent:2
             (List.map (fun (k, s) -> (k, phase s)) r.phases) );
         ( "counts",
           json_object ~indent:2
             (List.map (fun (k, x) -> (k, json_number x)) r.counts) );
         ( "gates",
           json_object ~indent:2
             (List.map (fun (k, b) -> (k, string_of_bool b)) r.gates) );
       ]);
  output_string oc "\n";
  close_out oc;
  Format.printf "  wrote %s@." file

(* ------------------------------------------------------------------ *)
(* Fixtures shared by the suites. *)

let scope_2p2v =
  { Core.Mca_model.small_scope with Core.Mca_model.states = 4;
    Core.Mca_model.values = 5 }

let scope_3p2v =
  { Core.Mca_model.pnodes = 3; vnodes = 2; states = 3; values = 4;
    bitwidth = 4 }

let budget () = Netsim.Budget.create ~wall_s:600.0 ()

let reference_grid scopes =
  Core.Experiments.render_sweep
    (Core.Experiments.run_sweep ~jobs:2 ~seed:1 ~scopes ())

let expect_grid reference failure sweep =
  if Core.Experiments.render_sweep sweep <> reference then failwith failure

(* The scope of the in-process fleet benches E16 and E19. *)
let fleet_scopes () =
  let states = if !fast_mode then 3 else 4 in
  [ ( Printf.sprintf "2p2v/%dst" states,
      { Core.Mca_model.pnodes = 2; vnodes = 2; states; values = 6;
        bitwidth = 4 } ) ]

(* [n] in-process workers, each capped at one solver domain, on fresh
   Unix sockets; [f] gets their addresses and servers, and the fleet is
   stopped (which unlinks the sockets) when it returns. *)
let with_fleet ?queue_cap n f =
  let start () =
    let sock = Filename.temp_file "mca_fleet" ".sock" in
    let base = Service.Server.default_config (Service.Server.Unix_path sock) in
    let queue_cap =
      Option.value queue_cap ~default:base.Service.Server.queue_cap
    in
    ( sock,
      Service.Server.start { base with Service.Server.jobs = 1; queue_cap } )
  in
  let fleet = List.init n (fun _ -> start ()) in
  (* stop every worker before joining any: each notices within its own
     0.2 s select tick, so the ticks overlap instead of adding up *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, t) -> Service.Server.stop t) fleet;
      List.iter (fun (_, t) -> Service.Server.join t) fleet)
    (fun () ->
      f (List.map (fun (sock, t) -> (Service.Server.Unix_path sock, t)) fleet))

let cluster_cfg workers =
  {
    (Service.Cluster.default_config workers) with
    (* an overloaded fleet sheds for a long time relative to the
       backoff band: give each cell enough attempts to outlast a full
       queue drain instead of quarantining it as UNKNOWN *)
    Service.Cluster.max_attempts = 200;
    heartbeat_s = 0.1;
    (* cells at these scopes decide in well under a second: a tight
       socket timeout keeps a dispatcher blocked on an aborted worker's
       half-open connection from stalling the final join *)
    deadline_s = 10.0;
    timeout_s = 12.0;
  }

(* ------------------------------------------------------------------ *)
(* paper: the experiment tables E1-E10 (the paper's figures and results,
   plus the certified verdicts E9 and the loss sweep E10), each timed
   as one phase. *)

(* E9: DRUP proof size and re-check cost of certified verdicts. *)
let certification_table () =
  Format.printf "  %-28s %-7s %10s %10s %9s %9s@." "instance" "verdict"
    "additions" "deletions" "check(s)" "solve(s)";
  let print_row ~none name verdict total = function
    | Some r ->
        Format.printf "  %-28s %-7s %10d %10d %9.3f %9.3f@." name verdict
          r.Sat.Proof.additions r.Sat.Proof.deletions r.Sat.Proof.check_time
          (total -. r.Sat.Proof.check_time)
    | None -> Format.printf "  %-28s %-7s %s@." name verdict none
  in
  let row name problem =
    let solver = Sat.Solver.of_problem ~proof:true problem in
    let t0 = Sys.time () in
    let result = Sat.Solver.solve solver in
    let report = Sat.Solver.certify solver ~assumptions:[] result in
    let total = Sys.time () -. t0 in
    let verdict =
      match result with Sat.Solver.Sat _ -> "SAT" | Sat.Solver.Unsat -> "UNSAT"
    in
    print_row ~none:"(no certificate)" name verdict total (Some report)
  in
  row "pigeonhole-6-into-5" (Sat.Gen.pigeonhole 5);
  row "pigeonhole-7-into-6" (Sat.Gen.pigeonhole 6);
  row "php-sat-6-into-6" (Sat.Gen.php_sat 6);
  row "random3sat-100v-r4.2"
    (Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:100 ~num_clauses:420);
  if not !fast_mode then begin
    (* the paper's check consensus at the headline 3p/2v scope, verdict
       re-validated by the independent proof checker *)
    let m =
      Core.Mca_model.build Core.Mca_model.Efficient
        Core.Mca_model.honest_submodular Core.Mca_model.paper_scope
    in
    let t0 = Sys.time () in
    let session =
      Relalg.Translate.session ~certify:true (Core.Mca_model.translation m)
    in
    let outcome =
      Relalg.Translate.solve_cell ~budget:Netsim.Budget.unlimited session []
    in
    let certification = Relalg.Translate.certify session in
    let total = Sys.time () -. t0 in
    let verdict =
      match outcome with
      | Relalg.Translate.Decided Relalg.Translate.Unsat -> "UNSAT"
      | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> "SAT"
      | Relalg.Translate.Unknown _ -> assert false (* unlimited budget *)
    in
    print_row ~none:"(constant-folded, no SAT call)" "mca-consensus-3p2v"
      verdict total certification
  end
  else
    Format.printf "  (certified MCA consensus check skipped in fast mode)@."

(* E10: graceful degradation — convergence under message loss.
   Sweeps i.i.d. loss rates over the fixed topologies and scopes, runs
   the retransmitting protocol in the fault-injected scheduler, and
   reports rounds-to-quiescence against the reliable-network D*|J|
   bound. The bound does not hold under loss (each lost broadcast can
   cost a retransmission interval), so the interesting column is the
   inflation factor. *)
let loss_sweep () =
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
    !converged !total;
  [ ("e10_converged", float_of_int !converged);
    ("e10_runs", float_of_int !total) ]

let run_paper () =
  let ppf = Format.std_formatter in
  let tables =
    [
      ( "e1", "E1 - Figure 1 worked example",
        fun () -> ignore (Core.Experiments.figure1 ppf); [] );
      ( "e2_e3", "E2/E3 - Figure 2 and Result 1: policy matrix",
        fun () ->
          ignore
            (Core.Experiments.policy_matrix ~include_sat:(not !fast_mode) ppf);
          [] );
      ( "e4", "E4 - Result 2: rebidding attack",
        fun () -> ignore (Core.Experiments.rebidding_attack ppf); [] );
      ( "e5", "E5 - Abstraction efficiency (naive vs efficient encoding)",
        fun () ->
          ignore (Core.Experiments.encoding_comparison ~solve_naive:false ppf);
          Format.printf
            "  note: the naive-encoding check is not solved here — as in the paper,@.";
          Format.printf
            "  where the naive model ran ~a day vs <2h for the efficient one.@.";
          [] );
      ( "e6", "E6 - Convergence bound (rounds vs D*|J|)",
        fun () ->
          let rows = Core.Experiments.convergence_bound ppf in
          let within =
            List.filter
              (fun r ->
                r.Core.Experiments.rounds <= r.Core.Experiments.bound + 2)
              rows
          in
          Format.printf "  %d/%d runs within D*|J|+2 rounds@."
            (List.length within) (List.length rows);
          [ ("e6_within_bound", float_of_int (List.length within));
            ("e6_runs", float_of_int (List.length rows)) ] );
      ( "e7", "E7 - VN mapping case study",
        fun () ->
          ignore
            (Core.Experiments.vnm_comparison
               ~instances:(if !fast_mode then 10 else 30) ppf);
          [] );
      ( "e8", "E8 - Section III listings",
        fun () -> ignore (Core.Experiments.paper_listings ppf); [] );
      ( "e9", "E9 - Certified verdicts (DRUP proof size, independent re-check)",
        fun () -> certification_table (); [] );
      ( "e10", "E10 - Convergence under message loss (fault injection)",
        loss_sweep );
    ]
  in
  let runs =
    List.map
      (fun (name, title, table) ->
        section title;
        let counts, wall = timed table in
        ((name, [ wall ]), counts))
      tables
  in
  { scope = "E1-E10"; phases = List.map fst runs;
    counts = List.concat_map snd runs; gates = [] }

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
  let total = if !fast_mode then 12 else 24 in
  let loads = if !fast_mode then [ 1; 8 ] else [ 1; 4; 16 ] in
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
        let r, wall =
          timed (fun () -> Service.Client.flood ~concurrency ~total addr reqs)
        in
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
        let key s = Printf.sprintf "c%d_%s" concurrency s in
        ( (key "flood", [ wall ]),
          [ (key "verdicts_per_s", throughput); (key "shed_rate", shed_rate);
            (key "verdicts", float_of_int r.Service.Client.verdicts);
            (key "shed", float_of_int r.Service.Client.flood_shed);
            (key "undecided", float_of_int r.Service.Client.undecided) ] ))
      loads
  in
  Service.Server.stop t;
  Service.Server.join t;
  rm sock;
  { scope =
      Printf.sprintf "%d requests per point, jobs=%d queue_cap=%d" total jobs
        queue_cap;
    phases = List.map fst points; counts = List.concat_map snd points;
    gates = [] }

(* ------------------------------------------------------------------ *)
(* E15: the scaling sweep — what the shared translation and the
   group-commit journal bought. One translation per scope is built up
   front and every policy cell solves it under three selector
   assumptions (no per-cell build/translate), and the worker pool caps
   its domain count at the available cores; together these are the fix
   for the old regression where --jobs 4 ran at 0.47x the speed of
   --jobs 1. The journal is measured with group commit (one fsync per
   batch instead of per cell) against the plain run. *)

let run_scaling_sweep () =
  section "E15 - Scaling sweep (shared translation, group-commit journal)";
  let measured_scopes =
    ("2p2v/4st", scope_2p2v, 5)
    :: (if !fast_mode then [] else [ ("3p2v/3st", scope_3p2v, 3) ])
  in
  let job_counts = [ 1; 2; 4 ] in
  let sweep ?journal ?journal_flush_every ~jobs scopes =
    Core.Experiments.run_sweep ~jobs ~seed:1 ~budget:(budget ()) ~scopes
      ?journal ?journal_flush_every ()
  in
  let scope_phases =
    List.map
      (fun (tag, scope, repeats) ->
        let scopes = [ (tag, scope) ] in
        let reference = Core.Experiments.render_sweep (sweep ~jobs:1 scopes) in
        let samples =
          interleaved ~repeats
            (List.map
               (fun jobs ->
                 ( Printf.sprintf "%s.jobs_%d" tag jobs,
                   fun () ->
                     let r = sweep ~jobs scopes in
                     expect_grid reference
                       "E15: sweep verdicts differ across job counts" r;
                     r.Core.Experiments.sweep_wall ))
               job_counts)
        in
        List.iter2
          (fun jobs (_, s) ->
            Format.printf "  %s --jobs %d: wall %.2fs (median of %d)@." tag
              jobs (median s) repeats)
          job_counts samples;
        (reference, samples))
      measured_scopes
  in
  let reference, primary = List.hd scope_phases in
  let m1 = median (snd (List.nth primary 0))
  and m4 = median (snd (List.nth primary 2)) in
  let jobs_ratio = m4 /. Float.max m1 1e-9 in
  let jobs_ok = m4 <= (m1 *. 1.2) +. 0.05 in
  Format.printf "  jobs-4/jobs-1 wall ratio: %.3f (within 1.2x + 0.05s: %b)@."
    jobs_ratio jobs_ok;
  (* group-commit journal overhead at --jobs 2, one fsync per batch *)
  let flush_every = 8 in
  let tag, scope, _ = List.hd measured_scopes in
  let scopes = [ (tag, scope) ] in
  let journal = Filename.temp_file "bench_e15" ".wal" in
  let journal_samples =
    Fun.protect ~finally:(fun () -> rm journal) @@ fun () ->
    interleaved ~repeats:overhead_pairs
      [ ( "plain",
          fun () ->
            let r = sweep ~jobs:2 scopes in
            expect_grid reference
              "E15: group-commit journaling changed the verdicts" r;
            r.Core.Experiments.sweep_wall );
        ( "journaled",
          fun () ->
            rm journal;
            let r =
              sweep ~jobs:2 ~journal ~journal_flush_every:flush_every scopes
            in
            expect_grid reference
              "E15: group-commit journaling changed the verdicts" r;
            r.Core.Experiments.sweep_wall ) ]
  in
  let wp = median (List.assoc "plain" journal_samples)
  and wj = median (List.assoc "journaled" journal_samples) in
  let overhead_pct = 100.0 *. (wj -. wp) /. Float.max wp 1e-9 in
  Format.printf
    "  journal (group commit, flush_every=%d, --jobs 2): plain %.2fs, \
     journaled %.2fs (overhead %+.1f%%)@."
    flush_every wp wj overhead_pct;
  (* the shared translation's certified path, on a throwaway certified
     session: the DRUP certificate must cover the assumed
     (selector-fixed) problem and pass the checker *)
  let shared = Core.Mca_model.build_shared Core.Mca_model.Efficient scope_2p2v in
  let session = Core.Mca_model.incremental_session ~certify:true shared in
  let outcome =
    Core.Mca_model.check_consensus_incremental ~budget:Netsim.Budget.unlimited
      session Core.Mca_model.honest_submodular
  in
  (match (outcome, Core.Mca_model.certify session) with
  | Relalg.Translate.Decided Alloylite.Compile.Unsat, Some r
    when r.Sat.Proof.kind = `Refutation -> ()
  | _ -> failwith "E15: shared-translation DRUP check failed");
  Format.printf "  shared translation certified (DRUP, assumed selectors): true@.";
  { scope = String.concat ", " (List.map (fun (t, _, _) -> t) measured_scopes);
    phases =
      List.concat_map snd scope_phases
      @ List.map (fun (k, s) -> ("journal_" ^ k, s)) journal_samples;
    counts =
      [ ("jobs4_over_jobs1", jobs_ratio);
        ("journal_flush_every", float_of_int flush_every);
        ("journal_overhead_pct", overhead_pct) ];
    gates =
      [ ("jobs4_within_1_2x_jobs1", jobs_ok);
        ("journal_overhead_le_10pct", overhead_pct <= 10.0) ] }

(* ------------------------------------------------------------------ *)
(* E17: the incremental matrix — one warm session solving all six
   policy cells of the shared translation, against six independent
   solves of the same translation, each on a throwaway session (a cold
   solver opened for one cell and dropped). The warm session amortizes
   watch-list construction, variable activities and learnt clauses
   across cells, so the whole matrix should come in under the
   independent cost (the gate asks for <= 0.9x). Alongside the wall
   clocks: per-cell verdict identity every round, the session solver's
   lifetime counters, and the certified 3p2v differential pin — the
   warm certified session must agree with a throwaway certified session
   on every cell and carry a checked DRUP/model certificate, without
   ever asserting selector units as clauses into the warm solver. *)

let run_incremental_matrix () =
  section "E17 - Incremental matrix (warm session vs independent solves)";
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
  let matrix session_of =
    List.map
      (fun (name, p) ->
        ( name,
          tag_of
            (Core.Mca_model.check_consensus_incremental ~budget:(budget ())
               (session_of ()) p) ))
      policies
  in
  (* the first pass, the independent warm-up, sets the verdicts every
     later pass of either kind must reproduce *)
  let reference = ref None and stats = ref None in
  let same verdicts =
    match !reference with
    | None -> reference := Some verdicts
    | Some v ->
        if v <> verdicts then
          failwith "E17: incremental verdicts differ from independent solves"
  in
  let samples =
    interleaved ~repeats
      [ ( "independent",
          fun () ->
            let v, s =
              timed (fun () ->
                  matrix (fun () -> Core.Mca_model.incremental_session shared))
            in
            same v;
            s );
        ( "incremental",
          fun () ->
            let (v, st), s =
              timed (fun () ->
                  let session = Core.Mca_model.incremental_session shared in
                  let v = matrix (fun () -> session) in
                  (v, Core.Mca_model.session_solver_stats session))
            in
            same v;
            stats := st;
            s ) ]
  in
  let wi = median (List.assoc "independent" samples)
  and ww = median (List.assoc "incremental" samples) in
  let ratio = ww /. Float.max wi 1e-9 in
  Format.printf
    "  2p2v/4st matrix (%d cells): independent %.3fs, incremental %.3fs \
     (ratio %.3f, median of %d)@."
    (List.length policies) wi ww ratio repeats;
  let session_counts =
    match !stats with
    | Some st ->
        Format.printf
          "  session counters: %d conflicts, %d propagations, %d learnt \
           literals across the matrix@."
          st.Sat.Solver.conflicts st.Sat.Solver.propagations
          st.Sat.Solver.learnt_literals;
        List.map
          (fun (k, v) -> ("session_" ^ k, float_of_int v))
          [ ("conflicts", st.Sat.Solver.conflicts);
            ("propagations", st.Sat.Solver.propagations);
            ("decisions", st.Sat.Solver.decisions);
            ("restarts", st.Sat.Solver.restarts);
            ("learnt_literals", st.Sat.Solver.learnt_literals);
            ("clauses_added", st.Sat.Solver.clauses_added) ]
    | None -> []
  in
  (* certified 3p2v pin: warm certified verdicts = cold certified
     verdicts, each carrying a checked certificate of the right kind *)
  let shared_3p2v =
    Core.Mca_model.build_shared Core.Mca_model.Efficient scope_3p2v
  in
  let certified_session =
    Core.Mca_model.incremental_session ~certify:true shared_3p2v
  in
  let certified session p =
    let outcome =
      Core.Mca_model.check_consensus_incremental
        ~budget:Netsim.Budget.unlimited session p
    in
    (outcome, Core.Mca_model.certify session)
  in
  let cert_ok =
    List.for_all
      (fun (_, p) ->
        let warm, warm_cert = certified certified_session p in
        let fresh, _ =
          certified
            (Core.Mca_model.incremental_session ~certify:true shared_3p2v)
            p
        in
        let verdict_agrees =
          match (warm, fresh) with
          | Relalg.Translate.Decided Relalg.Translate.Unsat,
            Relalg.Translate.Decided Relalg.Translate.Unsat -> true
          | Relalg.Translate.Decided (Relalg.Translate.Sat _),
            Relalg.Translate.Decided (Relalg.Translate.Sat _) -> true
          | _ -> false
        in
        let certificate_checks =
          match (warm, warm_cert) with
          | Relalg.Translate.Decided Relalg.Translate.Unsat, Some r ->
              r.Sat.Proof.kind = `Refutation
          | Relalg.Translate.Decided (Relalg.Translate.Sat _), Some r ->
              r.Sat.Proof.kind = `Model
          | _ -> false
        in
        verdict_agrees && certificate_checks)
      policies
  in
  if not cert_ok then
    failwith "E17: certified 3p2v pin failed (verdict or certificate)";
  Format.printf
    "  3p2v certified pin: warm session = cold certified on all %d cells@."
    (List.length policies);
  { scope = "2p2v/4st"; phases = samples;
    counts =
      ("cells", float_of_int (List.length policies))
      :: ("incremental_over_independent", ratio) :: session_counts;
    gates = [ ("incremental_le_0_9x", ratio <= 0.9) ] }

(* ------------------------------------------------------------------ *)
(* E16: the sharded verification cluster — sweep throughput vs fleet
   size with the coordinator running 8 dispatch domains against
   workers capped at one solver domain and a two-deep queue each (an
   8x-overloaded fleet, so shed escalation and failover routing are
   exercised, not idled past), plus the robustness point: one of three
   workers aborted mid-sweep must cost zero lost or changed verdicts. *)

let run_cluster_sweep () =
  section "E16 - Sharded cluster (throughput vs fleet size, kill-a-worker)";
  let scopes = fleet_scopes () in
  let tag = fst (List.hd scopes) in
  let dispatchers = 8 and worker_cap = 2 in
  let reference = reference_grid scopes in
  let cfg workers =
    { (cluster_cfg workers) with Service.Cluster.dispatchers }
  in
  Format.printf
    "  scope %s, %d dispatchers vs jobs=1 cap=%d workers (8x overload)@." tag
    dispatchers worker_cap;
  let points =
    List.map
      (fun n ->
        let r, wall =
          with_fleet ~queue_cap:worker_cap n (fun fleet ->
              timed (fun () ->
                  Service.Cluster.run_sweep ~scopes (cfg (List.map fst fleet))))
        in
        expect_grid reference
          "E16: cluster verdicts differ from the reference sweep"
          r.Service.Cluster.sweep;
        let cells = List.length r.Service.Cluster.sweep.Core.Experiments.cells in
        let shed = List.assoc "shed_retries" r.Service.Cluster.cluster_stats in
        Format.printf
          "  %d worker(s): wall %.2fs, %.2f verdicts/s, shed_retries=%d@." n
          wall (float_of_int cells /. wall) shed;
        ( (Printf.sprintf "fleet_%d" n, [ wall ]),
          [ (Printf.sprintf "fleet_%d_verdicts_per_s" n,
             float_of_int cells /. wall);
            (Printf.sprintf "fleet_%d_shed_retries" n, float_of_int shed) ] ))
      [ 1; 2; 3 ]
  in
  (* kill-a-worker: abort one of three workers once the sweep is in
     flight; every verdict must still land, byte-identical *)
  let r, kill_wall =
    with_fleet ~queue_cap:worker_cap 3 (fun fleet ->
        let victim = snd (List.nth fleet 1) in
        let killer =
          Domain.spawn (fun () ->
              Unix.sleepf 0.3;
              Service.Server.stop ~abort:true victim)
        in
        let run =
          timed (fun () ->
              Service.Cluster.run_sweep ~scopes (cfg (List.map fst fleet)))
        in
        Domain.join killer;
        run)
  in
  let kill_identical =
    Core.Experiments.render_sweep r.Service.Cluster.sweep = reference
  in
  let stat k = List.assoc k r.Service.Cluster.cluster_stats in
  Format.printf
    "  killed-worker run: wall %.2fs, identical=%b, failovers=%d \
     relocated=%d recertified=%d@."
    kill_wall kill_identical (stat "failovers") (stat "relocated")
    (stat "recertified");
  { scope = tag;
    phases = List.map fst points @ [ ("killed_worker", [ kill_wall ]) ];
    counts =
      List.concat_map snd points
      @ List.map
          (fun k -> ("killed_worker_" ^ k, float_of_int (stat k)))
          [ "failovers"; "relocated"; "recertified" ];
    gates = [ ("killed_worker_identical", kill_identical) ] }

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
  let scopes = fleet_scopes () in
  let reference = reference_grid scopes in
  let tmp suffix = Filename.temp_file "mca_fobench" suffix in
  let cfg ?journal ?repl ?(epoch = 0) ?(throttle = 0.0) workers =
    {
      (cluster_cfg workers) with
      Service.Cluster.cl_journal = journal;
      repl_listen = Option.map (fun p -> Service.Server.Unix_path p) repl;
      epoch;
      cl_throttle_s = throttle;
    }
  in
  (* -- replication overhead: plain journaled sweep vs the same sweep
     with the publisher on and a live standby tailing it, interleaved,
     medians. The replica must come out a verbatim prefix of the
     primary journal (the drain races the publisher shutdown for the
     final batch, so prefix — not equality — is the invariant). Every
     timed run gets a fresh fleet so both configurations pay the same
     cold solves: against warm worker caches the sweep collapses to
     ~50ms of wire traffic and a 10% gate would measure jitter, not
     the replication stream. *)
  let prefix_ok = ref true in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  let plain () =
    with_fleet 3 (fun fleet ->
        let j = tmp ".journal" in
        let r, wall =
          timed (fun () ->
              Service.Cluster.run_sweep ~scopes
                (cfg ~journal:j (List.map fst fleet)))
        in
        expect_grid reference
          "E19: plain journaled sweep diverged from the reference"
          r.Service.Cluster.sweep;
        rm j;
        wall)
  in
  let replicated () =
    with_fleet 3 (fun fleet ->
        let workers = List.map fst fleet in
        let j = tmp ".journal" and replica = tmp ".replica" in
        let repl_sock = tmp ".sock" in
        let drained = Atomic.make false in
        let sb_cfg =
          {
            (Service.Cluster.default_standby
               ~source:(Service.Server.Unix_path repl_sock)
               (cfg ~journal:replica workers))
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
        let r, wall =
          timed (fun () ->
              Service.Cluster.run_sweep ~scopes
                (cfg ~journal:j ~repl:repl_sock ~epoch:1 workers))
        in
        Atomic.set drained true;
        (match Domain.join standby with
        | Service.Cluster.Standby_drained _ -> ()
        | Service.Cluster.Took_over _ ->
            failwith "E19: the tailing standby took over a healthy sweep");
        expect_grid reference
          "E19: replicated sweep diverged from the reference"
          r.Service.Cluster.sweep;
        let entries p = (Parallel.Journal.recover p).Parallel.Journal.entries in
        if not (is_prefix (entries replica) (entries j)) then
          prefix_ok := false;
        List.iter rm [ j; replica; repl_sock ];
        wall)
  in
  let samples =
    interleaved ~repeats:overhead_pairs
      [ ("plain", plain); ("replicated", replicated) ]
  in
  let plain_med = median (List.assoc "plain" samples)
  and repl_med = median (List.assoc "replicated" samples) in
  let ratio = repl_med /. plain_med in
  Format.printf
    "  replication overhead: plain %.2fs vs replicated %.2fs (%.2fx, \
     replica prefix ok=%b)@."
    plain_med repl_med ratio !prefix_ok;
  (* -- takeover latency vs lease: a throttled primary is stopped once
     the standby has replicated two records; the standby must detect
     the silence (down_after consecutive failed pulls AND a lapsed
     lease), fence the fleet at epoch 2 and finish to the same grid. *)
  let leases = if !fast_mode then [ 0.2; 0.5 ] else [ 0.2; 0.5; 1.0 ] in
  let takeovers =
    List.map
      (fun lease ->
        let j = tmp ".journal" and replica = tmp ".replica" in
        let repl_sock = tmp ".sock" in
        let outcome =
          with_fleet 3 (fun fleet ->
              let workers = List.map fst fleet in
              let dead = Atomic.make false in
              let primary =
                Domain.spawn (fun () ->
                    Service.Cluster.run_sweep
                      ~stop:(fun () -> Atomic.get dead)
                      ~scopes
                      (cfg ~journal:j ~repl:repl_sock ~epoch:1 ~throttle:0.1
                         workers))
              in
              (* only start the standby's lease clock once the publisher
                 is reachable, as mca_cluster --standby operators are
                 told to *)
              let rec wait_up deadline =
                match
                  Service.Repl.pull (Service.Server.Unix_path repl_sock)
                    ~from:0
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
                     (cfg ~journal:replica ~epoch:1 workers))
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
              outcome)
        in
        List.iter rm [ j; replica; repl_sock ];
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
            let key = Printf.sprintf "takeover_lease_%gs" lease in
            ((key, [ takeover_latency_s ]),
             ((key ^ "_records", float_of_int replicated), identical)))
      leases
  in
  { scope = fst (List.hd scopes);
    phases = samples @ List.map fst takeovers;
    counts =
      ("replicated_over_plain", ratio)
      :: List.map (fun (_, (c, _)) -> c) takeovers;
    gates =
      [ ("replication_le_1_10x", ratio <= 1.10);
        ("replica_prefix", !prefix_ok);
        ("takeover_identical",
         List.for_all (fun (_, (_, ok)) -> ok) takeovers) ] }

(* ------------------------------------------------------------------ *)
(* E18: the multi-tenant submit verb. Three costs worth pinning: a cold
   spec (parse + elaborate + translate + solve), a cache hit on the same
   digest, and a quota refusal (which must be answered from the header
   alone, before any spec work). The gates: a cache hit is no dearer
   than a cold solve, and every reply to the hostile mutating flood is
   structured. *)

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
      rm sock)
  @@ fun () ->
  let submits = if !fast_mode then 5 else 12 in
  let time_submit ?tenant ?certify body =
    timed (fun () -> Service.Client.submit ?tenant ?certify addr body)
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
  let phases =
    [ ("cold", cold); ("cached", cached);
      ("certified_cold", [ certified_wall ]); ("quota_refusal", refused) ]
  in
  Format.printf "  %-22s %12s@." "path" "median(ms)";
  List.iter2
    (fun label (_, samples) ->
      Format.printf "  %-22s %12.2f@." label (median samples *. 1e3))
    [ "cold solve"; "cache hit"; "certified cold"; "quota refusal" ]
    phases;
  (* the hostile flood: mutated specs from two concurrent clients; the
     robustness contract is that transport failures stay at zero *)
  let flood_total = if !fast_mode then 60 else 200 in
  let fr =
    Service.Client.spec_flood ~concurrency:2 ~mutate_seed:18 ~total:flood_total
      addr spec_fixture
  in
  Format.printf "  hostile flood: %a@." Service.Client.pp_spec_flood fr;
  { scope = Printf.sprintf "%d submits per path, %d-spec flood" submits
        flood_total;
    phases;
    counts =
      List.map
        (fun (k, v) -> ("flood_" ^ k, float_of_int v))
        [ ("total", flood_total); ("verdicts", fr.Service.Client.spec_verdicts);
          ("cached", fr.Service.Client.spec_hits);
          ("typed", fr.Service.Client.spec_typed);
          ("quota", fr.Service.Client.spec_quota);
          ("shed", fr.Service.Client.spec_shed);
          ("transport", fr.Service.Client.spec_transport) ];
    gates =
      [ ("cache_hit_cheaper", median cached <= median cold);
        ( "flood_all_structured",
          fr.Service.Client.spec_sent = flood_total
          && fr.Service.Client.spec_transport = 0 ) ] }

(* ------------------------------------------------------------------ *)
(* kernels: Bechamel timing of the computational kernels, reported as
   OLS estimates in ns per run. *)

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
      (Staged.stage (fun () -> ignore (Core.Mca_model.translation m)))
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

let run_kernels () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  section "Kernel timings (Bechamel, ns per run)";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) () in
  let estimates =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
        let ols =
          Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
        in
        let results = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name o acc ->
            match Analyze.OLS.estimates o with
            | Some [ est ] ->
                Format.printf "  %-44s %14.0f@." name est;
                (name ^ "_ns", est) :: acc
            | _ ->
                Format.printf "  %-44s (no estimate)@." name;
                acc)
          results [])
      (bench_tests ())
  in
  { scope = "Bechamel OLS, limit 50, quota 1.5s"; phases = [];
    counts = estimates; gates = [] }

(* ------------------------------------------------------------------ *)

let suites =
  [
    ("paper", run_paper);
    ("e14", run_overload_service);
    ("e15", run_scaling_sweep);
    ("e16", run_cluster_sweep);
    ("e17", run_incremental_matrix);
    ("e18", run_spec_service);
    ("e19", run_failover_bench);
    ("kernels", run_kernels);
  ]

let () =
  let only = ref None in
  let ids = List.map fst suites in
  Arg.parse
    [
      ( "--suite",
        Arg.Symbol (ids, fun id -> only := Some id),
        " run one suite (default: all, in this order)" );
      ("--fast", Arg.Set fast_mode, " skip the slow SAT rows, CI-sized scopes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    (Printf.sprintf "usage: main.exe [--suite %s] [--fast]"
       (String.concat "|" ids));
  match !only with
  | None ->
      (* Each suite in its own process, as CI runs them: what one suite
         leaves behind (domains, heap, sockets, page cache) must not
         move the next one's timing gates. *)
      let failed =
        List.filter
          (fun id ->
            let argv =
              Array.of_list
                ([ Sys.executable_name; "--suite"; id ]
                @ if !fast_mode then [ "--fast" ] else [])
            in
            let pid =
              Unix.create_process Sys.executable_name argv Unix.stdin
                Unix.stdout Unix.stderr
            in
            let rec wait () =
              match Unix.waitpid [] pid with
              | _, status -> status
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            in
            wait () <> Unix.WEXITED 0)
          ids
      in
      if failed <> [] then begin
        Format.eprintf "@.FAILED suites: %s@." (String.concat ", " failed);
        exit 1
      end;
      Format.printf "@.done: every suite passed.@."
  | Some id ->
      Format.printf "MCA verification library — benchmark & experiment harness@.";
      Format.printf "(%s mode)@." (if !fast_mode then "fast" else "full");
      let git_rev = git_rev () and cores = Parallel.Pool.available_jobs () in
      let r = (List.assoc id suites) () in
      write_result ~git_rev ~cores id r;
      let failed =
        List.filter_map
          (fun (gate, ok) -> if ok then None else Some (id ^ "." ^ gate))
          r.gates
      in
      if failed <> [] then begin
        Format.eprintf "@.FAILED gates: %s@." (String.concat ", " failed);
        exit 1
      end;
      Format.printf "@.done: every gate passed.@."
