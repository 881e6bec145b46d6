(* perf: the seeded benchmark of the verification service and the sweep.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--serve EXE] [--listings FILE]

   One workload per process. Without --workload every workload runs,
   each in a fresh child process. --trace 0 serves the workload and
   reports the end-to-end metrics; --trace 1 serves it with one daemon,
   then replays the same inputs in-process with each layer's calls
   timed, and reports the per-layer metrics. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. A wrong
   verdict anywhere makes the run exit 1. See README.md. *)

module Wl = Workloads
open Measure

let workloads = [ "check-sat"; "check-explicit"; "submit-mix"; "sweep-cold" ]

type sizes = {
  setups : int;  (** set-up repetitions; setup_s is their median *)
  lives : int;  (** daemons measured; the measured phase is split across them *)
  warmup : int;  (** untimed operations between set-up and measurement *)
  seconds : float;  (** length of the measured phase *)
  replay_cap : int;  (** traced operations at most *)
}

type config = {
  exe : string;  (** the mca_serve binary *)
  listings : string;  (** text of the submitted spec *)
  seed : int;
  trace : bool;
  sizes : sizes;
}

(* Per workload: daemons measured, warm-up operations and traced
   operations. A warm check-sat daemon settles at its own speed, which
   depends on the order its CDCL sessions saw the requests in and then
   holds for its lifetime, so one daemon is one sample of that speed:
   check-sat measures four, each past most of its ramp. Set-up is timed
   on four cold starts. A traced run sets up once: it reports no
   setup_s, and its one daemon is measured for the whole phase. *)
let sizes ~smoke ~trace ~seconds name =
  let lives, warmup, replay_cap =
    match name with
    | "check-sat" -> (4, 900, 300)
    | "check-explicit" -> (1, 60, 300)
    | "submit-mix" -> (1, 100, 300)
    | _ -> (1, 0, 3)
  in
  let setups, lives = if smoke || trace then (1, 1) else (4, lives) in
  if smoke then
    { setups; lives; warmup = min warmup 6; seconds = 0.3;
      replay_cap = min replay_cap 6 }
  else { setups; lives; warmup; seconds; replay_cap }

type result = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  wrong : string list;
  classes : (string * float list) list;  (** measured latencies per class *)
}

(* (attempted, failed, reasons for wrong verdicts) *)
let tally outcomes =
  List.fold_left
    (fun (n, f, w) -> function
      | Wl.Pass -> (n + 1, f, w)
      | Wl.Failed _ -> (n + 1, f + 1, w)
      | Wl.Wrong why -> (n + 1, f, why :: w))
    (0, 0, []) outcomes

let ms s = 1e3 *. s
let fsum = List.fold_left ( +. ) 0.0
let mean0 = function [] -> 0.0 | xs -> mean xs
let median0 = function [] -> 0.0 | xs -> median xs

(* Per-layer metrics of the traced replay: [ops] operations took
   [op_wall] seconds traced, against [served_op_s] per operation
   untraced. *)
let trace_layers ~ops ~op_wall ~served_op_s =
  let spans = fsum (List.map Spans.total Spans.layers) in
  let per_op = op_wall /. float_of_int (max 1 ops) in
  [
    metric "trace.coverage" "fraction" (spans /. !Spans.window_s);
    metric "trace.vs_server" "ratio" (per_op /. served_op_s);
    metric "sat.solve_ms" "ms" (ms (median0 (Spans.durations "sat")));
    metric "sat.conflicts" "count" (mean0 (Spans.counted "sat.conflicts"));
    metric "sat.propagations" "count" (mean0 (Spans.counted "sat.propagations"));
    metric "sat.learnt_literals" "count"
      (mean0 (Spans.counted "sat.learnt_literals"));
    metric "translate.ms" "ms" (ms (median0 (Spans.durations "translate")));
    metric "translate.vars" "count" (mean0 (Spans.counted "translate.vars"));
    metric "translate.clauses" "count" (mean0 (Spans.counted "translate.clauses"));
    metric "journal.append_ms" "ms" (ms (mean0 (Spans.durations "journal")));
    metric "wire.codec_us" "us"
      (1e6 *. Spans.total "codec" /. float_of_int (max 1 ops));
    metric "checker.states" "count" (mean0 (Spans.counted "checker.states"));
  ]
  @ List.map
      (fun l -> metric ("share." ^ l) "fraction" (Spans.total l /. !Spans.window_s))
      Spans.layers

(* ---- the service workloads ----------------------------------------- *)

type 'a service = {
  setup_ops : int;  (** operations of one sequential set-up pass *)
  input : seed:int -> limit:int -> int -> 'a;
      (** operation [i]'s input; [limit] is where its phase began *)
  send : Service.Server.addr -> 'a -> Wl.reply;
  replayer : journal:string -> ('a -> string) * (unit -> unit);
  after : seed:int -> Wl.reply Load.sample list -> string list;
      (** extra gates on the measured phase, run with no daemon alive *)
}

type life = {
  seed : int;  (** this daemon's input seed *)
  setup_s : float;  (** spawn to first verdict *)
  outcomes : Wl.outcome list;  (** of every operation sent *)
  measured : Wl.reply Load.sample list;
  wall : float;  (** length of the measured slice *)
  rss_kb : int;  (** VmHWM after set-up and warm-up: a fixed amount of work *)
  growth_kb : int;  (** VmHWM growth over the measured slice *)
}

let outcomes = List.map (fun s -> s.Load.res.Wl.outcome)

(* One daemon, spawned cold and timed until its first verdict. With
   [slice_s] it then finishes the set-up pass, runs the warm-up and is
   measured for [slice_s] seconds; without, it is stopped there. Daemon
   [k] draws its inputs from its own seed, derived from the run's. *)
let lifetime (cfg : config) ~dir svc ?slice_s k =
  let seed = Hashtbl.hash (cfg.seed, k) in
  let input = svc.input ~seed in
  let t0 = now () in
  Daemon.with_daemon ~exe:cfg.exe ~dir (Printf.sprintf "serve%d" k) (fun d ->
      let send = svc.send d.Daemon.addr in
      let pass ~first n = Load.sequential ~first n ~input:(input ~limit:0) ~send in
      let first = pass ~first:0 1 in
      let setup_s = now () -. t0 in
      match slice_s with
      | None ->
          { seed; setup_s; outcomes = outcomes first; measured = []; wall = 0.0;
            rss_kb = 0; growth_kb = 0 }
      | Some slice_s ->
          let rest = pass ~first:1 (svc.setup_ops - 1) in
          let w0 = svc.setup_ops in
          let m0 = w0 + cfg.sizes.warmup in
          let warm, _ =
            Load.closed_loop ~first:w0 (Load.Count cfg.sizes.warmup)
              ~input:(input ~limit:w0) ~send
          in
          let rss_kb = Daemon.rss_kb d in
          let measured, wall =
            Load.closed_loop ~first:m0 (Load.Seconds slice_s)
              ~input:(input ~limit:m0) ~send
          in
          {
            seed;
            setup_s;
            outcomes =
              outcomes first @ outcomes rest @ outcomes warm @ outcomes measured;
            measured;
            wall;
            rss_kb;
            growth_kb = Daemon.rss_kb d - rss_kb;
          })

(* A reply's [secs] leaves out the explicit checker (Server.compute_cell
   reads its clock before forcing it), so on check-explicit the
   overhead holds the checker's time too. *)
let serve_layers lives measured =
  let n = List.length measured in
  let res = List.map (fun s -> s.Load.res) measured in
  let compute = List.map (fun x -> x.Wl.compute_s) res in
  [
    metric "server.compute_p50_ms" "ms"
      (ms (median0 (List.filter (fun x -> x > 0.0) compute)));
    metric "server.overhead_p50_ms" "ms"
      (ms (median0 (List.map2 (fun s c -> s.Load.lat_s -. c) measured compute)));
    metric "server.rss_kb_per_op" "kB"
      (float_of_int (List.fold_left (fun a l -> a + l.growth_kb) 0 lives)
       /. float_of_int (max 1 n));
    metric "ladder.cdcl_frac" "fraction"
      (float_of_int (List.length (List.filter (fun x -> x.Wl.cdcl) res))
       /. float_of_int (max 1 n));
  ]

(* Replays set-up and warm-up untimed, so solver sessions and the
   verdict cache are as warm as the server's, then at most
   [replay_cap] measured operations with every layer call timed. *)
let replay (cfg : config) ~dir svc (l : life) =
  let input = svc.input ~seed:l.seed in
  let replay_op, close =
    Spans.window (fun () -> svc.replayer ~journal:(Filename.concat dir "replay.wal"))
  in
  Fun.protect ~finally:close (fun () ->
      let w0 = svc.setup_ops in
      let m0 = w0 + cfg.sizes.warmup in
      for i = 0 to m0 - 1 do
        ignore (replay_op (input ~limit:(if i < w0 then 0 else w0) i))
      done;
      let chosen = List.filteri (fun k _ -> k < cfg.sizes.replay_cap) l.measured in
      let t0 = now () in
      let texts =
        Spans.window (fun () ->
            List.map (fun s -> (s, replay_op (input ~limit:m0 s.Load.idx))) chosen)
      in
      let op_wall = now () -. t0 in
      let mismatches =
        List.filter_map
          (fun (s, text) ->
            let served = s.Load.res in
            if served.Wl.outcome = Wl.Pass && served.Wl.verdict <> text then
              Some (Printf.sprintf "op %d: served %s, replayed %s" s.Load.idx
                      served.Wl.verdict text)
            else None)
          texts
      in
      let served_op_s = mean (List.map (fun s -> s.Load.lat_s) l.measured) in
      (trace_layers ~ops:(List.length chosen) ~op_wall ~served_op_s, mismatches))

(* The set-ups beyond the measured daemons are daemons stopped at their
   first verdict. The measured phase is split evenly across the measured
   daemons, and its metrics pool their operations. *)
let run_service (cfg : config) ~dir svc =
  let { setups; lives = n; seconds; _ } = cfg.sizes in
  let starts = List.init (max 0 (setups - n)) (fun k -> lifetime cfg ~dir svc (n + k)) in
  let slice_s = seconds /. float_of_int n in
  let lives = List.init n (lifetime cfg ~dir svc ~slice_s) in
  let measured = List.concat_map (fun l -> l.measured) lives in
  let attempted, failed, wrong =
    tally (List.concat_map (fun l -> l.outcomes) (starts @ lives))
  in
  let wrong =
    wrong @ List.concat_map (fun l -> svc.after ~seed:l.seed l.measured) lives
  in
  let lat = List.map (fun s -> s.Load.lat_s) measured in
  List.iteri
    (fun k l ->
      let lat = List.map (fun s -> s.Load.lat_s) l.measured in
      Printf.printf "  daemon %d seed=%d setup %.3f s, %d ops in %.2f s, p50 %.3f ms\n"
        k l.seed l.setup_s (List.length lat) l.wall (ms (percentile lat 0.5)))
    lives;
  let e2e =
    [
      metric "setup_s" "s" (median (List.map (fun l -> l.setup_s) (starts @ lives)));
      metric "ops_per_s" "ops/s"
        (float_of_int (List.length measured) /. fsum (List.map (fun l -> l.wall) lives));
      metric "lat_p50_ms" "ms" (ms (percentile lat 0.5));
      metric "lat_p90_ms" "ms" (ms (percentile lat 0.9));
      metric "rss_peak_mb" "MB"
        (median (List.map (fun l -> float_of_int l.rss_kb /. 1024.0) lives));
    ]
  in
  let layers, wrong =
    if cfg.trace then
      let traced, mismatches = replay cfg ~dir svc (List.hd lives) in
      (serve_layers lives measured @ traced, wrong @ mismatches)
    else ([], wrong)
  in
  let classes =
    List.sort_uniq compare (List.map (fun s -> s.Load.res.Wl.cls) measured)
    |> List.map (fun c ->
           (c, List.filter_map
                 (fun s -> if s.Load.res.Wl.cls = c then Some s.Load.lat_s else None)
                 measured))
  in
  { e2e; layers; attempted; failed; wrong; classes }

let check_service sc ~expect ~after =
  {
    setup_ops = Array.length sc.Wl.policies;
    input = (fun ~seed ~limit:_ i -> Wl.check_request sc ~seed i);
    send = Wl.send_check ~expect;
    replayer = (fun ~journal -> Wl.check_replayer ~journal sc);
    after;
  }

(* check-explicit gate: a seeded 5% of the measured operations must
   equal Core.Experiments.run_cell computed here, after the daemons are
   gone. Every daemon's reply to a sampled operation is compared. *)
let sample_gate sc ~seed measured =
  let scope = Wl.scope_spec sc in
  let shared =
    List.map
      (fun t ->
        (t, Core.Mca_model.build_shared ~target:t Core.Mca_model.Efficient scope))
      (Wl.shared_targets scope)
  in
  let truth = Hashtbl.create 64 in
  let run_cell i =
    let req = Wl.check_request sc ~seed i in
    let tag, scope = Service.Wire.scope_of_request req in
    let p, mp = Option.get (Core.Experiments.lookup_policy req.Service.Wire.policy) in
    let target = min mp.Core.Mca_model.target scope.Core.Mca_model.vnodes in
    let c =
      Core.Experiments.run_cell ~shared:(List.assoc target shared) ~incremental:true
        ~budget:Netsim.Budget.unlimited ~seed:req.Service.Wire.seed
        (req.Service.Wire.policy, p, mp, tag, scope)
    in
    Wl.verdict_text c.Core.Experiments.sat_verdict c.Core.Experiments.exhaustive
      c.Core.Experiments.sim_ok
  in
  List.filter_map
    (fun s ->
      let i = s.Load.idx in
      if
        Hashtbl.hash (seed, i, "sample") mod 20 <> 0
        || s.Load.res.Wl.outcome <> Wl.Pass
      then None
      else
        let want =
          match Hashtbl.find_opt truth i with
          | Some w -> w
          | None ->
              let w = run_cell i in
              Hashtbl.add truth i w;
              w
        in
        if want = s.Load.res.Wl.verdict then None
        else
          Some
            (Printf.sprintf "op %d: served %s, run_cell %s" i
               s.Load.res.Wl.verdict want))
    measured

let submit_service (cfg : config) =
  let setup = 4 in
  {
    setup_ops = setup;
    input =
      (fun ~seed ~limit i ->
        Wl.submit_op ~listings:cfg.listings ~seed ~setup ~limit i);
    send = Wl.send_submit;
    replayer = (fun ~journal -> Wl.submit_replayer ~journal);
    after = (fun ~seed:_ _ -> []);
  }

(* ---- the sweep ------------------------------------------------------ *)

let run_sweep_workload (cfg : config) ~dir =
  let k = ref 0 in
  let once () =
    incr k;
    let journal = Filename.concat dir (Printf.sprintf "sweep%d.wal" !k) in
    (* every sweep starts from a compacted heap, as a fresh
       mca_check --sweep process would, not amid an earlier sweep's
       garbage *)
    Gc.compact ();
    let t0 = now () in
    let r = Wl.run_sweep ~seed:cfg.seed ~journal in
    let dt = now () -. t0 in
    Sys.remove journal;
    (dt, r)
  in
  let setups = List.init cfg.sizes.setups (fun _ -> once ()) in
  let setup_kb = Option.value (vm_hwm_kb None) ~default:0 in
  let t0 = now () in
  let rec measure acc =
    if now () -. t0 < cfg.sizes.seconds then measure (once () :: acc)
    else List.rev acc
  in
  let measured = measure [] in
  let wall = now () -. t0 in
  let rss_end_kb = Option.value (vm_hwm_kb None) ~default:0 in
  let reference = Core.Experiments.render_sweep (snd (List.hd setups)) in
  let gate (_, r) =
    let cells = r.Core.Experiments.cells in
    let pinned =
      List.for_all
        (fun c ->
          Wl.verdict_text c.Core.Experiments.sat_verdict c.Core.Experiments.exhaustive
            c.Core.Experiments.sim_ok
          = Wl.pinned_2p2v_4st c.Core.Experiments.policy_label)
        cells
    in
    if not (Core.Experiments.sweep_decided r) then Wl.Failed "undecided cell"
    else if Core.Experiments.render_sweep r <> reference then
      Wl.Wrong "sweep grid changed between runs"
    else if not pinned then Wl.Wrong "grid differs from the pinned 2p2v/4st grid"
    else Wl.Pass
  in
  let attempted, failed, wrong = tally (List.map gate (setups @ measured)) in
  let lat = List.map fst measured in
  let cells = List.concat_map (fun (_, r) -> r.Core.Experiments.cells) measured in
  let e2e =
    [
      metric "setup_s" "s" (median (List.map fst setups));
      metric "ops_per_s" "ops/s" (float_of_int (List.length measured) /. wall);
      metric "lat_p50_ms" "ms" (ms (percentile lat 0.5));
      metric "lat_p90_ms" "ms" (ms (percentile lat 0.9));
      (* sweeps keep no state between them: the peak over the run *)
      metric "rss_peak_mb" "MB" (float_of_int rss_end_kb /. 1024.0);
    ]
  in
  let layers, wrong =
    if not cfg.trace then ([], wrong)
    else
      let cell_s c = c.Core.Experiments.cell_seconds in
      (* a sweep's time outside its cells, per pool domain: translation,
         scheduling and journal *)
      let outside (dt, r) =
        dt
        -. fsum (List.map cell_s r.Core.Experiments.cells)
           /. float_of_int Wl.sweep_jobs
      in
      let sat_decided c = Wl.decided c.Core.Experiments.sat_verdict in
      let count l = float_of_int (List.length l) in
      let served =
        [
          metric "server.compute_p50_ms" "ms" (ms (median (List.map cell_s cells)));
          metric "server.overhead_p50_ms" "ms"
            (ms (median (List.map outside measured)));
          metric "server.rss_kb_per_op" "kB"
            (float_of_int (rss_end_kb - setup_kb) /. count measured);
          metric "ladder.cdcl_frac" "fraction"
            (count (List.filter sat_decided cells) /. count cells);
        ]
      in
      let n = min cfg.sizes.replay_cap (List.length measured) in
      let t0 = now () in
      let renders =
        List.init n (fun i ->
            let journal = Filename.concat dir (Printf.sprintf "replay%d.wal" i) in
            Spans.window (fun () -> Wl.traced_sweep ~seed:cfg.seed ~journal))
      in
      let op_wall = now () -. t0 in
      let mismatches =
        List.filter_map
          (fun r -> if r = reference then None else Some "traced sweep grid differs")
          renders
      in
      ( served @ trace_layers ~ops:n ~op_wall ~served_op_s:(mean lat),
        wrong @ mismatches )
  in
  { e2e; layers; attempted; failed; wrong; classes = [ ("sweep", lat) ] }

(* ---- entry points --------------------------------------------------- *)

let run_workload (cfg : config) name =
  Daemon.with_run_dir (fun dir ->
      match name with
      | "check-sat" ->
          let sc =
            { Wl.agents = 2; items = 2; states = 4; policies = Wl.paper_policies }
          in
          run_service cfg ~dir
            (check_service sc
               ~expect:(fun req -> Some (Wl.pinned_2p2v_4st req.Service.Wire.policy))
               ~after:(fun ~seed:_ _ -> []))
      | "check-explicit" ->
          (* The two rebid-attack policies are answered in ≈3 ms at this
             scope. Mixed in, they leave a slow request sometimes alone
             on the daemon's two cores (≈40 ms) and sometimes beside
             another (≈60 ms), and the median falls between the two
             modes; without them both workers explore all the time. *)
          let sc =
            { Wl.agents = 3; items = 1; states = 3;
              policies =
                [| "submod"; "submod+release"; "nonsubmod"; "nonsubmod+release" |] }
          in
          run_service cfg ~dir
            (check_service sc ~expect:(fun _ -> None) ~after:(sample_gate sc))
      | "submit-mix" -> run_service cfg ~dir (submit_service cfg)
      | _ -> run_sweep_workload cfg ~dir)

let report ~name (cfg : config) r =
  let metrics = if cfg.trace then r.layers else r.e2e in
  print_table
    ~title:(Printf.sprintf "%s seed=%d cores=%d trace=%b" name cfg.seed
              (Domain.recommended_domain_count ()) cfg.trace)
    metrics;
  List.iter
    (fun (c, lat) ->
      Printf.printf "  class %-8s n=%-6d p50 %.3f ms  p90 %.3f ms\n" c
        (List.length lat) (ms (percentile lat 0.5)) (ms (percentile lat 0.9)))
    r.classes;
  List.iter (fun w -> Printf.eprintf "perf: %s: wrong: %s\n" name w) r.wrong;
  print_endline
    (result_json ~correct:(r.wrong = []) ~attempted:r.attempted
       ~failed:r.failed metrics);
  if r.wrong = [] then 0 else 1

(* Every workload, each in a fresh process. *)
let run_all args =
  List.fold_left
    (fun code name ->
      let exe = Sys.executable_name in
      let argv = Array.of_list (exe :: "--workload" :: name :: args) in
      let pid = Daemon.spawn_child exe argv ~out:Unix.stdout ~err:Unix.stderr in
      match Daemon.wait_child pid with
      | Unix.WEXITED 0 -> code
      | _ ->
          Printf.eprintf "perf: workload %s failed\n%!" name;
          1)
    0 workloads

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupt exits through [Daemon.cleanup]: children stopped and
     reaped, the run directory removed, no result printed *)
  at_exit Daemon.cleanup;
  let exit_on code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigterm (exit_on 143);
  Sys.set_signal Sys.sigint (exit_on 130);
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false in
  let exe = ref "_build/default/bin/mca_serve.exe" in
  let listings = ref "examples/models/paper_listings.als" in
  Arg.parse
    [
      ( "--workload", Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured phase length (default 10)");
      ( "--trace", Arg.Set_int trace,
        "0|1 report per-layer metrics from a traced replay" );
      ("--smoke", Arg.Set smoke, " tiny sizes, traced, every workload (a test)");
      ("--serve", Arg.Set_string exe, "EXE the mca_serve binary");
      ( "--listings", Arg.Set_string listings,
        "FILE the spec the submit workload sends" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let fail msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  if not (Sys.file_exists !exe) then fail (!exe ^ " not found; build it first");
  if not (Sys.file_exists !listings) then fail (!listings ^ " not found");
  if !workload = "" then begin
    let pass = [ "--seed"; string_of_int !seed; "--seconds"; string_of_float !seconds;
                 "--trace"; string_of_int (if !smoke then 1 else !trace);
                 "--serve"; !exe; "--listings"; !listings ]
               @ if !smoke then [ "--smoke" ] else [] in
    exit (run_all pass)
  end;
  if not (List.mem !workload workloads) then fail ("unknown workload " ^ !workload);
  let trace = !trace <> 0 in
  let text = In_channel.with_open_bin !listings In_channel.input_all in
  let cfg =
    { exe = !exe; listings = text; seed = !seed; trace;
      sizes = sizes ~smoke:!smoke ~trace ~seconds:!seconds !workload }
  in
  exit (report ~name:!workload cfg (run_workload cfg !workload))
