(* The sharded verification cluster coordinator.

   Design in one paragraph: the sweep's task list is laid out as an
   array of slots (task order, so the report renders byte-identically
   to the single-process sweep); each slot carries a first-result-wins
   Atomic CAS; dispatcher domains drain an atomic queue of slot
   indexes, walking each cell's Shard failover route — owner first —
   with per-cell Backoff jitter between attempts; transport failures
   are failure *evidence* against the worker (down after [down_after]
   consecutive), shed replies are not (the worker answered — it is
   merely full); a heartbeat domain probes liveness with the stats
   request and revives workers; once the queue is empty dispatchers
   turn into stealers and duplicate the oldest straggler onto a
   sibling; decided verdicts from a non-owner are re-derived locally
   under DRUP certification before being accepted. The journal records
   dispatch intents ([disp] frames, ignored by every cell reader) and
   decided cells (standard [cell] frames, interchangeable with
   mca_check --sweep --resume). *)

module E = Core.Experiments
module M = Core.Mca_model
module R = Parallel.Record

type config = {
  workers : Server.addr list;
  dispatchers : int;
  seed : int;
  deadline_s : float;
  timeout_s : float;
  max_attempts : int;
  backoff : Netsim.Backoff.t;
  down_after : int;
  heartbeat_s : float;
  steal_after_s : float;
  verify_relocated : bool;
  ring_points : int;
  cl_journal : string option;
  cl_resume : bool;
  cl_flush_every : int;
  epoch : int;
      (** leadership epoch; 0 = unfenced legacy mode. When positive,
          every worker is fenced to it before dispatch, every request
          and journal record is stamped with it, and a [fenced] reply
          (a newer coordinator exists) deposes this run. *)
  repl_listen : Server.addr option;
      (** serve journal replication pulls from this address (requires
          [cl_journal]) — the warm standby's feed *)
  cl_throttle_s : float;
      (** sleep this long before dispatching each cell; 0 = off. Meant
          for failover tests and benches that must land a kill or a
          partition mid-sweep deterministically, not for production. *)
}

let default_config workers =
  {
    workers;
    dispatchers = 4;
    seed = 1;
    deadline_s = 30.0;
    timeout_s = 35.0;
    max_attempts = 5;
    backoff = Netsim.Backoff.make ~base_s:0.02 ~cap_s:0.5 ();
    down_after = 2;
    heartbeat_s = 0.5;
    steal_after_s = 5.0;
    verify_relocated = true;
    ring_points = 64;
    cl_journal = None;
    cl_resume = false;
    cl_flush_every = 1;
    epoch = 0;
    repl_listen = None;
    cl_throttle_s = 0.0;
  }

type report = {
  sweep : E.sweep_report;
  cluster_stats : (string * int) list;
  worker_up : bool list;
  cl_epoch : int;  (** the epoch this run dispatched under *)
  deposed : bool;
      (** a worker refused us for a stale epoch: a newer coordinator
          took over mid-sweep. Dispatch and journaling stopped at the
          first refusal; the report is partial and must not be
          trusted past it — the successor owns the sweep now. *)
}

(* ---- internal state ----------------------------------------------- *)

type worker_state = {
  w_addr : Server.addr;
  w_fails : int Atomic.t;  (* consecutive observed transport failures *)
  w_down : bool Atomic.t;
}

type task =
  string * Mca.Policy.t * M.policy * string * M.scope_spec

type done_cell = {
  d_cell : E.sweep_cell;
  d_worker : int;  (* -1: resumed or synthesized locally *)
  d_relocated : bool;
}

type slot = {
  s_index : int;
  s_task : task;
  s_key : string;  (* scope_tag ^ "/" ^ policy_label — the shard key *)
  s_route : int list;
  s_primary : int;
  mutable s_started : float;  (* last dispatch time; racy reads are benign *)
  s_attempting : int Atomic.t;  (* worker currently asked, -1 if none *)
  s_steal_guard : bool Atomic.t;
  s_result : done_cell option Atomic.t;
}

type counters = {
  c_dispatched : int Atomic.t;
  c_failovers : int Atomic.t;  (* attempts abandoned on transport failure *)
  c_shed_retries : int Atomic.t;
  c_soft_retries : int Atomic.t;  (* undecided/refused answers retried *)
  c_relocated : int Atomic.t;
  c_recertified : int Atomic.t;
  c_recert_mismatch : int Atomic.t;
  c_steals : int Atomic.t;
  c_steal_wins : int Atomic.t;
  c_hb_probes : int Atomic.t;
  c_hb_failures : int Atomic.t;
  c_marked_down : int Atomic.t;
  c_revived : int Atomic.t;
  c_fenced : int Atomic.t;  (* replies refusing our epoch as stale *)
}

let fresh_counters () =
  {
    c_dispatched = Atomic.make 0;
    c_failovers = Atomic.make 0;
    c_shed_retries = Atomic.make 0;
    c_soft_retries = Atomic.make 0;
    c_relocated = Atomic.make 0;
    c_recertified = Atomic.make 0;
    c_recert_mismatch = Atomic.make 0;
    c_steals = Atomic.make 0;
    c_steal_wins = Atomic.make 0;
    c_hb_probes = Atomic.make 0;
    c_hb_failures = Atomic.make 0;
    c_marked_down = Atomic.make 0;
    c_revived = Atomic.make 0;
    c_fenced = Atomic.make 0;
  }

let counters_assoc c =
  [
    ("dispatched", Atomic.get c.c_dispatched);
    ("failovers", Atomic.get c.c_failovers);
    ("shed_retries", Atomic.get c.c_shed_retries);
    ("soft_retries", Atomic.get c.c_soft_retries);
    ("relocated", Atomic.get c.c_relocated);
    ("recertified", Atomic.get c.c_recertified);
    ("recert_mismatch", Atomic.get c.c_recert_mismatch);
    ("steals", Atomic.get c.c_steals);
    ("steal_wins", Atomic.get c.c_steal_wins);
    ("hb_probes", Atomic.get c.c_hb_probes);
    ("hb_failures", Atomic.get c.c_hb_failures);
    ("marked_down", Atomic.get c.c_marked_down);
    ("revived", Atomic.get c.c_revived);
    ("fenced", Atomic.get c.c_fenced);
  ]

let sat_decided (c : E.sweep_cell) =
  match c.E.sat_verdict with E.Undecided _ -> false | _ -> true

(* dispatch-intent record: the handoff audit trail. Foreign to every
   cell reader (Experiments.cell_of_record and the server's cache both
   return None for it), so the journal stays interchangeable. *)
let disp_record ~seed ~key ~worker ~attempt =
  Printf.sprintf "disp|1|seed=%d|key=%s|worker=%d|attempt=%d" seed
    (R.escape key) worker attempt

(* ---- epoch records -------------------------------------------------- *)

(* Leadership marker, written once at the head of each coordinator's
   tenure. Foreign to cell readers, like [disp]. Additionally, when a
   run has a positive epoch every journaled record gets an
   [|epoch=N] suffix — cell records stay interchangeable with
   [mca_check --sweep --resume] because the cell codec ignores fields
   it does not know and its fingerprint covers only semantic fields. *)
let epoch_record ~seed ~epoch =
  Printf.sprintf "epoch|1|seed=%d|epoch=%d" seed epoch

(* the highest [epoch=N] field anywhere in a record, 0 if none — reads
   both epoch markers and stamped cell/disp records *)
let record_epoch line =
  match R.parse line with
  | Some (_kind, fields) ->
      List.fold_left
        (fun acc (k, v) ->
          match int_of_string_opt v with
          | Some e when k = "epoch" -> max acc e
          | _ -> acc)
        0 fields
  | None -> 0

(* the durable epoch floor: the highest epoch recorded in a journal
   file. A restarted coordinator reads this before choosing its own
   epoch, so a crash can never make it reuse one it already spent. *)
let latest_epoch path =
  List.fold_left
    (fun acc line -> max acc (record_epoch line))
    0 (Parallel.Journal.read path).Parallel.Journal.entries

let commit_epoch path ~seed ~epoch =
  let w = Parallel.Journal.open_append path in
  Fun.protect
    ~finally:(fun () -> Parallel.Journal.close w)
    (fun () -> Parallel.Journal.append w (epoch_record ~seed ~epoch))

(* ---- run_sweep ---------------------------------------------------- *)

let run_sweep ?(stop = fun () -> Parallel.Supervise.draining ()) ?scopes cfg =
  if cfg.workers = [] then invalid_arg "Cluster.run_sweep: no workers";
  if cfg.dispatchers < 1 then invalid_arg "Cluster.run_sweep: dispatchers < 1";
  if cfg.max_attempts < 1 then invalid_arg "Cluster.run_sweep: max_attempts < 1";
  if cfg.cl_resume && cfg.cl_journal = None then
    invalid_arg "Cluster.run_sweep: cl_resume without cl_journal";
  if cfg.epoch < 0 then invalid_arg "Cluster.run_sweep: negative epoch";
  if cfg.repl_listen <> None && cfg.cl_journal = None then
    invalid_arg "Cluster.run_sweep: repl_listen without cl_journal";
  let t0 = Netsim.Clock.now () in
  let tasks = E.sweep_tasks ?scopes () in
  let workers = Array.of_list cfg.workers in
  let n_workers = Array.length workers in
  let states =
    Array.map
      (fun a -> { w_addr = a; w_fails = Atomic.make 0; w_down = Atomic.make false })
      workers
  in
  let ring = Shard.make ~points:cfg.ring_points n_workers in
  let ctr = fresh_counters () in

  (* resume: journaled cells (same seed, digest-checked) short-circuit
     their slots, exactly as in the single-process sweep *)
  let resumed =
    match (cfg.cl_resume, cfg.cl_journal) with
    | true, Some path -> E.load_journal ~seed:cfg.seed path
    | _ -> Hashtbl.create 1
  in
  let writer =
    Option.map
      (fun p -> Parallel.Journal.open_append ~flush_every:cfg.cl_flush_every p)
      cfg.cl_journal
  in
  (* Deposition: set on the first [fenced] reply. The commit gate runs
     under the journal lock, so once the flag is observed here no
     further record — cell or dispatch intent — can reach the file:
     everything a deposed coordinator computes after the refusal dies
     in memory, which is the journal half of the split-brain
     argument (the worker half is the epoch watermark). *)
  let deposed = Atomic.make false in
  let deposed_by = Atomic.make 0 in
  let journal_lock = Mutex.create () in
  let journal_raw line =
    match writer with
    | None -> ()
    | Some w ->
        Mutex.protect journal_lock (fun () ->
            if not (Atomic.get deposed) then Parallel.Journal.append w line)
  in
  let journal line =
    journal_raw
      (if cfg.epoch > 0 then
         Printf.sprintf "%s|epoch=%d" line cfg.epoch
       else line)
  in
  if cfg.epoch > 0 then journal_raw (epoch_record ~seed:cfg.seed ~epoch:cfg.epoch);
  let publisher =
    match (cfg.repl_listen, cfg.cl_journal) with
    | Some addr, Some path ->
        Some (Repl.start_publisher ~addr ~journal:path ~epoch:cfg.epoch)
    | _ -> None
  in

  let slots =
    Array.mapi
      (fun i ((label, _, _, tag, _) as task) ->
        let key = tag ^ "/" ^ label in
        let route = Shard.route ring key in
        let slot =
          {
            s_index = i;
            s_task = task;
            s_key = key;
            s_route = route;
            s_primary = (match route with w :: _ -> w | [] -> 0);
            s_started = 0.0;
            s_attempting = Atomic.make (-1);
            s_steal_guard = Atomic.make false;
            s_result = Atomic.make None;
          }
        in
        (match Hashtbl.find_opt resumed (tag, label) with
        | Some cell ->
            Atomic.set slot.s_result
              (Some { d_cell = cell; d_worker = -1; d_relocated = false })
        | None -> ());
        slot)
      tasks
  in
  let total = Array.length slots in
  let completed =
    Atomic.make
      (Array.fold_left
         (fun acc s -> if Atomic.get s.s_result <> None then acc + 1 else acc)
         0 slots)
  in
  let resumed_count = Atomic.get completed in
  let all_done () = Atomic.get completed >= total in

  (* ---- worker liveness evidence ---- *)
  let worker_fail w =
    let f = Atomic.fetch_and_add states.(w).w_fails 1 + 1 in
    if f >= cfg.down_after then
      if not (Atomic.exchange states.(w).w_down true) then
        Atomic.incr ctr.c_marked_down
  in
  let worker_ok w =
    Atomic.set states.(w).w_fails 0;
    if Atomic.exchange states.(w).w_down false then Atomic.incr ctr.c_revived
  in

  (* ---- announce the epoch before dispatching anything ---- *)
  (* Fence-first ordering is what makes takeover safe: by the time this
     coordinator asks any worker for work, every reachable worker's
     watermark is at [cfg.epoch], so a deposed predecessor's next
     request meets a refusal there. A worker that cannot be reached is
     ordinary failure evidence — if it comes back it learns the epoch
     from our first stamped request instead. *)
  if cfg.epoch > 0 then
    Array.iteri
      (fun i w ->
        match
          Client.fence ~timeout_s:(Float.min cfg.timeout_s 2.0) w.w_addr
            ~epoch:cfg.epoch
        with
        | Ok _ -> worker_ok i
        | Result.Error _ -> worker_fail i)
      states;

  (* ---- certified relocation re-check ---- *)
  let shared_lock = Mutex.create () in
  let shared_tbl : (string * int, M.shared) Hashtbl.t = Hashtbl.create 4 in
  let shared_for tag scope target =
    Mutex.protect shared_lock (fun () ->
        match Hashtbl.find_opt shared_tbl (tag, target) with
        | Some sh -> sh
        | None ->
            let sh = M.build_shared ~target M.Efficient scope in
            Hashtbl.add shared_tbl (tag, target) sh;
            sh)
  in
  let recertify slot =
    let _, _, mpolicy, tag, scope = slot.s_task in
    let target = min mpolicy.M.target scope.M.vnodes in
    match
      (* a throwaway certified session: opened for this cell, solved
         once, its verdict checked, dropped *)
      let sh = shared_for tag scope target in
      let sn = M.incremental_session ~certify:true sh in
      let v =
        M.check_consensus_incremental ~budget:Netsim.Budget.unlimited sn
          { mpolicy with M.target }
      in
      ignore (M.certify sn);
      E.verdict_of_sat v
    with
    | E.Undecided _ | (exception _) -> None
    | v -> Some v
  in

  (* ---- accepting a cell (first result wins) ---- *)
  let accept slot ~worker ~stolen cell =
    let relocated = worker >= 0 && worker <> slot.s_primary in
    let cell, recert =
      if relocated && cfg.verify_relocated && sat_decided cell then
        match recertify slot with
        | Some v when v = cell.E.sat_verdict -> (cell, `Confirmed)
        | Some v ->
            (* the locally DRUP-certified answer wins over the remote one *)
            ({ cell with E.sat_verdict = v }, `Mismatch)
        | None -> (cell, `Unavailable)
      else (cell, `Skipped)
    in
    if
      Atomic.compare_and_set slot.s_result None
        (Some { d_cell = cell; d_worker = worker; d_relocated = relocated })
    then begin
      Atomic.incr completed;
      if relocated then Atomic.incr ctr.c_relocated;
      (match recert with
      | `Confirmed -> Atomic.incr ctr.c_recertified
      | `Mismatch -> Atomic.incr ctr.c_recert_mismatch
      | `Unavailable | `Skipped -> ());
      if stolen then Atomic.incr ctr.c_steal_wins;
      if E.cell_decided cell then journal (E.cell_record ~seed:cfg.seed cell);
      true
    end
    else false
  in

  (* ---- one attempt against one worker ---- *)
  let request_of slot ~id_suffix =
    let label, _, _, _, scope = slot.s_task in
    Wire.request
      ~id:(Printf.sprintf "c%d%s" slot.s_index id_suffix)
      ~agents:scope.M.pnodes ~items:scope.M.vnodes ~states:scope.M.states
      ~values:scope.M.values ~seed:cfg.seed ~deadline_s:cfg.deadline_s
      ?epoch:(if cfg.epoch > 0 then Some cfg.epoch else None)
      label
  in
  let cell_of_reply slot (v : Wire.verdict_reply) =
    let label, _, _, tag, _ = slot.s_task in
    {
      E.policy_label = label;
      scope_tag = tag;
      sat_verdict = v.Wire.sat;
      sim_ok = v.Wire.sim_ok;
      exhaustive = v.Wire.exhaustive;
      cell_seconds = v.Wire.secs;
      origin = E.Computed;
    }
  in
  let try_worker slot w ~id_suffix ~stolen =
    Atomic.set slot.s_attempting w;
    slot.s_started <- Netsim.Clock.now ();
    Atomic.incr ctr.c_dispatched;
    let outcome =
      match
        Client.check ~timeout_s:cfg.timeout_s states.(w).w_addr
          (request_of slot ~id_suffix)
      with
      | Ok (Wire.Verdict v) ->
          worker_ok w;
          let cell = cell_of_reply slot v in
          if E.cell_decided cell then begin
            ignore (accept slot ~worker:w ~stolen cell);
            `Accepted
          end
          else
            (* the worker answered but ran out of budget or was
               draining: a sibling may do better — soft failure *)
            `Soft cell
      | Ok (Wire.Shed _) ->
          worker_ok w;
          `Shed
      | Ok (Wire.Error { msg; _ }) ->
          worker_ok w;
          `Refused msg
      | Ok (Wire.Fenced { fenced_epoch; _ }) ->
          (* the worker answered — it is alive — but a coordinator with
             a newer epoch owns the fleet now. This run is over. *)
          worker_ok w;
          Atomic.incr ctr.c_fenced;
          let rec bump () =
            let cur = Atomic.get deposed_by in
            if fenced_epoch > cur && not (Atomic.compare_and_set deposed_by cur fenced_epoch)
            then bump ()
          in
          bump ();
          Atomic.set deposed true;
          `Fenced
      | Ok
          ( Wire.Stats _ | Wire.Spec _ | Wire.Quota _ | Wire.Bad_spec _
          | Wire.Repl_ack _ | Wire.Repl_frame _ ) ->
          `Transport "unexpected reply kind to check"
      | Result.Error msg ->
          worker_fail w;
          `Transport msg
    in
    Atomic.set slot.s_attempting (-1);
    outcome
  in

  (* ---- failover routing ---- *)
  let pick_worker slot ~attempt ~avoid =
    let healthy =
      List.filter (fun w -> not (Atomic.get states.(w).w_down)) slot.s_route
    in
    let candidates =
      match List.filter (fun w -> Some w <> avoid) healthy with
      | [] -> healthy  (* nobody else: retry the avoided worker *)
      | l -> l
    in
    match candidates with
    | [] -> None
    | l -> Some (List.nth l ((attempt - 1) mod List.length l))
  in

  (* ---- the per-slot dispatch loop ---- *)
  let halted () = stop () || Atomic.get deposed in
  let dispatch_slot slot =
    if Atomic.get slot.s_result = None && not (Atomic.get deposed) then begin
      if cfg.cl_throttle_s > 0.0 then Unix.sleepf cfg.cl_throttle_s;
      let rng =
        Netsim.Backoff.stream ~seed:cfg.seed ~key:("cluster/" ^ slot.s_key)
      in
      let last_soft = ref None in
      let rec go attempt ~avoid =
        if Atomic.get slot.s_result <> None || halted () then ()
        else if attempt > cfg.max_attempts then
          (* report the fleet's last honest answer, not a fabricated one *)
          let cell =
            match !last_soft with
            | Some c -> { c with E.origin = E.Quarantined }
            | None ->
                E.undecided_cell ~origin:E.Quarantined
                  ~reason:
                    (Printf.sprintf "cluster: no answer after %d attempts"
                       cfg.max_attempts)
                  slot.s_task
          in
          ignore (accept slot ~worker:(-1) ~stolen:false cell)
        else begin
          let retry ?failed () =
            Unix.sleepf (Netsim.Backoff.delay cfg.backoff ~rng ~attempt);
            go (attempt + 1) ~avoid:failed
          in
          match pick_worker slot ~attempt ~avoid with
          | None ->
              (* the whole fleet looks down; wait out a backoff — the
                 heartbeat may revive someone *)
              retry ()
          | Some w -> (
              journal (disp_record ~seed:cfg.seed ~key:slot.s_key ~worker:w ~attempt);
              match try_worker slot w ~id_suffix:(Printf.sprintf "-a%d" attempt) ~stolen:false with
              | `Accepted -> ()
              | `Fenced -> ()  (* deposed: the successor owns this cell *)
              | `Soft cell ->
                  last_soft := Some cell;
                  Atomic.incr ctr.c_soft_retries;
                  retry ~failed:w ()
              | `Shed ->
                  Atomic.incr ctr.c_shed_retries;
                  retry ~failed:w ()
              | `Refused msg ->
                  last_soft :=
                    Some
                      (E.undecided_cell ~origin:E.Computed
                         ~reason:("cluster: worker refused: " ^ msg)
                         slot.s_task);
                  Atomic.incr ctr.c_soft_retries;
                  retry ~failed:w ()
              | `Transport _ ->
                  Atomic.incr ctr.c_failovers;
                  retry ~failed:w ())
        end
      in
      go 1 ~avoid:None
    end
  in

  (* ---- work stealing ---- *)
  let steal_pass () =
    let now = Netsim.Clock.now () in
    let best = ref None in
    Array.iter
      (fun slot ->
        if
          Atomic.get slot.s_result = None
          && Atomic.get slot.s_attempting >= 0
          && (not (Atomic.get slot.s_steal_guard))
          && now -. slot.s_started >= cfg.steal_after_s
        then
          match !best with
          | Some b when b.s_started <= slot.s_started -> ()
          | _ -> best := Some slot)
      slots;
    match !best with
    | None -> false
    | Some slot ->
        if Atomic.compare_and_set slot.s_steal_guard false true then begin
          let victim = Atomic.get slot.s_attempting in
          (match
             List.filter
               (fun w -> w <> victim && not (Atomic.get states.(w).w_down))
               slot.s_route
           with
          | [] -> ()
          | w :: _ ->
              Atomic.incr ctr.c_steals;
              journal (disp_record ~seed:cfg.seed ~key:slot.s_key ~worker:w ~attempt:0);
              (* first verdict wins the CAS; a failed steal changes
                 nothing — the original attempt is still running *)
              ignore (try_worker slot w ~id_suffix:"-steal" ~stolen:true));
          Atomic.set slot.s_steal_guard false;
          true
        end
        else false
  in

  (* ---- domains ---- *)
  let next = Atomic.make 0 in
  let dispatcher () =
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        dispatch_slot slots.(i);
        drain ()
      end
    in
    drain ();
    (* queue empty: help stragglers until the sweep is complete *)
    let rec steal_loop () =
      if all_done () || halted () then ()
      else begin
        if not (steal_pass ()) then Unix.sleepf 0.02;
        steal_loop ()
      end
    in
    steal_loop ()
  in
  let hb_stop = Atomic.make false in
  let heartbeat () =
    if cfg.heartbeat_s > 0.0 then
      while not (Atomic.get hb_stop) do
        Array.iteri
          (fun i w ->
            if not (Atomic.get hb_stop) then begin
              Atomic.incr ctr.c_hb_probes;
              match
                Client.get_stats ~timeout_s:(Float.min cfg.timeout_s 2.0)
                  w.w_addr
              with
              | Ok _ -> worker_ok i
              | Result.Error _ ->
                  Atomic.incr ctr.c_hb_failures;
                  worker_fail i
            end)
          states;
        let until = Netsim.Clock.now () +. cfg.heartbeat_s in
        while (not (Atomic.get hb_stop)) && Netsim.Clock.now () < until do
          Unix.sleepf 0.05
        done
      done
  in
  let dispatchers =
    List.init cfg.dispatchers (fun _ -> Domain.spawn dispatcher)
  in
  let hb = Domain.spawn heartbeat in
  List.iter Domain.join dispatchers;
  Atomic.set hb_stop true;
  Domain.join hb;
  (match writer with Some w -> Parallel.Journal.close w | None -> ());
  (* the standby gets one last chance to pull everything the close just
     flushed; stopping the publisher before the writer would strand the
     final group-commit batch on our disk only *)
  (match publisher with Some p -> Repl.stop_publisher p | None -> ());

  (* ---- collect, in task order ---- *)
  let cells =
    Array.to_list
      (Array.map
         (fun slot ->
           match Atomic.get slot.s_result with
           | Some d -> d.d_cell
           | None ->
               E.undecided_cell ~origin:E.Skipped ~reason:"drained" slot.s_task)
         slots)
  in
  let partial = List.exists (fun c -> c.E.origin = E.Skipped) cells in
  {
    sweep =
      {
        E.sweep_jobs = cfg.dispatchers;
        sweep_seed = cfg.seed;
        cells;
        sweep_wall = Netsim.Clock.now () -. t0;
        sweep_resumed = resumed_count;
        sweep_partial = partial;
      };
    cluster_stats = counters_assoc ctr;
    worker_up =
      Array.to_list (Array.map (fun w -> not (Atomic.get w.w_down)) states);
    cl_epoch = max cfg.epoch (Atomic.get deposed_by);
    deposed = Atomic.get deposed;
  }

let fleet_stats ?timeout_s addrs =
  List.mapi (fun i a -> (i, Client.get_stats ?timeout_s a)) addrs

(* ---- warm standby --------------------------------------------------- *)

type standby_config = {
  sb_cluster : config;
      (* the configuration the standby runs the sweep with at takeover.
         [cl_journal] is the *replica* journal path (required — it is
         what replication fills and what the takeover resumes from).
         [epoch] here is a floor of epochs known to be spent (e.g. read
         from an epoch journal with {!latest_epoch}), not an epoch to
         run at: the takeover epoch is one past the highest epoch seen
         anywhere — floor, replication acks, replicated records. *)
  sb_source : Server.addr;
  sb_poll_s : float;
  sb_lease_s : float;
  sb_down_after : int;
}

let default_standby ~source cluster =
  {
    sb_cluster = cluster;
    sb_source = source;
    sb_poll_s = 0.05;
    sb_lease_s = 1.0;
    sb_down_after = 3;
  }

type standby_outcome =
  | Took_over of {
      takeover_epoch : int;
      replicated : int;  (* records in the replica at takeover *)
      takeover_latency_s : float;  (* last successful pull -> takeover *)
      report : report;
    }
  | Standby_drained of { replicated : int }

(* The standby loop: pull, append, watch the lease.

   Liveness is evidence-based, exactly like the coordinator's view of
   its workers: only *observed* failed pulls count, and takeover
   additionally requires the lease — a wall-clock span since the last
   successful pull — to have elapsed. Both conditions together mean a
   merely slow primary (one long GC pause, one dropped connection)
   cannot trigger a takeover by itself; a partitioned or dead one
   cannot avoid it. Split-brain safety does NOT rest on this detector
   being right — it may fire against a partitioned-but-alive primary —
   but on epoch fencing: the takeover sweep runs at an epoch strictly
   above anything the old primary ever held, fences every worker
   first, and the old primary's next dispatch meets [fenced] refusals
   and deposes itself without committing another record. *)
let run_standby ?(stop = fun () -> Parallel.Supervise.draining ()) ?scopes
    ?(on_replicated = fun (_ : int) -> ()) sb =
  let cfg = sb.sb_cluster in
  let path =
    match cfg.cl_journal with
    | Some p -> p
    | None -> invalid_arg "Cluster.run_standby: sb_cluster.cl_journal required"
  in
  if sb.sb_poll_s <= 0.0 then invalid_arg "Cluster.run_standby: sb_poll_s <= 0";
  if sb.sb_down_after < 1 then
    invalid_arg "Cluster.run_standby: sb_down_after < 1";
  (* resume an existing replica; recover truncates a torn tail we could
     only have if a previous standby died mid-append (pulls themselves
     only ever deliver whole verified records) *)
  let existing = (Parallel.Journal.recover path).Parallel.Journal.entries in
  let count = ref (List.length existing) in
  let epoch_seen =
    ref
      (List.fold_left
         (fun acc l -> max acc (record_epoch l))
         (max 0 cfg.epoch) existing)
  in
  let w = Parallel.Journal.open_append ~flush_every:1 path in
  let closed = ref false in
  let close_writer () =
    if not !closed then begin
      closed := true;
      Parallel.Journal.close w
    end
  in
  let fails = ref 0 in
  let last_ok = ref (Netsim.Clock.now ()) in
  let rec loop () =
    if stop () then begin
      close_writer ();
      Standby_drained { replicated = !count }
    end
    else begin
      (match
         Repl.pull
           ~timeout_s:(Float.max sb.sb_poll_s 1.0)
           sb.sb_source ~from:!count
       with
      | Ok p ->
          fails := 0;
          last_ok := Netsim.Clock.now ();
          epoch_seen := max !epoch_seen p.Repl.pulled_epoch;
          List.iter
            (fun r ->
              Parallel.Journal.append w r;
              epoch_seen := max !epoch_seen (record_epoch r);
              incr count)
            p.Repl.pulled_records;
          on_replicated !count
      | Result.Error _ -> incr fails);
      let now = Netsim.Clock.now () in
      if !fails >= sb.sb_down_after && now -. !last_ok >= sb.sb_lease_s then begin
        close_writer ();
        let takeover_epoch = !epoch_seen + 1 in
        let latency = now -. !last_ok in
        let report =
          run_sweep ~stop ?scopes
            { cfg with cl_resume = true; epoch = takeover_epoch }
        in
        Took_over
          { takeover_epoch; replicated = !count; takeover_latency_s = latency; report }
      end
      else begin
        Unix.sleepf sb.sb_poll_s;
        loop ()
      end
    end
  in
  loop ()
