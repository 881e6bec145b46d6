type config = {
  graph : Netsim.Graph.t;
  num_items : int;
  base_utilities : int array array;
  policies : Policy.t array;
}

let uniform_config ~graph ~num_items ~base_utilities ~policy =
  let n = Netsim.Graph.num_nodes graph in
  if Array.length base_utilities <> n then
    invalid_arg "Protocol.uniform_config: one utility row per agent required";
  Array.iter
    (fun row ->
      if Array.length row <> num_items then
        invalid_arg "Protocol.uniform_config: utility row length mismatch")
    base_utilities;
  { graph; num_items; base_utilities; policies = Array.make n policy }

type allocation = Types.winner array

type verdict =
  | Converged of { rounds : int; messages : int; allocation : allocation }
  | Oscillating of { rounds : int; messages : int; cycle_length : int }
  | Exhausted of { rounds : int; messages : int }

let make_agents cfg =
  let n = Netsim.Graph.num_nodes cfg.graph in
  if Array.length cfg.policies <> n then
    invalid_arg "Protocol: one policy per agent required";
  Array.init n (fun i ->
      Agent.create ~id:i ~num_items:cfg.num_items
        ~base_utility:cfg.base_utilities.(i) ~policy:cfg.policies.(i))

(* Whether agents [i ..] all hold the view of agent 0. *)
let rec agree_from agents i =
  i >= Array.length agents
  || Types.view_equal (Agent.view agents.(0)) (Agent.view agents.(i))
     && agree_from agents (i + 1)

let consensus_reached agents = agree_from agents 1

let conflict_free agents =
  let claimed = Hashtbl.create 16 in
  Array.for_all
    (fun a ->
      List.for_all
        (fun j ->
          if Hashtbl.mem claimed j then false
          else begin
            Hashtbl.add claimed j ();
            true
          end)
        (Agent.bundle a))
    agents

let allocation_of agents num_items =
  let alloc = Array.make num_items Types.Nobody in
  if Array.length agents > 0 then begin
    let view = Agent.view agents.(0) in
    Array.iteri (fun j (e : Types.entry) -> alloc.(j) <- e.Types.winner) view
  end;
  alloc

let network_utility cfg alloc =
  let total = ref 0 in
  Array.iteri
    (fun j w ->
      match w with
      | Types.Agent i -> total := !total + cfg.base_utilities.(i).(j)
      | Types.Nobody -> ())
    alloc;
  !total

let maybe_record record agents =
  match record with Some t -> Trace.record t agents | None -> ()

let run_sync ?(max_rounds = 200) ?(budget = Netsim.Budget.unlimited) ?record
    cfg =
  let agents = make_agents cfg in
  let seen = Hashtbl.create 64 in
  let messages = ref 0 in
  let rec loop round =
    if
      round >= max_rounds
      || Netsim.Budget.check ~steps:round ~conflicts:0 ~propagations:0 budget <> Netsim.Budget.Within
    then Exhausted { rounds = round; messages = !messages }
    else begin
      let changed = ref false in
      Array.iter (fun a -> if Agent.bid_phase a then changed := true) agents;
      maybe_record record agents;
      (* simultaneous exchange: snapshot all views first *)
      let snaps = Array.map Agent.snapshot agents in
      List.iter
        (fun (u, w) ->
          let deliver src dst =
            incr messages;
            if
              Agent.receive agents.(dst)
                { Types.sender = src; view = snaps.(src) }
            then changed := true
          in
          deliver u w;
          deliver w u)
        (Netsim.Graph.edges cfg.graph);
      maybe_record record agents;
      if not !changed then
        Converged
          {
            rounds = round + 1;
            messages = !messages;
            allocation = allocation_of agents cfg.num_items;
          }
      else begin
        let fp = Trace.fingerprint agents in
        match Hashtbl.find_opt seen fp with
        | Some prev ->
            Oscillating
              {
                rounds = round + 1;
                messages = !messages;
                cycle_length = round + 1 - prev;
              }
        | None ->
            Hashtbl.add seen fp (round + 1);
            loop (round + 1)
      end
    end
  in
  loop 0

let run_async ?(max_steps = 10_000) ?(sched = Netsim.Sched.Fifo)
    ?(budget = Netsim.Budget.unlimited) ?record cfg =
  let agents = make_agents cfg in
  let buffer = Netsim.Sched.create sched in
  let deterministic =
    match sched with
    | Netsim.Sched.Fifo | Netsim.Sched.Lifo -> true
    | Netsim.Sched.Random_order _ -> false
  in
  let seen = Hashtbl.create 64 in
  let broadcast i =
    let snap = Agent.snapshot agents.(i) in
    List.iter
      (fun nb -> Netsim.Sched.send buffer ~src:i ~dst:nb snap)
      (Netsim.Graph.neighbors cfg.graph i)
  in
  (* initial bidding and broadcast *)
  Array.iteri
    (fun i a ->
      ignore (Agent.bid_phase a);
      broadcast i)
    agents;
  maybe_record record agents;
  let rec loop steps =
    if
      steps >= max_steps
      || Netsim.Budget.check ~steps ~conflicts:0 ~propagations:0 budget <> Netsim.Budget.Within
    then
      Exhausted { rounds = steps; messages = Netsim.Sched.total_sent buffer }
    else
      match Netsim.Sched.deliver buffer with
      | None ->
          (* quiescent: one more bidding opportunity everywhere, and if
             views still disagree an anti-entropy full exchange (agents
             only re-broadcast on change, so a message crossing a
             concurrent update can leave stale entries behind) *)
          let changed = ref false in
          Array.iteri
            (fun i a ->
              if Agent.bid_phase a then begin
                changed := true;
                broadcast i
              end)
            agents;
          if !changed then loop steps
          else if not (consensus_reached agents) then begin
            Array.iteri (fun i _ -> broadcast i) agents;
            loop steps
          end
          else
            Converged
              {
                rounds = steps;
                messages = Netsim.Sched.total_sent buffer;
                allocation = allocation_of agents cfg.num_items;
              }
      | Some { Netsim.Sched.src; dst; payload } ->
          let changed =
            Agent.receive agents.(dst) { Types.sender = src; view = payload }
          in
          let rebid = Agent.bid_phase agents.(dst) in
          if changed || rebid then broadcast dst;
          maybe_record record agents;
          if deterministic && (changed || rebid) then begin
            let pending =
              List.map
                (fun { Netsim.Sched.src; dst; payload } -> (src, dst, payload))
                (Netsim.Sched.pending_list buffer)
            in
            let fp = Trace.fingerprint_with_messages agents pending in
            match Hashtbl.find_opt seen fp with
            | Some prev ->
                Oscillating
                  {
                    rounds = steps + 1;
                    messages = Netsim.Sched.total_sent buffer;
                    cycle_length = steps + 1 - prev;
                  }
            | None ->
                Hashtbl.add seen fp (steps + 1);
                loop (steps + 1)
          end
          else loop (steps + 1)
  in
  loop 0

(* Faulty-environment driver. Differences from [run_async]:
   - every send goes through the fault plan (drop/duplicate/delay/
     partition windows), so delivery is best-effort;
   - liveness is recovered by retransmission: each agent re-broadcasts
     its view on a deterministic binary-backoff timer (reset to the base
     interval whenever its local state changes);
   - agents crash and restart per the plan's schedule; a restarted agent
     rejoins with empty local state and must re-converge;
   - cycle detection is off (the environment is randomized, so a
     revisited protocol state is not a livelock witness): verdicts are
     [Converged] or [Exhausted]. *)
let run_faulty ?(max_steps = 50_000) ?(sched = Netsim.Sched.Fifo)
    ?(budget = Netsim.Budget.unlimited) ?record ?(retx_base = 8)
    ?(retx_cap = 128) ~faults cfg =
  if retx_base < 1 || retx_cap < retx_base then
    invalid_arg "Protocol.run_faulty: need 1 <= retx_base <= retx_cap";
  let plan = faults in
  let f = Netsim.Faults.start plan in
  let agents = make_agents cfg in
  let n = Array.length agents in
  let buffer = Netsim.Sched.create ~faults:f sched in
  let down = Array.make n false in
  let crashes = plan.Netsim.Faults.crashes in
  let crash_done = Array.make (List.length crashes) false in
  let restart_done = Array.make (List.length crashes) false in
  let next_retx = Array.make n retx_base in
  let backoff = Array.make n retx_base in
  let broadcast t i =
    let snap = Agent.snapshot agents.(i) in
    List.iter
      (fun nb -> Netsim.Sched.send buffer ~src:i ~dst:nb snap)
      (Netsim.Graph.neighbors cfg.graph i);
    next_retx.(i) <- t + backoff.(i)
  in
  let apply_crashes t =
    List.iteri
      (fun idx (c : Netsim.Faults.crash) ->
        let valid = c.Netsim.Faults.agent >= 0 && c.Netsim.Faults.agent < n in
        if (not crash_done.(idx)) && c.Netsim.Faults.crash_at <= t then begin
          crash_done.(idx) <- true;
          if valid then begin
            down.(c.Netsim.Faults.agent) <- true;
            Netsim.Faults.note_crash f ~time:t ~agent:c.Netsim.Faults.agent
          end
        end;
        match c.Netsim.Faults.restart_at with
        | Some r when crash_done.(idx) && (not restart_done.(idx)) && r <= t ->
            restart_done.(idx) <- true;
            if valid then begin
              let a = c.Netsim.Faults.agent in
              down.(a) <- false;
              agents.(a) <-
                Agent.create ~id:a ~num_items:cfg.num_items
                  ~base_utility:cfg.base_utilities.(a) ~policy:cfg.policies.(a);
              Netsim.Faults.note_restart f ~time:t ~agent:a;
              ignore (Agent.bid_phase agents.(a));
              backoff.(a) <- retx_base;
              broadcast t a
            end
        | _ -> ())
      crashes
  in
  let fire_retx t =
    for i = 0 to n - 1 do
      if (not down.(i)) && next_retx.(i) <= t then begin
        backoff.(i) <- min retx_cap (2 * backoff.(i));
        broadcast t i
      end
    done
  in
  let live () =
    Array.of_seq
      (Seq.filter_map
         (fun i -> if down.(i) then None else Some agents.(i))
         (Seq.init n Fun.id))
  in
  (* earliest strictly-future scheduled event: a live retransmission
     timer, or an unapplied crash/restart *)
  let next_event_after t =
    let best = ref None in
    let consider t' =
      if t' > t then
        match !best with
        | Some b when b <= t' -> ()
        | _ -> best := Some t'
    in
    for i = 0 to n - 1 do
      if not down.(i) then consider next_retx.(i)
    done;
    List.iteri
      (fun idx (c : Netsim.Faults.crash) ->
        if not crash_done.(idx) then consider c.Netsim.Faults.crash_at;
        match c.Netsim.Faults.restart_at with
        | Some r when not restart_done.(idx) -> consider r
        | _ -> ())
      crashes;
    !best
  in
  let sched_events_pending () =
    List.exists
      (fun i ->
        (not crash_done.(i))
        || ((not restart_done.(i))
           && (List.nth crashes i).Netsim.Faults.restart_at <> None))
      (List.init (List.length crashes) Fun.id)
  in
  let exhausted steps =
    Exhausted { rounds = steps; messages = Netsim.Sched.total_sent buffer }
  in
  apply_crashes 0;
  Array.iteri
    (fun i a ->
      if not down.(i) then begin
        ignore (Agent.bid_phase a);
        broadcast 0 i
      end)
    agents;
  maybe_record record agents;
  let rec loop steps =
    if
      steps >= max_steps
      || Netsim.Budget.check ~steps ~conflicts:0 ~propagations:0 budget <> Netsim.Budget.Within
    then exhausted steps
    else begin
      apply_crashes steps;
      fire_retx steps;
      match Netsim.Sched.deliver buffer with
      | Some { Netsim.Sched.src; dst; payload } ->
          if down.(dst) then begin
            Netsim.Faults.note_to_down f ~time:steps ~src ~dst;
            loop (steps + 1)
          end
          else begin
            let changed =
              Agent.receive agents.(dst) { Types.sender = src; view = payload }
            in
            let rebid = Agent.bid_phase agents.(dst) in
            if changed || rebid then begin
              backoff.(dst) <- retx_base;
              broadcast steps dst
            end;
            maybe_record record agents;
            loop (steps + 1)
          end
      | None ->
          let changed = ref false in
          Array.iteri
            (fun i a ->
              if (not down.(i)) && Agent.bid_phase a then begin
                changed := true;
                backoff.(i) <- retx_base;
                broadcast steps i
              end)
            agents;
          if !changed then loop (steps + 1)
          else if
            consensus_reached (live ())
            && Netsim.Sched.pending buffer = 0
            && not (sched_events_pending ())
          then begin
            maybe_record record agents;
            Converged
              {
                rounds = steps;
                messages = Netsim.Sched.total_sent buffer;
                allocation = allocation_of (live ()) cfg.num_items;
              }
          end
          else begin
            (* quiet network, no agreement yet: fast-forward to the next
               retransmission timer or crash-schedule event *)
            match next_event_after steps with
            | Some t' -> loop (min t' max_steps)
            | None -> exhausted steps
          end
    end
  in
  let verdict = loop 1 in
  (match record with
  | Some tr -> List.iter (Trace.record_fault tr) (Netsim.Faults.events f)
  | None -> ());
  (verdict, f)

let pp_allocation ppf alloc =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (j, w) -> Format.fprintf ppf "%d->%a" j Types.pp_winner w))
    (Array.to_list (Array.mapi (fun j w -> (j, w)) alloc))

let pp_verdict ppf = function
  | Converged { rounds; messages; allocation } ->
      Format.fprintf ppf "converged in %d rounds, %d messages, allocation %a"
        rounds messages pp_allocation allocation
  | Oscillating { rounds; messages; cycle_length } ->
      Format.fprintf ppf "OSCILLATING (cycle length %d) after %d rounds, %d messages"
        cycle_length rounds messages
  | Exhausted { rounds; messages } ->
      Format.fprintf ppf "exhausted budget after %d rounds, %d messages" rounds
        messages
