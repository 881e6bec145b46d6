(* Tests for the network substrate: deterministic RNG, graphs, topology
   generators, shortest/k-shortest paths and the message scheduler. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Netsim.Rng.create 42 and b = Netsim.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Netsim.Rng.int a 1000) (Netsim.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Netsim.Rng.create 42 in
  let c = Netsim.Rng.split a in
  let x = Netsim.Rng.int c 1000000 in
  let a' = Netsim.Rng.create 42 in
  let c' = Netsim.Rng.split a' in
  check_int "split reproducible" x (Netsim.Rng.int c' 1000000)

let test_rng_bounds () =
  let rng = Netsim.Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Netsim.Rng.int rng 10 in
    check "in range" true (x >= 0 && x < 10);
    let y = Netsim.Rng.int_in rng 5 8 in
    check "int_in range" true (y >= 5 && y <= 8);
    let f = Netsim.Rng.float rng 2.0 in
    check "float range" true (f >= 0.0 && f < 2.0)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Netsim.Rng.int rng 0))

let test_rng_permutation () =
  let rng = Netsim.Rng.create 3 in
  let p = Netsim.Rng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* ---- Graph ---- *)

let test_graph_basics () =
  let g = Netsim.Graph.create 4 [ (0, 1); (1, 2); (1, 0) ] in
  check_int "nodes" 4 (Netsim.Graph.num_nodes g);
  check_int "duplicate edges merged" 2 (Netsim.Graph.num_edges g);
  check "has edge" true (Netsim.Graph.has_edge g 2 1);
  check "no edge" false (Netsim.Graph.has_edge g 0 3);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (Netsim.Graph.neighbors g 1);
  check_int "degree" 2 (Netsim.Graph.degree g 1)

let test_graph_rejects_bad_edges () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop 1")
    (fun () -> ignore (Netsim.Graph.create 3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: edge (0,9) out of range") (fun () ->
      ignore (Netsim.Graph.create 3 [ (0, 9) ]))

let test_graph_connectivity_and_diameter () =
  check "line connected" true (Netsim.Graph.is_connected (Netsim.Topology.line 5));
  check_int "line diameter" 4 (Netsim.Graph.diameter (Netsim.Topology.line 5));
  check_int "ring diameter" 3 (Netsim.Graph.diameter (Netsim.Topology.ring 6));
  check_int "clique diameter" 1 (Netsim.Graph.diameter (Netsim.Topology.clique 5));
  check_int "star diameter" 2 (Netsim.Graph.diameter (Netsim.Topology.star 6));
  let disconnected = Netsim.Graph.create 4 [ (0, 1); (2, 3) ] in
  check "disconnected" false (Netsim.Graph.is_connected disconnected);
  Alcotest.check_raises "diameter of disconnected"
    (Invalid_argument "Graph.diameter: disconnected graph") (fun () ->
      ignore (Netsim.Graph.diameter disconnected))

let test_graph_bfs () =
  let g = Netsim.Topology.line 5 in
  let d = Netsim.Graph.bfs_distances g 0 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |] (Array.sub d 0 5)

let test_graph_shortest_path () =
  let g = Netsim.Topology.ring 6 in
  (match Netsim.Graph.shortest_path g 0 3 with
  | Some p -> check_int "ring path length" 4 (List.length p)
  | None -> Alcotest.fail "path must exist");
  let disconnected = Netsim.Graph.create 4 [ (0, 1) ] in
  check "no path" true (Netsim.Graph.shortest_path disconnected 0 3 = None)

let test_subgraph () =
  let g = Netsim.Topology.clique 5 in
  let sub, back = Netsim.Graph.subgraph g [ 1; 3; 4 ] in
  check_int "sub nodes" 3 (Netsim.Graph.num_nodes sub);
  check_int "sub edges" 3 (Netsim.Graph.num_edges sub);
  Alcotest.(check (array int)) "back map" [| 1; 3; 4 |] back

let test_grid () =
  let g = Netsim.Topology.grid 3 4 in
  check_int "grid nodes" 12 (Netsim.Graph.num_nodes g);
  check_int "grid edges" 17 (Netsim.Graph.num_edges g);
  check_int "grid diameter" 5 (Netsim.Graph.diameter g)

let qcheck_er_connected =
  QCheck.Test.make ~count:40 ~name:"erdos_renyi_connected is connected"
    QCheck.(pair (int_range 1 10_000) (int_range 2 20))
    (fun (seed, n) ->
      let rng = Netsim.Rng.create seed in
      Netsim.Graph.is_connected (Netsim.Topology.erdos_renyi_connected rng n 0.3))

let qcheck_ba_connected =
  QCheck.Test.make ~count:30 ~name:"barabasi-albert is connected with n-ish edges"
    QCheck.(pair (int_range 1 10_000) (int_range 4 20))
    (fun (seed, n) ->
      let rng = Netsim.Rng.create seed in
      let g = Netsim.Topology.barabasi_albert rng n 2 in
      Netsim.Graph.is_connected g && Netsim.Graph.num_nodes g = n)

let qcheck_ws_degree =
  QCheck.Test.make ~count:30 ~name:"watts-strogatz keeps the edge count of the lattice"
    QCheck.(pair (int_range 1 10_000) (int_range 6 20))
    (fun (seed, n) ->
      let rng = Netsim.Rng.create seed in
      let g = Netsim.Topology.watts_strogatz rng n 4 0.3 in
      (* rewiring keeps at most the lattice's n*k/2 edges (duplicates of
         failed rewires collapse) *)
      Netsim.Graph.num_edges g <= n * 2 && Netsim.Graph.num_edges g >= n)

let qcheck_tree_edges =
  QCheck.Test.make ~count:40 ~name:"random tree has n-1 edges and connects"
    QCheck.(pair (int_range 1 10_000) (int_range 2 30))
    (fun (seed, n) ->
      let rng = Netsim.Rng.create seed in
      let t = Netsim.Topology.random_tree rng n in
      Netsim.Graph.num_edges t = n - 1 && Netsim.Graph.is_connected t)

(* ---- Paths ---- *)

let unit_weight _ _ = 1.0

let test_dijkstra_matches_bfs () =
  let rng = Netsim.Rng.create 11 in
  for _ = 1 to 20 do
    let g = Netsim.Topology.erdos_renyi_connected rng 12 0.3 in
    let dist, _ = Netsim.Paths.dijkstra g ~weight:unit_weight 0 in
    let bfs = Netsim.Graph.bfs_distances g 0 in
    for v = 0 to 11 do
      check_int "dijkstra = bfs on unit weights" bfs.(v) (int_of_float dist.(v))
    done
  done

let test_dijkstra_weighted () =
  (* triangle where the direct edge is more expensive than the detour *)
  let g = Netsim.Graph.create 3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight a b = if (min a b, max a b) = (0, 2) then 10.0 else 1.0 in
  match Netsim.Paths.shortest g ~weight 0 2 with
  | Some (path, cost) ->
      Alcotest.(check (list int)) "detour taken" [ 0; 1; 2 ] path;
      check "cost 2" true (cost = 2.0)
  | None -> Alcotest.fail "path exists"

let test_negative_weight_rejected () =
  let g = Netsim.Topology.line 3 in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Paths.dijkstra: negative weight") (fun () ->
      ignore (Netsim.Paths.dijkstra g ~weight:(fun _ _ -> -1.0) 0))

let test_yen_basic () =
  (* two disjoint routes between 0 and 3 plus a longer one *)
  let g = Netsim.Graph.create 6 [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 4); (4, 5); (5, 3) ] in
  let paths = Netsim.Paths.yen g ~weight:unit_weight ~k:5 0 3 in
  check_int "three loop-free routes" 3 (List.length paths);
  (match paths with
  | (p1, c1) :: (_, c2) :: (p3, c3) :: _ ->
      check "sorted by cost" true (c1 <= c2 && c2 <= c3);
      check_int "shortest is 2 hops" 2 (int_of_float c1);
      check_int "longest is 3 hops" 3 (int_of_float c3);
      check "all simple" true (Netsim.Paths.is_simple p1 && Netsim.Paths.is_simple p3)
  | _ -> Alcotest.fail "expected 3 paths")

let test_yen_no_path () =
  let g = Netsim.Graph.create 4 [ (0, 1) ] in
  check "no route" true (Netsim.Paths.yen g ~weight:unit_weight ~k:3 0 3 = [])

let qcheck_yen_properties =
  QCheck.Test.make ~count:30 ~name:"yen paths are simple, valid, sorted, distinct"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = Netsim.Topology.erdos_renyi_connected rng 10 0.35 in
      let paths = Netsim.Paths.yen g ~weight:unit_weight ~k:4 0 9 in
      let costs = List.map snd paths in
      let sorted = List.sort compare costs = costs in
      let all_valid =
        List.for_all
          (fun (p, _) ->
            Netsim.Paths.is_simple p
            && Netsim.Paths.is_path g p
            && List.hd p = 0
            && List.nth p (List.length p - 1) = 9)
          paths
      in
      let distinct =
        List.length (List.sort_uniq compare (List.map fst paths))
        = List.length paths
      in
      sorted && all_valid && distinct)

(* ---- Sched ---- *)

let test_sched_fifo () =
  let s = Netsim.Sched.create Netsim.Sched.Fifo in
  Netsim.Sched.send s ~src:0 ~dst:1 "a";
  Netsim.Sched.send s ~src:1 ~dst:0 "b";
  (match Netsim.Sched.deliver s with
  | Some d -> Alcotest.(check string) "fifo order" "a" d.Netsim.Sched.payload
  | None -> Alcotest.fail "message expected");
  check_int "one pending" 1 (Netsim.Sched.pending s);
  check_int "total sent" 2 (Netsim.Sched.total_sent s)

let test_sched_lifo () =
  let s = Netsim.Sched.create Netsim.Sched.Lifo in
  Netsim.Sched.send s ~src:0 ~dst:1 "a";
  Netsim.Sched.send s ~src:1 ~dst:0 "b";
  match Netsim.Sched.deliver s with
  | Some d -> Alcotest.(check string) "lifo order" "b" d.Netsim.Sched.payload
  | None -> Alcotest.fail "message expected"

let test_sched_random_drains () =
  let s = Netsim.Sched.create (Netsim.Sched.Random_order (Netsim.Rng.create 5)) in
  for i = 1 to 10 do
    Netsim.Sched.send s ~src:0 ~dst:1 i
  done;
  let seen = ref [] in
  let rec drain () =
    match Netsim.Sched.deliver s with
    | Some d ->
        seen := d.Netsim.Sched.payload :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "all delivered exactly once"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.sort compare !seen)

let test_sched_clear () =
  let s = Netsim.Sched.create Netsim.Sched.Fifo in
  Netsim.Sched.send s ~src:0 ~dst:1 ();
  Netsim.Sched.clear s;
  check "cleared" true (Netsim.Sched.deliver s = None)

let drain sched =
  let rec go acc =
    match Netsim.Sched.deliver sched with
    | Some d -> go (d.Netsim.Sched.payload :: acc)
    | None -> List.rev acc
  in
  go []

let qcheck_sched_fifo_order =
  QCheck.Test.make ~count:100 ~name:"sched fifo delivers in send order"
    QCheck.(small_list small_int)
    (fun msgs ->
      let s = Netsim.Sched.create Netsim.Sched.Fifo in
      List.iter (fun m -> Netsim.Sched.send s ~src:0 ~dst:1 m) msgs;
      drain s = msgs)

let qcheck_sched_lifo_order =
  QCheck.Test.make ~count:100 ~name:"sched lifo delivers in reverse order"
    QCheck.(small_list small_int)
    (fun msgs ->
      let s = Netsim.Sched.create Netsim.Sched.Lifo in
      List.iter (fun m -> Netsim.Sched.send s ~src:0 ~dst:1 m) msgs;
      drain s = List.rev msgs)

let qcheck_sched_random_permutation =
  QCheck.Test.make ~count:100
    ~name:"sched random is a seed-deterministic permutation"
    QCheck.(pair (int_range 1 1_000_000) (small_list small_int))
    (fun (seed, msgs) ->
      let order_of () =
        let s =
          Netsim.Sched.create
            (Netsim.Sched.Random_order (Netsim.Rng.create seed))
        in
        List.iter (fun m -> Netsim.Sched.send s ~src:0 ~dst:1 m) msgs;
        drain s
      in
      let o1 = order_of () and o2 = order_of () in
      o1 = o2 && List.sort compare o1 = List.sort compare msgs)

let qcheck_sched_counters_consistent =
  QCheck.Test.make ~count:100
    ~name:"sched total_sent and pending stay consistent"
    QCheck.(pair (int_range 0 30) (int_range 0 40))
    (fun (n, k) ->
      let s = Netsim.Sched.create Netsim.Sched.Fifo in
      for i = 1 to n do Netsim.Sched.send s ~src:0 ~dst:1 i done;
      let delivered = ref 0 in
      for _ = 1 to k do
        match Netsim.Sched.deliver s with
        | Some _ -> incr delivered
        | None -> ()
      done;
      Netsim.Sched.total_sent s = n
      && !delivered = min n k
      && Netsim.Sched.pending s = n - !delivered)

(* ---- Faults ---- *)

let lossy_plan seed =
  Netsim.Faults.plan
    ~default_link:
      (Netsim.Faults.lossy ~drop:0.3 ~duplicate:0.2 ~max_delay:3 ())
    ~seed ()

let drive_plan plan =
  let f = Netsim.Faults.start plan in
  for t = 0 to 199 do
    ignore (Netsim.Faults.on_send f ~time:t ~src:(t mod 3) ~dst:((t + 1) mod 3))
  done;
  f

let qcheck_fault_plan_deterministic =
  QCheck.Test.make ~count:50
    ~name:"same fault plan and seed give an identical ledger"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let f1 = drive_plan (lossy_plan seed) in
      let f2 = drive_plan (lossy_plan seed) in
      Netsim.Faults.ledger_digest f1 = Netsim.Faults.ledger_digest f2
      && Netsim.Faults.events f1 = Netsim.Faults.events f2)

let test_fault_ledger_counts () =
  let f = drive_plan (lossy_plan 7) in
  let sent, lost, dup, delayed = Netsim.Faults.totals f in
  check_int "every send accounted" 200 sent;
  check "some losses at 30%" true (lost > 0);
  check "some duplicates at 20%" true (dup > 0);
  check "some delays" true (delayed > 0);
  check "losses bounded by sends" true (lost <= sent)

let test_fault_window_blocks () =
  let plan =
    Netsim.Faults.plan
      ~windows:(Netsim.Faults.link_down ~src:0 ~dst:1 ~from_t:10 ~until_t:20)
      ~seed:1 ()
  in
  let f = Netsim.Faults.start plan in
  let verdict_at t = Netsim.Faults.on_send f ~time:t ~src:0 ~dst:1 in
  check "before window passes" true (verdict_at 9 <> Netsim.Faults.Lost);
  check "inside window lost" true (verdict_at 10 = Netsim.Faults.Lost);
  check "inside window lost (end-1)" true (verdict_at 19 = Netsim.Faults.Lost);
  check "after window passes" true (verdict_at 20 <> Netsim.Faults.Lost);
  (* link_down covers both directions of the link *)
  check "reverse direction also down" true
    (Netsim.Faults.on_send f ~time:15 ~src:1 ~dst:0 = Netsim.Faults.Lost);
  check "other links unaffected" true
    (Netsim.Faults.on_send f ~time:15 ~src:0 ~dst:2 <> Netsim.Faults.Lost)

let test_budget_caps () =
  let b = Netsim.Budget.create ~steps:10 ~conflicts:5 () in
  check "within" true (Netsim.Budget.check ~steps:9 ~conflicts:4 ~propagations:0 b = Netsim.Budget.Within);
  check "step cap" true (Netsim.Budget.check ~steps:10 ~conflicts:0 ~propagations:0 b <> Netsim.Budget.Within);
  check "conflict cap" true (Netsim.Budget.check ~steps:0 ~conflicts:5 ~propagations:0 b <> Netsim.Budget.Within);
  check "unlimited never expires" true
    (Netsim.Budget.check ~steps:max_int ~conflicts:max_int ~propagations:max_int
       Netsim.Budget.unlimited = Netsim.Budget.Within)

(* The reason a poll answers, or "within". *)
let poll ?(steps = 0) ?(conflicts = 0) ?(propagations = 0) b =
  match Netsim.Budget.check ~steps ~conflicts ~propagations b with
  | Netsim.Budget.Expired reason -> reason
  | Netsim.Budget.Within -> "within"

let check_reason = Alcotest.(check string)

(* Every cap is hit at once; each is taken away in poll order: the
   hook, the step, conflict and propagation caps, then the clock. *)
let test_budget_poll_order () =
  let fired = ref true in
  let b =
    Netsim.Budget.create ~wall_s:0.0 ~steps:1 ~conflicts:1 ~propagations:1
      ~stop:(fun () -> !fired) ()
  in
  check_reason "hook first" "cancelled"
    (poll ~steps:1 ~conflicts:1 ~propagations:1 b);
  fired := false;
  check_reason "then steps" "step cap 1"
    (poll ~steps:1 ~conflicts:1 ~propagations:1 b);
  check_reason "then conflicts" "conflict cap 1"
    (poll ~conflicts:1 ~propagations:1 b);
  check_reason "then propagations" "propagation cap 1" (poll ~propagations:1 b);
  check_reason "then the clock" "deadline 0s" (poll b)

let test_budget_share () =
  let fired = ref false in
  let b =
    Netsim.Budget.create ~wall_s:1.0 ~steps:7 ~stop:(fun () -> !fired) ()
  in
  let half = Netsim.Budget.share b 0.5 in
  check_reason "fresh share" "within" (poll half);
  check_reason "keeps the caps" "step cap 7" (poll ~steps:7 half);
  fired := true;
  check_reason "keeps the hook" "cancelled" (poll half);
  fired := false;
  (* half of what remained of one second: expired after 0.6 s, while
     the budget it was shared from has time left *)
  Unix.sleepf 0.6;
  check_reason "share expired" "deadline 0.5s" (poll half);
  check_reason "whole still within" "within" (poll b);
  let unbounded = Netsim.Budget.share Netsim.Budget.unlimited 0.5 in
  check_reason "no wall cap, none shared" "within"
    (poll ~steps:max_int ~conflicts:max_int ~propagations:max_int unbounded)

let test_budget_restarted () =
  let fired = ref false and attempt = ref false in
  let b =
    Netsim.Budget.create ~wall_s:0.05 ~conflicts:3 ~stop:(fun () -> !fired) ()
  in
  Unix.sleepf 0.06;
  check_reason "expired" "deadline 0.05s" (poll b);
  let r = Netsim.Budget.restarted b in
  check_reason "re-armed" "within" (poll r);
  check_reason "keeps the caps" "conflict cap 3" (poll ~conflicts:3 r);
  fired := true;
  check_reason "keeps the hook" "cancelled" (poll r);
  fired := false;
  let r = Netsim.Budget.restarted ~stop:(fun () -> !attempt) b in
  check_reason "with a second hook" "within" (poll r);
  attempt := true;
  check_reason "the second hook cancels" "cancelled" (poll r);
  attempt := false;
  fired := true;
  check_reason "so does the first" "cancelled" (poll r)

(* The poll runs at every solver conflict and explored state of a
   served check, on a wall-capped budget with a hook: it must not
   allocate. *)
let test_budget_poll_allocation () =
  let flag = Atomic.make false in
  let b =
    Netsim.Budget.create ~wall_s:300.0 ~conflicts:max_int
      ~stop:(fun () -> Atomic.get flag) ()
  in
  let expired = ref 0 in
  let run () =
    for i = 1 to 100_000 do
      match Netsim.Budget.check ~steps:i ~conflicts:i ~propagations:i b with
      | Netsim.Budget.Within -> ()
      | Netsim.Budget.Expired _ -> incr expired
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  check_int "every poll within" 0 !expired;
  if words > 0.0 then
    Alcotest.failf "100,000 polls allocated %.0f minor words" words

let test_sched_delay_fast_forward () =
  (* a plan that delays every message still drains: the clock
     fast-forwards to the earliest ready_at instead of deadlocking *)
  let plan =
    Netsim.Faults.plan
      ~default_link:(Netsim.Faults.lossy ~max_delay:5 ())
      ~seed:3 ()
  in
  let s = Netsim.Sched.create ~faults:(Netsim.Faults.start plan) Netsim.Sched.Fifo in
  for i = 1 to 20 do Netsim.Sched.send s ~src:0 ~dst:1 i done;
  let got = drain s in
  check_int "all eventually delivered" 20 (List.length got)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph rejects bad edges" `Quick test_graph_rejects_bad_edges;
    Alcotest.test_case "connectivity and diameter" `Quick test_graph_connectivity_and_diameter;
    Alcotest.test_case "bfs distances" `Quick test_graph_bfs;
    Alcotest.test_case "shortest path" `Quick test_graph_shortest_path;
    Alcotest.test_case "induced subgraph" `Quick test_subgraph;
    Alcotest.test_case "grid topology" `Quick test_grid;
    Alcotest.test_case "dijkstra = bfs on unit weights" `Quick test_dijkstra_matches_bfs;
    Alcotest.test_case "dijkstra weighted detour" `Quick test_dijkstra_weighted;
    Alcotest.test_case "negative weight rejected" `Quick test_negative_weight_rejected;
    Alcotest.test_case "yen three routes" `Quick test_yen_basic;
    Alcotest.test_case "yen no path" `Quick test_yen_no_path;
    Alcotest.test_case "sched fifo" `Quick test_sched_fifo;
    Alcotest.test_case "sched lifo" `Quick test_sched_lifo;
    Alcotest.test_case "sched random drains" `Quick test_sched_random_drains;
    Alcotest.test_case "sched clear" `Quick test_sched_clear;
    Alcotest.test_case "sched delayed messages drain" `Quick test_sched_delay_fast_forward;
    Alcotest.test_case "fault ledger counts" `Quick test_fault_ledger_counts;
    Alcotest.test_case "fault window blocks link" `Quick test_fault_window_blocks;
    Alcotest.test_case "budget caps" `Quick test_budget_caps;
    QCheck_alcotest.to_alcotest qcheck_sched_fifo_order;
    QCheck_alcotest.to_alcotest qcheck_sched_lifo_order;
    QCheck_alcotest.to_alcotest qcheck_sched_random_permutation;
    QCheck_alcotest.to_alcotest qcheck_sched_counters_consistent;
    QCheck_alcotest.to_alcotest qcheck_fault_plan_deterministic;
    QCheck_alcotest.to_alcotest qcheck_er_connected;
    QCheck_alcotest.to_alcotest qcheck_ba_connected;
    QCheck_alcotest.to_alcotest qcheck_ws_degree;
    QCheck_alcotest.to_alcotest qcheck_tree_edges;
    QCheck_alcotest.to_alcotest qcheck_yen_properties;
    Alcotest.test_case "budget polls the hook first" `Quick
      test_budget_poll_order;
    Alcotest.test_case "budget share" `Quick test_budget_share;
    Alcotest.test_case "budget re-armed" `Quick test_budget_restarted;
    Alcotest.test_case "budget poll allocates nothing" `Quick
      test_budget_poll_allocation;
  ]
