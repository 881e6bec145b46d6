(* Tests for the multicore driver stack: the bounded queue, the worker
   pool (deterministic result collection keyed by task index), the
   first-result-wins racer, budget intersection/re-arming, the solvers'
   cooperative-cancellation hook, and the SAT portfolio built on top.

   Everything here must hold on a single-core machine too — the
   contracts are about determinism and cancellation latency, never about
   wall-clock speedup. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Bqueue ---- *)

let test_bqueue_fifo () =
  let q = Parallel.Bqueue.create ~capacity:8 in
  List.iter (Parallel.Bqueue.push q) [ 1; 2; 3 ];
  check_int "length" 3 (Parallel.Bqueue.length q);
  check "fifo order" true
    (Parallel.Bqueue.pop q = Some 1
    && Parallel.Bqueue.pop q = Some 2
    && Parallel.Bqueue.pop q = Some 3)

let test_bqueue_close_drains () =
  let q = Parallel.Bqueue.create ~capacity:4 in
  Parallel.Bqueue.push q "a";
  Parallel.Bqueue.close q;
  Parallel.Bqueue.close q (* idempotent *);
  check "queued element survives close" true (Parallel.Bqueue.pop q = Some "a");
  check "drained closed queue yields None" true (Parallel.Bqueue.pop q = None);
  check "stays None" true (Parallel.Bqueue.pop q = None)

let test_bqueue_push_after_close () =
  let q = Parallel.Bqueue.create ~capacity:2 in
  Parallel.Bqueue.close q;
  check "push on closed raises" true
    (match Parallel.Bqueue.push q 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_bqueue_bad_capacity () =
  check "capacity 0 rejected" true
    (match Parallel.Bqueue.create ~capacity:0 with
    | (_ : int Parallel.Bqueue.t) -> false
    | exception Invalid_argument _ -> true)

let test_bqueue_cross_domain () =
  (* capacity 2 forces the producer to block on back-pressure while two
     consumer domains drain; every element must arrive exactly once *)
  let n = 200 in
  let q = Parallel.Bqueue.create ~capacity:2 in
  let consumer () =
    let sum = ref 0 and count = ref 0 in
    let rec loop () =
      match Parallel.Bqueue.pop q with
      | Some x ->
          sum := !sum + x;
          incr count;
          loop ()
      | None -> (!sum, !count)
    in
    loop ()
  in
  let d1 = Domain.spawn consumer and d2 = Domain.spawn consumer in
  for i = 1 to n do
    Parallel.Bqueue.push q i
  done;
  Parallel.Bqueue.close q;
  let s1, c1 = Domain.join d1 and s2, c2 = Domain.join d2 in
  check_int "all elements consumed" n (c1 + c2);
  check_int "sum preserved" (n * (n + 1) / 2) (s1 + s2)

let test_bqueue_try_push () =
  let q = Parallel.Bqueue.create ~capacity:2 in
  check "admits while below capacity" true (Parallel.Bqueue.try_push q 1);
  check "admits at the last slot" true (Parallel.Bqueue.try_push q 2);
  check "full queue refuses without blocking" false (Parallel.Bqueue.try_push q 3);
  check "refused element was not enqueued" true (Parallel.Bqueue.pop q = Some 1);
  check "freed slot admits again" true (Parallel.Bqueue.try_push q 4);
  Parallel.Bqueue.close q;
  check "closed queue refuses" false (Parallel.Bqueue.try_push q 5);
  check "close kept the backlog" true
    (Parallel.Bqueue.pop q = Some 2 && Parallel.Bqueue.pop q = Some 4)

let test_bqueue_try_push_full_race () =
  (* many producers race try_push at a full watermark: exactly
     [capacity] must win, the rest must be refused, and the winners'
     elements must all be poppable — no slot lost, none duplicated *)
  let cap = 4 and producers = 8 and per = 50 in
  let q = Parallel.Bqueue.create ~capacity:cap in
  let admit t =
    let ok = ref 0 in
    for i = 1 to per do
      if Parallel.Bqueue.try_push q ((t * per) + i) then incr ok
    done;
    !ok
  in
  let ds = List.init producers (fun t -> Domain.spawn (fun () -> admit t)) in
  let admitted = List.fold_left (fun a d -> a + Domain.join d) 0 ds in
  check_int "admissions equal the capacity" cap admitted;
  let drained = ref [] in
  let rec drain () =
    match
      Parallel.Bqueue.pop_deadline q ~deadline:(Unix.gettimeofday () +. 0.05)
    with
    | Parallel.Bqueue.Item x ->
        drained := x :: !drained;
        drain ()
    | Parallel.Bqueue.Timeout | Parallel.Bqueue.Closed -> ()
  in
  drain ();
  check_int "every admitted element poppable once" cap (List.length !drained);
  check_int "no duplicates" cap
    (List.length (List.sort_uniq compare !drained))

let test_bqueue_pop_deadline () =
  let q = Parallel.Bqueue.create ~capacity:2 in
  let t0 = Unix.gettimeofday () in
  check "empty queue times out" true
    (Parallel.Bqueue.pop_deadline q ~deadline:(t0 +. 0.05)
    = Parallel.Bqueue.Timeout);
  check "the deadline was honoured" true (Unix.gettimeofday () -. t0 >= 0.05);
  check "a past deadline returns immediately" true
    (Parallel.Bqueue.pop_deadline q ~deadline:(t0 -. 1.0)
    = Parallel.Bqueue.Timeout);
  Parallel.Bqueue.push q 7;
  check "queued item beats the deadline" true
    (Parallel.Bqueue.pop_deadline q ~deadline:(Unix.gettimeofday () -. 1.0)
    = Parallel.Bqueue.Item 7)

let test_bqueue_pop_deadline_close_wakes () =
  (* consumers parked in pop_deadline with a far deadline must wake
     promptly when the queue closes under contention *)
  let q = Parallel.Bqueue.create ~capacity:2 in
  let far = Unix.gettimeofday () +. 30.0 in
  let consumer () = Parallel.Bqueue.pop_deadline q ~deadline:far in
  let ds = List.init 3 (fun _ -> Domain.spawn consumer) in
  Unix.sleepf 0.05;
  Parallel.Bqueue.push q 1;
  Parallel.Bqueue.close q;
  let t0 = Unix.gettimeofday () in
  let rs = List.map Domain.join ds in
  check "woke well before the deadline" true (Unix.gettimeofday () -. t0 < 5.0);
  check_int "the backlog element reached exactly one consumer" 1
    (List.length
       (List.filter (function Parallel.Bqueue.Item _ -> true | _ -> false) rs));
  check_int "the others saw the close" 2
    (List.length
       (List.filter (function Parallel.Bqueue.Closed -> true | _ -> false) rs))

let test_bqueue_pop_close_wakes () =
  (* the blocking twin of the case above, which server drain relies on:
     workers parked in pop must all wake when the queue closes, and the
     backlog element must reach exactly one of them *)
  let q = Parallel.Bqueue.create ~capacity:2 in
  let ds = List.init 3 (fun _ -> Domain.spawn (fun () -> Parallel.Bqueue.pop q)) in
  Unix.sleepf 0.05;
  Parallel.Bqueue.push q 1;
  Parallel.Bqueue.close q;
  let rs = List.map Domain.join ds in
  check_int "the backlog element reached exactly one consumer" 1
    (List.length (List.filter (( = ) (Some 1)) rs));
  check_int "the others saw the close" 2
    (List.length (List.filter Option.is_none rs))

(* ---- Pool ---- *)

let test_pool_jobs1_is_array_map () =
  let tasks = Array.init 20 Fun.id in
  check "jobs:1 = Array.map" true
    (Parallel.Pool.map ~jobs:1 (fun x -> x * x) tasks
    = Array.map (fun x -> x * x) tasks)

let test_pool_results_keyed_by_index () =
  (* uneven per-task work: completion order varies, the result array
     must not *)
  let tasks = Array.init 32 Fun.id in
  let f x =
    let spin = ref 0 in
    for _ = 1 to (x mod 7) * 10_000 do
      incr spin
    done;
    ignore !spin;
    x * 3
  in
  check "jobs:4 result = sequential result" true
    (Parallel.Pool.map ~jobs:4 f tasks = Array.map f tasks)

let test_pool_empty_and_bad_jobs () =
  check "empty task array" true (Parallel.Pool.map ~jobs:4 Fun.id [||] = [||]);
  check "jobs:0 rejected" true
    (match Parallel.Pool.map ~jobs:0 Fun.id [| 1 |] with
    | (_ : int array) -> false
    | exception Invalid_argument _ -> true)

let test_pool_reraises_lowest_index () =
  let f i = if i = 1 || i = 3 then failwith (Printf.sprintf "boom%d" i) else i in
  check "lowest failing index wins" true
    (match Parallel.Pool.map ~jobs:2 f (Array.init 6 Fun.id) with
    | (_ : int array) -> false
    | exception Failure msg -> msg = "boom1")

let test_pool_map_budgeted_rearms () =
  (* two tasks each sleeping most of the window: with a shared window the
     second would expire; per-task re-arming keeps both Within *)
  let budget = Netsim.Budget.create ~wall_s:0.3 () in
  let f ~budget () =
    Unix.sleepf 0.2;
    Netsim.Budget.check budget = Netsim.Budget.Within
  in
  let ok = Parallel.Pool.map_budgeted ~jobs:1 ~budget f [| (); () |] in
  check "each task gets a fresh wall-clock window" true (ok = [| true; true |])

(* ---- scaling regression ---- *)

let test_pool_scaling_not_slower () =
  (* the BENCH_E11 regression: --jobs 4 ran at 0.47× the speed of
     sequential on a machine with fewer cores than jobs, because every
     extra domain joins OCaml's stop-the-world minor collections. The
     pool now caps its worker count at the available cores, so jobs=4
     must never be materially slower than jobs=1 on the same workload —
     whatever the machine. The threshold is deliberately generous
     (1.5× + 50 ms): this pins the pathological regression, not a
     speedup, which a single-core CI box cannot promise. *)
  let tasks = Array.init 8 (fun i -> Sat.Gen.pigeonhole (4 + (i mod 2))) in
  let work p =
    match Sat.Solver.solve (Sat.Solver.of_problem p) with
    | Sat.Solver.Sat _ -> 1
    | Sat.Solver.Unsat -> 0
  in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let r = Parallel.Pool.map ~jobs work tasks in
    let dt = Unix.gettimeofday () -. t0 in
    check_int "pigeonhole tasks all unsat" 0 (Array.fold_left ( + ) 0 r);
    dt
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  ignore (time 1) (* warm-up: fault pages, JIT the allocator's free lists *);
  (* interleave the orderings so clock drift hits both job counts alike *)
  let w1 = ref [] and w4 = ref [] in
  for _ = 1 to 3 do
    w1 := time 1 :: !w1;
    w4 := time 4 :: !w4
  done;
  let m1 = median !w1 and m4 = median !w4 in
  if not (m4 <= (m1 *. 1.5) +. 0.05) then
    Alcotest.failf "jobs=4 slower than jobs=1: %.3fs vs %.3fs (median of 3)"
      m4 m1

(* ---- Race ---- *)

let test_race_sequential_first_some () =
  let started = Array.make 3 false in
  let racer i ~stop:_ =
    started.(i) <- true;
    if i = 0 then None else Some (Printf.sprintf "r%d" i)
  in
  check "first Some wins" true
    (Parallel.Race.run ~jobs:1 [| racer 0; racer 1; racer 2 |]
    = Some (1, "r1"));
  check "later racers not started after a win" true
    (started = [| true; true; false |])

let test_race_all_none () =
  check "no winner" true
    (Parallel.Race.run ~jobs:1 [| (fun ~stop:_ -> None); (fun ~stop:_ -> None) |]
    = None)

let test_race_cancels_rival () =
  (* the stubborn racer only exits through the stop hook: termination of
     this test is itself the cancellation check *)
  let stubborn ~stop =
    while not (stop ()) do
      Domain.cpu_relax ()
    done;
    None
  in
  let fast ~stop:_ = Some "fast" in
  (match Parallel.Race.run ~jobs:2 [| stubborn; fast |] with
  | Some (1, "fast") -> ()
  | Some (i, v) -> Alcotest.failf "unexpected winner %d:%s" i v
  | None -> Alcotest.fail "fast racer must win");
  check "invalid jobs rejected" true
    (match Parallel.Race.run ~jobs:0 [| fast |] with
    | (_ : (int * string) option) -> false
    | exception Invalid_argument _ -> true)

let test_race_propagates_exception () =
  check "racer exception re-raised" true
    (match
       Parallel.Race.run ~jobs:2
         [| (fun ~stop:_ -> failwith "racer blew up"); (fun ~stop:_ -> None) |]
     with
    | (_ : (int * unit) option) -> false
    | exception Failure msg -> msg = "racer blew up")

(* ---- Budget.intersect ---- *)

let test_budget_intersect_caps () =
  let a = Netsim.Budget.create ~conflicts:10 ~steps:100 () in
  let b = Netsim.Budget.create ~conflicts:5 ~propagations:7 () in
  let i = Netsim.Budget.intersect a b in
  check "tighter conflict cap" true
    (match Netsim.Budget.check ~conflicts:5 i with
    | Netsim.Budget.Expired _ -> true
    | Netsim.Budget.Within -> false);
  check "steps cap kept from a" true
    (match Netsim.Budget.check ~steps:100 i with
    | Netsim.Budget.Expired _ -> true
    | Netsim.Budget.Within -> false);
  check "propagation cap kept from b" true
    (match Netsim.Budget.check ~propagations:7 i with
    | Netsim.Budget.Expired _ -> true
    | Netsim.Budget.Within -> false);
  check "within all caps" true
    (Netsim.Budget.check ~conflicts:4 ~steps:99 ~propagations:6 i
    = Netsim.Budget.Within)

let test_budget_intersect_unlimited () =
  let b = Netsim.Budget.create ~conflicts:3 () in
  let i = Netsim.Budget.intersect Netsim.Budget.unlimited b in
  check "unlimited contributes no caps" true
    (match Netsim.Budget.check ~conflicts:3 i with
    | Netsim.Budget.Expired _ -> true
    | Netsim.Budget.Within -> false);
  check "still within below the cap" true
    (Netsim.Budget.check ~conflicts:2 i = Netsim.Budget.Within);
  check "unlimited ∩ unlimited is unlimited" true
    (Netsim.Budget.is_unlimited
       (Netsim.Budget.intersect Netsim.Budget.unlimited Netsim.Budget.unlimited))

let test_budget_intersect_wall () =
  let a = Netsim.Budget.create ~wall_s:100.0 () in
  let b = Netsim.Budget.create ~wall_s:0.05 () in
  let i = Netsim.Budget.intersect a b in
  check "fresh intersection within" true
    (Netsim.Budget.check i = Netsim.Budget.Within);
  Unix.sleepf 0.1;
  check "earlier deadline wins" true
    (match Netsim.Budget.check i with
    | Netsim.Budget.Expired _ -> true
    | Netsim.Budget.Within -> false)

(* ---- Cooperative cancellation in the solvers ---- *)

let test_cdcl_stop_latency () =
  (* pigeonhole-8-into-7 needs far more than 100 conflicts; the stop
     hook flips after 100 polls and the solver must notice within one
     conflict/decision boundary *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 100
  in
  let s = Sat.Solver.of_problem (Sat.Gen.pigeonhole 7) in
  match Sat.Solver.solve_bounded ~stop ~budget:Netsim.Budget.unlimited s with
  | Sat.Solver.Unknown { reason; conflicts; _ } ->
      check "reason is cancelled" true (reason = "cancelled");
      check "stopped within the poll bound" true (conflicts <= 101)
  | Sat.Solver.Decided _ -> Alcotest.fail "php-8-into-7 decided in <100 polls?"

let test_dpll_stop_latency () =
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 50
  in
  match
    Sat.Dpll.solve_bounded ~stop ~budget:Netsim.Budget.unlimited
      (Sat.Gen.pigeonhole 6)
  with
  | Sat.Solver.Unknown { reason; conflicts; _ } ->
      check "reason is cancelled" true (reason = "cancelled");
      check "stopped within the decision bound" true (conflicts <= 51)
  | Sat.Solver.Decided _ -> Alcotest.fail "php-7-into-6 decided in <50 decisions?"

let test_diversified_configs_agree () =
  (* every portfolio member is a sound solver: same verdict as the
     canonical config and the DPLL oracle on random instances *)
  List.iter
    (fun seed ->
      let p = Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:20 ~num_clauses:85 in
      let oracle =
        match Sat.Dpll.solve p with Sat.Solver.Sat _ -> true | Sat.Solver.Unsat -> false
      in
      for k = 0 to 4 do
        match
          Sat.Solver.solve_bounded ~config:(Sat.Solver.diversified k)
            ~budget:Netsim.Budget.unlimited
            (Sat.Solver.of_problem p)
        with
        | Sat.Solver.Decided (Sat.Solver.Sat m) ->
            check "diversified finds a real model" true
              (oracle && Sat.Cnf.check_model m p.Sat.Cnf.clauses)
        | Sat.Solver.Decided Sat.Solver.Unsat ->
            check "diversified agrees on unsat" true (not oracle)
        | Sat.Solver.Unknown _ ->
            Alcotest.failf "unlimited budget returned Unknown (config %d)" k
      done)
    [ 11; 42; 1789 ]

(* ---- Portfolio ---- *)

let test_portfolio_sequential_unsat () =
  let v = Sat.Portfolio.solve ~jobs:1 (Sat.Gen.pigeonhole 5) in
  check "unsat decided" true
    (v.Sat.Portfolio.result = Sat.Solver.Decided Sat.Solver.Unsat);
  check "winner is the first engine" true
    (v.Sat.Portfolio.winner = Some "cdcl:0");
  check "at least two engines raced" true
    (List.length v.Sat.Portfolio.engines >= 2)

let test_portfolio_parallel_sat () =
  let p = Sat.Gen.php_sat 5 in
  let v = Sat.Portfolio.solve ~jobs:3 p in
  match v.Sat.Portfolio.result with
  | Sat.Solver.Decided (Sat.Solver.Sat m) ->
      check "winner reported" true (v.Sat.Portfolio.winner <> None);
      check "winner's model satisfies the CNF" true
        (Sat.Cnf.check_model m p.Sat.Cnf.clauses)
  | _ -> Alcotest.fail "php-sat-6-into-6 must be satisfiable"

let test_portfolio_certified_winner () =
  let v = Sat.Portfolio.solve ~jobs:2 ~certify:true (Sat.Gen.pigeonhole 5) in
  check "unsat decided" true
    (v.Sat.Portfolio.result = Sat.Solver.Decided Sat.Solver.Unsat);
  (match v.Sat.Portfolio.certification with
  | Some r -> check "refutation certificate" true (r.Sat.Proof.kind = `Refutation)
  | None -> Alcotest.fail "certified race must return a proof report");
  check "certify race is CDCL-only" true
    (List.for_all
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "cdcl")
       v.Sat.Portfolio.engines)

let test_portfolio_budget_exhausted () =
  let v =
    Sat.Portfolio.solve ~jobs:2
      ~budget:(Netsim.Budget.create ~conflicts:1 ())
      ~engines:[ Sat.Portfolio.Cdcl (Sat.Solver.diversified 0);
                 Sat.Portfolio.Cdcl (Sat.Solver.diversified 1) ]
      (Sat.Gen.pigeonhole 6)
  in
  (match v.Sat.Portfolio.result with
  | Sat.Solver.Unknown _ -> ()
  | Sat.Solver.Decided _ -> Alcotest.fail "1-conflict budget cannot decide php7");
  check "no winner on exhaustion" true (v.Sat.Portfolio.winner = None)

let test_portfolio_rejects_bad_setups () =
  let p = Sat.Gen.php_sat 4 in
  let raises f = match f () with
    | (_ : Sat.Portfolio.verdict) -> false
    | exception Invalid_argument _ -> true
  in
  check "certify + dpll rejected" true
    (raises (fun () ->
         Sat.Portfolio.solve ~certify:true
           ~engines:[ Sat.Portfolio.Dpll_baseline ] p));
  check "empty engine list rejected" true
    (raises (fun () -> Sat.Portfolio.solve ~engines:[] p));
  check "jobs < 1 rejected" true
    (raises (fun () -> Sat.Portfolio.solve ~jobs:0 p))

let qcheck_portfolio_agrees_with_dpll =
  QCheck.Test.make ~count:40 ~name:"portfolio agrees with dpll on random 3-sat"
    QCheck.(pair (int_range 1 100_000) (int_range 8 16))
    (fun (seed, nvars) ->
      let p =
        Sat.Fuzz.random_problem
          (Netsim.Rng.create seed)
          ~k:3 ~num_vars:nvars ~num_clauses:(nvars * 4)
      in
      let v = Sat.Portfolio.solve ~jobs:2 p in
      let oracle =
        match Sat.Dpll.solve p with Sat.Solver.Sat _ -> true | Sat.Solver.Unsat -> false
      in
      match v.Sat.Portfolio.result with
      | Sat.Solver.Decided (Sat.Solver.Sat m) ->
          oracle && Sat.Cnf.check_model m p.Sat.Cnf.clauses
      | Sat.Solver.Decided Sat.Solver.Unsat -> not oracle
      | Sat.Solver.Unknown _ -> false)

let suite =
  [
    Alcotest.test_case "bqueue fifo" `Quick test_bqueue_fifo;
    Alcotest.test_case "bqueue close drains" `Quick test_bqueue_close_drains;
    Alcotest.test_case "bqueue push after close" `Quick test_bqueue_push_after_close;
    Alcotest.test_case "bqueue bad capacity" `Quick test_bqueue_bad_capacity;
    Alcotest.test_case "bqueue cross-domain transfer" `Quick test_bqueue_cross_domain;
    Alcotest.test_case "bqueue try_push sheds when full/closed" `Quick test_bqueue_try_push;
    Alcotest.test_case "bqueue try_push full-queue race" `Quick test_bqueue_try_push_full_race;
    Alcotest.test_case "bqueue pop_deadline times out" `Quick test_bqueue_pop_deadline;
    Alcotest.test_case "bqueue pop_deadline wakes on close" `Quick
      test_bqueue_pop_deadline_close_wakes;
    Alcotest.test_case "bqueue pop wakes on close" `Quick
      test_bqueue_pop_close_wakes;
    Alcotest.test_case "pool jobs=1 is Array.map" `Quick test_pool_jobs1_is_array_map;
    Alcotest.test_case "pool results keyed by index" `Quick test_pool_results_keyed_by_index;
    Alcotest.test_case "pool empty/bad jobs" `Quick test_pool_empty_and_bad_jobs;
    Alcotest.test_case "pool re-raises lowest index" `Quick test_pool_reraises_lowest_index;
    Alcotest.test_case "map_budgeted re-arms per task" `Quick test_pool_map_budgeted_rearms;
    Alcotest.test_case "pool scaling: jobs=4 not slower than jobs=1" `Quick
      test_pool_scaling_not_slower;
    Alcotest.test_case "race sequential first-some" `Quick test_race_sequential_first_some;
    Alcotest.test_case "race all none" `Quick test_race_all_none;
    Alcotest.test_case "race cancels rival" `Quick test_race_cancels_rival;
    Alcotest.test_case "race propagates exception" `Quick test_race_propagates_exception;
    Alcotest.test_case "budget intersect caps" `Quick test_budget_intersect_caps;
    Alcotest.test_case "budget intersect unlimited" `Quick test_budget_intersect_unlimited;
    Alcotest.test_case "budget intersect wall clock" `Quick test_budget_intersect_wall;
    Alcotest.test_case "cdcl stop latency bounded" `Quick test_cdcl_stop_latency;
    Alcotest.test_case "dpll stop latency bounded" `Quick test_dpll_stop_latency;
    Alcotest.test_case "diversified configs agree" `Quick test_diversified_configs_agree;
    Alcotest.test_case "portfolio sequential unsat" `Quick test_portfolio_sequential_unsat;
    Alcotest.test_case "portfolio parallel sat" `Quick test_portfolio_parallel_sat;
    Alcotest.test_case "portfolio certified winner" `Quick test_portfolio_certified_winner;
    Alcotest.test_case "portfolio budget exhausted" `Quick test_portfolio_budget_exhausted;
    Alcotest.test_case "portfolio rejects bad setups" `Quick test_portfolio_rejects_bad_setups;
    QCheck_alcotest.to_alcotest qcheck_portfolio_agrees_with_dpll;
  ]
