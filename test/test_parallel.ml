(* Tests for the multicore driver stack: the bounded queue, the worker
   pool (deterministic result collection keyed by task index), budget
   intersection/re-arming, and the solvers' cooperative-cancellation
   hook.

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
  (* closed, the queue still hands out its backlog and then answers
     [None] instead of blocking *)
  Parallel.Bqueue.close q;
  let drained = ref [] in
  let rec drain () =
    match Parallel.Bqueue.pop q with
    | Some x ->
        drained := x :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "every admitted element poppable once" cap (List.length !drained);
  check_int "no duplicates" cap
    (List.length (List.sort_uniq compare !drained))

let test_bqueue_pop_close_wakes () =
  (* server drain relies on this: workers parked in pop must all wake
     when the queue closes, and the backlog element must reach exactly
     one of them *)
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

let all_ok f tasks = Array.map (fun x -> Ok (f x)) tasks

let test_pool_jobs1_is_array_map () =
  let tasks = Array.init 20 Fun.id in
  check "jobs:1 = Array.map" true
    (Parallel.Pool.map_result ~jobs:1 (fun x -> x * x) tasks
    = all_ok (fun x -> x * x) tasks)

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
    (Parallel.Pool.map_result ~jobs:4 f tasks = all_ok f tasks)

let test_pool_empty_and_bad_jobs () =
  check "empty task array" true
    (Parallel.Pool.map_result ~jobs:4 Fun.id [||] = [||]);
  check "jobs:0 rejected" true
    (match Parallel.Pool.map_result ~jobs:0 Fun.id [| 1 |] with
    | (_ : (int, exn) result array) -> false
    | exception Invalid_argument _ -> true)

let test_pool_captures_exceptions () =
  (* a raising task fills its own slot, inline and across domains, and
     every other task still completes *)
  let f i = if i = 1 || i = 3 then failwith (Printf.sprintf "boom%d" i) else i in
  let shape r =
    Array.to_list
      (Array.map
         (function
           | Ok v -> string_of_int v
           | Error (Failure m) -> m
           | Error e -> Printexc.to_string e)
         r)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs:%d slots" jobs)
        [ "0"; "boom1"; "2"; "boom3"; "4"; "5" ]
        (shape (Parallel.Pool.map_result ~jobs f (Array.init 6 Fun.id))))
    [ 1; 2 ]

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
    let r = Parallel.Pool.map_result ~jobs work tasks in
    let dt = Unix.gettimeofday () -. t0 in
    check_int "pigeonhole tasks all unsat" 0
      (Array.fold_left (fun acc r -> acc + Result.get_ok r) 0 r);
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

(* ---- Cooperative cancellation in the solvers ---- *)

let test_cdcl_stop_latency () =
  (* pigeonhole-8-into-7 needs far more than 100 conflicts; the
     budget's hook flips after 100 polls and the solver must notice
     within one conflict/decision boundary *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 100
  in
  let s = Sat.Solver.of_problem (Sat.Gen.pigeonhole 7) in
  match Sat.Solver.solve_bounded ~budget:(Netsim.Budget.create ~stop ()) s with
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
    Sat.Dpll.solve_bounded ~budget:(Netsim.Budget.create ~stop ())
      (Sat.Gen.pigeonhole 6)
  with
  | Sat.Solver.Unknown { reason; conflicts; _ } ->
      check "reason is cancelled" true (reason = "cancelled");
      check "stopped within the decision bound" true (conflicts <= 51)
  | Sat.Solver.Decided _ -> Alcotest.fail "php-7-into-6 decided in <50 decisions?"

let suite =
  [
    Alcotest.test_case "bqueue fifo" `Quick test_bqueue_fifo;
    Alcotest.test_case "bqueue close drains" `Quick test_bqueue_close_drains;
    Alcotest.test_case "bqueue push after close" `Quick test_bqueue_push_after_close;
    Alcotest.test_case "bqueue bad capacity" `Quick test_bqueue_bad_capacity;
    Alcotest.test_case "bqueue cross-domain transfer" `Quick test_bqueue_cross_domain;
    Alcotest.test_case "bqueue try_push sheds when full/closed" `Quick test_bqueue_try_push;
    Alcotest.test_case "bqueue try_push full-queue race" `Quick test_bqueue_try_push_full_race;
    Alcotest.test_case "bqueue pop wakes on close" `Quick
      test_bqueue_pop_close_wakes;
    Alcotest.test_case "pool jobs=1 is Array.map" `Quick test_pool_jobs1_is_array_map;
    Alcotest.test_case "pool results keyed by index" `Quick test_pool_results_keyed_by_index;
    Alcotest.test_case "pool empty/bad jobs" `Quick test_pool_empty_and_bad_jobs;
    Alcotest.test_case "pool captures each task's exception" `Quick
      test_pool_captures_exceptions;
    Alcotest.test_case "pool scaling: jobs=4 not slower than jobs=1" `Quick
      test_pool_scaling_not_slower;
    Alcotest.test_case "cdcl stop latency bounded" `Quick test_cdcl_stop_latency;
    Alcotest.test_case "dpll stop latency bounded" `Quick test_dpll_stop_latency;
  ]
