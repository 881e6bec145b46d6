(* Tests for the SAT substrate: CNF primitives, the growable vector and
   the activity heap, DIMACS round-trips, the Tseitin translation and
   the CDCL solver (cross-checked against the DPLL oracle). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Cnf ---- *)

(* the problem of these clauses, in order *)
let problem_of ?num_vars clauses =
  let b = Sat.Cnf.builder ?num_vars () in
  List.iter (Sat.Cnf.add_clause b) clauses;
  Sat.Cnf.freeze b

let test_literal_encoding () =
  check_int "var_of pos" 7 (Sat.Cnf.var_of (Sat.Cnf.pos 7));
  check_int "var_of neg" 7 (Sat.Cnf.var_of (Sat.Cnf.neg 7));
  check "pos is pos" true (Sat.Cnf.is_pos (Sat.Cnf.pos 3));
  check "neg not pos" false (Sat.Cnf.is_pos (Sat.Cnf.neg 3));
  check_int "negate pos" (Sat.Cnf.neg 5) (Sat.Cnf.negate (Sat.Cnf.pos 5));
  check_int "negate neg" (Sat.Cnf.pos 5) (Sat.Cnf.negate (Sat.Cnf.neg 5));
  check_int "dimacs round trip" (-4)
    (Sat.Cnf.int_of_lit (Sat.Cnf.lit_of_int (-4)))

let test_lit_of_int_zero () =
  Alcotest.check_raises "zero literal rejected"
    (Invalid_argument "Cnf.lit_of_int: zero literal") (fun () ->
      ignore (Sat.Cnf.lit_of_int 0))

let test_problem_building () =
  let pos = Sat.Cnf.pos and neg = Sat.Cnf.neg in
  let b = Sat.Cnf.builder () in
  Sat.Cnf.add_clause b [ pos 1; neg 3 ];
  Sat.Cnf.add_lit b (pos 2);
  Sat.Cnf.close_clause b;
  let p = Sat.Cnf.freeze b in
  check_int "num_vars grows" 3 p.Sat.Cnf.num_vars;
  check_int "clause count" 2 (Sat.Cnf.num_clauses p);
  check "clauses in insertion order" true
    (Sat.Cnf.clause p 0 = [| pos 1; neg 3 |] && Sat.Cnf.clause p 1 = [| pos 2 |]);
  let v = Sat.Cnf.fresh_var b in
  check_int "fresh var" 4 v;
  check_int "fresh var bumps count" 4 (Sat.Cnf.freeze b).Sat.Cnf.num_vars;
  check "an earlier freeze is unchanged" true (p.Sat.Cnf.num_vars = 3);
  Sat.Cnf.add_lit b (pos 1);
  Alcotest.check_raises "an open clause is not frozen"
    (Invalid_argument "Cnf.freeze: a clause is still open") (fun () ->
      ignore (Sat.Cnf.freeze b))

(* Variable 0 does not exist. A literal over it used to be accepted by
   the CNF and by the solver, which enqueued the unit [[pos 0]] without
   storing it and answered Sat with a model that falsifies it. *)
let test_variable_zero_rejected () =
  let pos = Sat.Cnf.pos and neg = Sat.Cnf.neg in
  let b = Sat.Cnf.builder () in
  Sat.Cnf.add_clause b [ pos 1 ];
  Alcotest.check_raises "builder: add_lit"
    (Invalid_argument "Cnf: a literal over variable 0") (fun () ->
      Sat.Cnf.add_lit b (pos 0));
  Alcotest.check_raises "builder: add_clause"
    (Invalid_argument "Cnf: a literal over variable 0") (fun () ->
      Sat.Cnf.add_clause b [ pos 2; neg 0 ]);
  let p = Sat.Cnf.freeze b in
  check "add_clause appended nothing" true
    (p.Sat.Cnf.lits = [| pos 1 |] && Sat.Cnf.num_clauses p = 1);
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ neg 1 ];
  Alcotest.check_raises "solver: add_clause"
    (Invalid_argument "Solver.add_clause: a literal over variable 0")
    (fun () -> Sat.Solver.add_clause s [ pos 0 ]);
  check_int "the solver added nothing" 1
    (Sat.Solver.stats s).Sat.Solver.clauses_added;
  match Sat.Solver.solve s with
  | Sat.Solver.Sat m -> check "the model still satisfies !1" false m.(1)
  | Sat.Solver.Unsat -> Alcotest.fail "!1 alone is satisfiable"

(* [m] satisfies [p] and [units] by the strict model certifier *)
let satisfies ?(units = []) p m = Sat.Proof.check_model p ~units m = Ok ()

let test_check_model () =
  let clauses =
    problem_of [ [ Sat.Cnf.pos 1; Sat.Cnf.neg 2 ]; [ Sat.Cnf.pos 2 ] ]
  in
  check "satisfying model accepted" true
    (satisfies clauses [| false; true; true |]);
  check "falsifying model rejected" false
    (satisfies clauses [| false; false; true |]);
  check "a true unit holds" true
    (satisfies ~units:[ Sat.Cnf.pos 1 ] clauses [| false; true; true |]);
  check "a false unit fails" false
    (satisfies ~units:[ Sat.Cnf.neg 2 ] clauses [| false; true; true |])

(* the loop behind check_model *)
let test_check_model_loops () =
  let pos = Sat.Cnf.pos and neg = Sat.Cnf.neg in
  let m = [| false; true; false; true |] in
  let holds cs = satisfies (problem_of cs) m in
  let c1 = [ neg 1; pos 3 ] and c2 = [ neg 2; neg 3 ] in
  check "a satisfied set" true (holds [ c1; c2 ]);
  check "true literal last" true (holds [ [ pos 2; pos 3 ] ]);
  let falsified = [ neg 3; pos 2 ] in
  check "a falsified clause" false (holds [ falsified ]);
  check "a falsified clause fails the set" false (holds [ c1; falsified; c2 ]);
  check "the empty clause is never satisfied" false (holds [ [] ]);
  check "the empty clause fails the set" false (holds [ c1; [] ]);
  check "the empty set holds" true (holds [])

(* ---- Vec ---- *)

let test_vec_push_grows () =
  let v = Sat.Vec.create ~capacity:4 ~dummy:0 () in
  for i = 1 to 100 do
    Sat.Vec.push v i
  done;
  check_int "size" 100 v.Sat.Vec.sz;
  check "grown past the capacity" true (Array.length v.Sat.Vec.data >= 100);
  check_int "element 42" 42 v.Sat.Vec.data.(41);
  check_int "last element" 100 v.Sat.Vec.data.(99);
  check "slots past the end hold the dummy" true
    (Array.for_all (( = ) 0) (Array.sub v.Sat.Vec.data 100 (Array.length v.Sat.Vec.data - 100)))

(* ---- Heap ---- *)

let test_heap_ordering () =
  let h = Sat.Heap.create 10 in
  List.iter
    (fun (v, a) ->
      Sat.Heap.insert h v;
      Sat.Heap.bump h v a)
    [ (1, 5.0); (2, 9.0); (3, 1.0); (4, 7.0) ];
  check_int "max first" 2 (Sat.Heap.remove_max h);
  check_int "then 4" 4 (Sat.Heap.remove_max h);
  Sat.Heap.bump h 3 100.0;
  check_int "bump reorders" 3 (Sat.Heap.remove_max h);
  check_int "last" 1 (Sat.Heap.remove_max h);
  check "empty" true (Sat.Heap.is_empty h)

let test_heap_rescale () =
  let h = Sat.Heap.create 4 in
  Sat.Heap.insert h 1;
  Sat.Heap.bump h 1 8.0;
  Sat.Heap.rescale h 0.5;
  check "activity rescaled" true (Sat.Heap.activity h 1 = 4.0)

let test_heap_grow () =
  let h = Sat.Heap.create 2 in
  Sat.Heap.grow_to h 100;
  Sat.Heap.insert h 99;
  check_int "inserted after grow" 99 (Sat.Heap.remove_max h)

(* ---- Dimacs ---- *)

let test_dimacs_roundtrip () =
  let p = Sat.Gen.pigeonhole 3 in
  let text = Sat.Dimacs.to_string p in
  let p' = Sat.Dimacs.parse_string text in
  check_int "vars preserved" p.Sat.Cnf.num_vars p'.Sat.Cnf.num_vars;
  check_int "clauses preserved" (Sat.Cnf.num_clauses p) (Sat.Cnf.num_clauses p')

let test_dimacs_comments_and_header () =
  let p =
    Sat.Dimacs.parse_string "c a comment\np cnf 3 2\n1 -2 0\n% ignored\n2 3 0\n"
  in
  check_int "vars" 3 p.Sat.Cnf.num_vars;
  check_int "clauses" 2 (Sat.Cnf.num_clauses p)

let test_dimacs_malformed () =
  Alcotest.check_raises "bad literal"
    (Failure "dimacs: line 2: bad literal \"x\"") (fun () ->
      ignore (Sat.Dimacs.parse_string "p cnf 1 1\n1 x 0\n"))

(* ---- Formula / Tseitin ---- *)

let test_formula_simplification () =
  let open Sat.Formula in
  check "and of true" true (and_ [ tt; tt ] = tt);
  check "and with false" true (and_ [ var 1; ff ] = ff);
  check "or with true" true (or_ [ var 1; tt ] = tt);
  check "double negation" true (not_ (not_ (var 2)) = var 2);
  check "implies false antecedent" true (implies ff (var 1) = tt);
  check "iff with true" true (iff tt (var 3) = var 3);
  check "ite folds" true (ite tt (var 1) (var 2) = var 1)

let random_formula rng max_var depth =
  let open Sat.Formula in
  let rec go depth =
    if depth = 0 then
      match Netsim.Rng.int rng 3 with
      | 0 -> tt
      | 1 -> ff
      | _ -> var (1 + Netsim.Rng.int rng max_var)
    else
      match Netsim.Rng.int rng 7 with
      | 0 -> not_ (go (depth - 1))
      | 1 -> and_ [ go (depth - 1); go (depth - 1); go (depth - 1) ]
      | 2 -> or_ [ go (depth - 1); go (depth - 1) ]
      | 3 -> implies (go (depth - 1)) (go (depth - 1))
      | 4 -> iff (go (depth - 1)) (go (depth - 1))
      | 5 -> ite (go (depth - 1)) (go (depth - 1)) (go (depth - 1))
      | _ -> var (1 + Netsim.Rng.int rng max_var)
  in
  go depth

(* brute-force satisfiability of a formula over its primary variables *)
let brute_force_sat f max_var =
  let rec go assignment v =
    if v > max_var then Sat.Formula.eval (fun x -> assignment.(x)) f
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make (max_var + 1) false) 1

(* [f] decided through its Tseitin CNF and the CDCL solver; a formula
   that folds to a constant is decided by the fold, true with the
   all-false model *)
let solve_formula ~num_primary f =
  let { Sat.Formula.problem; constant; _ } = Sat.Formula.to_cnf ~num_primary f in
  match constant with
  | Some true -> Sat.Solver.Sat (Array.make (problem.Sat.Cnf.num_vars + 1) false)
  | Some false -> Sat.Solver.Unsat
  | None -> Sat.Solver.solve_problem problem

let test_tseitin_equisatisfiable () =
  let rng = Netsim.Rng.create 2025 in
  for _ = 1 to 200 do
    let f = random_formula rng 5 3 in
    let expected = brute_force_sat f 5 in
    let got =
      match solve_formula ~num_primary:5 f with
      | Sat.Solver.Sat _ -> true
      | Sat.Solver.Unsat -> false
    in
    if expected <> got then
      Alcotest.failf "tseitin mismatch on %a: brute=%b solver=%b"
        Sat.Formula.pp f expected got
  done

let test_tseitin_model_evaluates_true () =
  let rng = Netsim.Rng.create 77 in
  for _ = 1 to 200 do
    let f = random_formula rng 6 3 in
    match solve_formula ~num_primary:6 f with
    | Sat.Solver.Unsat -> ()
    | Sat.Solver.Sat m ->
        let env v = v < Array.length m && m.(v) in
        if not (Sat.Formula.eval env f) then
          Alcotest.failf "model does not satisfy %a" Sat.Formula.pp f
  done

(* [to_cnf ~num_primary] checks each variable as it meets it, instead
   of folding the circuit for the largest one first. *)
let test_tseitin_variable_range () =
  let open Sat.Formula in
  let f = and2 (var 1) (var 3) in
  Alcotest.check_raises "above num_primary"
    (Invalid_argument "Formula.to_cnf: variable 3 outside 1..2") (fun () ->
      ignore (to_cnf ~num_primary:2 f));
  Alcotest.check_raises "variable 0"
    (Invalid_argument "Formula.to_cnf: variable 0 outside 1..2") (fun () ->
      ignore (to_cnf ~num_primary:2 (or2 (var 0) (var 1))));
  (* a failed translation leaves the next one whole *)
  let r = to_cnf ~num_primary:3 f in
  check_int "auxiliaries above num_primary" 4 r.problem.Sat.Cnf.num_vars;
  check_int "three clauses and the root unit" 4
    (Sat.Cnf.num_clauses r.problem);
  match Sat.Solver.solve_problem r.problem with
  | Sat.Solver.Sat m -> check "the translation solves" true (m.(1) && m.(3))
  | Sat.Solver.Unsat -> Alcotest.fail "1 & 3 is satisfiable"

(* Formulas built in two spawned domains, then combined and solved in
   this one. Each domain interns into its own tables, so the three share
   no node; what must hold is that no node is ever mistaken for a
   different node built elsewhere — by the Tseitin cache or by this
   domain's interning of the combination. *)
let test_cross_domain_interning () =
  let build seed () =
    let rng = Netsim.Rng.create seed in
    List.init 200 (fun _ -> random_formula rng 5 3)
  in
  let d1 = Domain.spawn (build 901) and d2 = Domain.spawn (build 902) in
  let fs1 = Domain.join d1 and fs2 = Domain.join d2 in
  let rng = Netsim.Rng.create 903 in
  List.iter2
    (fun a b ->
      let open Sat.Formula in
      let f =
        match Netsim.Rng.int rng 4 with
        | 0 -> and2 a b
        | 1 -> or2 a (not_ b)
        | 2 -> iff a b
        | _ -> ite (var 1) a b
      in
      match solve_formula ~num_primary:5 f with
      | Sat.Solver.Sat m ->
          if not (eval (fun v -> m.(v)) f) then
            Alcotest.failf "model does not satisfy cross-domain %a" pp f
      | Sat.Solver.Unsat ->
          if brute_force_sat f 5 then
            Alcotest.failf "satisfiable cross-domain %a found UNSAT" pp f)
    fs1 fs2

let test_at_most_one () =
  let open Sat.Formula in
  let vars = [ var 1; var 2; var 3 ] in
  let f = and_ [ at_most_one vars; var 1; var 2 ] in
  check "two true violates at_most_one" true
    (solve_formula ~num_primary:3 f = Sat.Solver.Unsat);
  let g = and_ [ exactly_one vars; not_ (var 1); not_ (var 3) ] in
  (match solve_formula ~num_primary:3 g with
  | Sat.Solver.Sat m -> check "middle var forced" true m.(2)
  | Sat.Solver.Unsat -> Alcotest.fail "exactly_one should be satisfiable")

(* ---- Solver vs DPLL oracle ---- *)

let test_solver_matches_dpll () =
  let tag = function Sat.Solver.Sat _ -> true | Sat.Solver.Unsat -> false in
  for seed = 1 to 120 do
    let p = Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:18 ~num_clauses:76 in
    let cdcl = tag (Sat.Solver.solve_problem p) in
    let dpll = tag (Sat.Dpll.solve p) in
    if cdcl <> dpll then Alcotest.failf "solver mismatch at seed %d" seed
  done

let test_pigeonhole_unsat () =
  List.iter
    (fun n ->
      check
        (Printf.sprintf "php %d->%d unsat" (n + 1) n)
        true
        (Sat.Solver.solve_problem (Sat.Gen.pigeonhole n) = Sat.Solver.Unsat))
    [ 2; 3; 4; 5; 6 ]

let test_pigeonhole_sat_variant () =
  List.iter
    (fun n ->
      match Sat.Solver.solve_problem (Sat.Gen.php_sat n) with
      | Sat.Solver.Sat _ -> ()
      | Sat.Solver.Unsat -> Alcotest.failf "php %d->%d should be sat" n n)
    [ 2; 4; 6 ]

let test_graph_coloring () =
  (* a clique-ish dense graph needs many colors; a sparse one is easy *)
  let dense = Sat.Gen.graph_coloring ~seed:5 ~nodes:8 ~edge_prob:1.0 ~colors:3 in
  check "K8 not 3-colorable" true
    (Sat.Solver.solve_problem dense = Sat.Solver.Unsat);
  let sparse = Sat.Gen.graph_coloring ~seed:5 ~nodes:8 ~edge_prob:0.2 ~colors:4 in
  check "sparse 4-colorable" true
    (match Sat.Solver.solve_problem sparse with
    | Sat.Solver.Sat _ -> true
    | Sat.Solver.Unsat -> false)

let test_assumptions () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.pos 1; Sat.Cnf.pos 2 ];
  Sat.Solver.add_clause s [ Sat.Cnf.neg 1; Sat.Cnf.pos 3 ];
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.pos 1; Sat.Cnf.neg 3 ] s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat _ -> Alcotest.fail "assumptions 1 & !3 must be unsat");
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 1 ] s with
  | Sat.Solver.Sat m -> check "2 forced under !1" true m.(2)
  | Sat.Solver.Unsat -> Alcotest.fail "!1 should be satisfiable");
  (* the solver is reusable after assumption solving *)
  match Sat.Solver.solve s with
  | Sat.Solver.Sat _ -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "unconstrained solve after assumptions"

let test_empty_clause_unsat () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [];
  check "empty clause" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_unit_conflict () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.pos 1 ];
  Sat.Solver.add_clause s [ Sat.Cnf.neg 1 ];
  check "contradictory units" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_tautology_dropped () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.pos 1; Sat.Cnf.neg 1 ];
  match Sat.Solver.solve s with
  | Sat.Solver.Sat _ -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "tautology must not constrain"

let test_stats_reported () =
  let s = Sat.Solver.of_problem (Sat.Gen.pigeonhole 5) in
  ignore (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  check "conflicts happened" true (st.Sat.Solver.conflicts > 0);
  check "propagations happened" true (st.Sat.Solver.propagations > 0)

let test_dpll_budget () =
  let p = Sat.Gen.pigeonhole 7 in
  check "budget exhausts" true
    (match Sat.Dpll.solve_bounded ~budget:(Netsim.Budget.create ~steps:5 ()) p with
    | Sat.Solver.Unknown _ -> true
    | Sat.Solver.Decided _ -> false)

(* qcheck: random instances keep CDCL/DPLL agreement *)
let qcheck_cdcl_vs_dpll =
  QCheck.Test.make ~count:60 ~name:"cdcl agrees with dpll on random 3-sat"
    QCheck.(pair (int_range 1 10_000) (int_range 5 14))
    (fun (seed, nvars) ->
      let p =
        Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:nvars
          ~num_clauses:(nvars * 4)
      in
      let tag = function Sat.Solver.Sat _ -> true | Sat.Solver.Unsat -> false in
      tag (Sat.Solver.solve_problem p) = tag (Sat.Dpll.solve p))

let qcheck_luby_like_restart_progress =
  QCheck.Test.make ~count:30 ~name:"solver decides quickly at low ratio"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let p = Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:30 ~num_clauses:60 in
      match Sat.Solver.solve_problem p with
      | Sat.Solver.Sat m -> satisfies p m
      | Sat.Solver.Unsat -> false (* ratio 2.0 is essentially always sat *))

(* ---- Proof logging + independent certification ---- *)

let refutation_of problem =
  let s = Sat.Solver.of_problem ~proof:true problem in
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat _ -> Alcotest.fail "expected an unsat instance");
  Sat.Solver.proof_steps s

(* an assumption-free solve on a proof-logging solver, then its verdict
   certified *)
let solve_certified problem =
  let s = Sat.Solver.of_problem ~proof:true problem in
  let r = Sat.Solver.solve s in
  (s, r, Sat.Solver.certify s ~assumptions:[] r)

let test_certified_unsat_refutation () =
  let _, r, c = solve_certified (Sat.Gen.pigeonhole 5) in
  check "php5 is unsat" true (r = Sat.Solver.Unsat);
  check "refutation kind" true (c.Sat.Proof.kind = `Refutation);
  check "proof has additions" true (c.Sat.Proof.additions > 0)

let test_certified_sat_model () =
  let _, r, c = solve_certified (Sat.Gen.php_sat 5) in
  check "php_sat5 is sat" true (r <> Sat.Solver.Unsat);
  check "model kind" true (c.Sat.Proof.kind = `Model)

let test_certified_with_deletions () =
  (* big enough to trigger reduce_db, so the Delete path is exercised *)
  let _, r, c = solve_certified (Sat.Gen.pigeonhole 6) in
  check "php6 is unsat" true (r = Sat.Solver.Unsat);
  check "substantial proof" true (c.Sat.Proof.additions > 100)

let test_corrupted_proof_rejected () =
  let problem = Sat.Gen.pigeonhole 4 in
  let steps = refutation_of problem in
  (match Sat.Proof.check_refutation problem ~units:[] steps with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest proof rejected: %s" e);
  (* dropping the empty clause leaves the refutation unfinished *)
  let truncated =
    List.filter
      (function Sat.Proof.Add [||] -> false | _ -> true)
      steps
  in
  (match Sat.Proof.check_refutation problem ~units:[] truncated with
  | Error msg ->
      check "unfinished proof diagnosed" true
        (msg = "proof ends without deriving the empty clause")
  | Ok () -> Alcotest.fail "truncated proof must be rejected");
  (* injecting a clause with no RUP derivation is caught at its step *)
  let bogus = Sat.Proof.Add [| Sat.Cnf.pos 1 |] in
  match Sat.Proof.check_refutation problem ~units:[] (bogus :: steps) with
  | Error msg ->
      check "non-RUP step located" true (String.sub msg 0 7 = "step 1:")
  | Ok () -> Alcotest.fail "non-RUP step must be rejected"

let test_corrupted_model_rejected () =
  let problem = Sat.Gen.php_sat 4 in
  let m =
    match Sat.Solver.solve_problem problem with
    | Sat.Solver.Sat m -> m
    | Sat.Solver.Unsat -> Alcotest.fail "php_sat4 must be sat"
  in
  (match Sat.Proof.check_model problem ~units:[] m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest model rejected: %s" e);
  (* flipping every assignment violates some at-most-one constraint *)
  (match Sat.Proof.check_model problem ~units:[] (Array.map not m) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted model accepted");
  (* a model that does not cover all variables is rejected outright *)
  match Sat.Proof.check_model problem ~units:[] [| false; true |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "truncated model accepted"

let test_duplicate_literals_in_originals () =
  (* Tseitin translation can repeat a literal inside one clause.
     Regression: the checker's two watches both landed on copies of the
     same literal, so falsifying the other literals never triggered a
     watcher visit and the clause silently failed to propagate. *)
  let pos = Sat.Cnf.pos and neg = Sat.Cnf.neg in
  let p =
    problem_of
      [
        [ pos 1; pos 1; pos 2; pos 3 ];
        [ neg 2 ];
        [ neg 3 ];
        [ neg 1; pos 4 ];
        [ neg 1; neg 4 ];
      ]
  in
  let _, r, c = solve_certified p in
  check "duplicate-literal instance is unsat" true (r = Sat.Solver.Unsat);
  check "and refuted" true (c.Sat.Proof.kind = `Refutation)

let test_certify_guards () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.pos 1 ];
  Alcotest.check_raises "proof logging must precede clauses"
    (Invalid_argument "Solver.enable_proof: clauses were already added")
    (fun () -> Sat.Solver.enable_proof s);
  let r = Sat.Solver.solve s in
  Alcotest.check_raises "certify needs proof logging"
    (Invalid_argument "Solver.certify: proof logging is not enabled")
    (fun () -> ignore (Sat.Solver.certify s ~assumptions:[] r));
  (* a verdict checked under other assumptions than it was found under
     is rejected, not searched again *)
  let s' = Sat.Solver.create () in
  Sat.Solver.enable_proof s';
  Sat.Solver.add_clause s' [ Sat.Cnf.pos 1; Sat.Cnf.pos 2 ];
  let r' = Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 1 ] s' in
  (match
     Sat.Solver.certify s' ~assumptions:[ Sat.Cnf.pos 1; Sat.Cnf.neg 2 ] r'
   with
  | exception Sat.Proof.Certification_failed _ -> ()
  | _ -> Alcotest.fail "a model of other assumptions was certified");
  match Sat.Solver.certify s' ~assumptions:[ Sat.Cnf.pos 1 ] Sat.Solver.Unsat with
  | exception Sat.Proof.Certification_failed _ -> ()
  | _ -> Alcotest.fail "a satisfiable cell was certified unsat"

(* ---- DRUP text format ---- *)

let test_drup_roundtrip () =
  let steps = refutation_of (Sat.Gen.pigeonhole 4) in
  check "proof is nonempty" true (steps <> []);
  let steps' = Sat.Dimacs.parse_drup (Sat.Dimacs.drup_to_string steps) in
  check "drup text round trip" true (steps = steps')

let test_drup_parse () =
  let steps = Sat.Dimacs.parse_drup "c comment\n\n1 -2 0\nd 1 -2 0\n0\n" in
  check "add, delete, empty" true
    (match steps with
    | [ Sat.Proof.Add a; Sat.Proof.Delete d; Sat.Proof.Add e ] ->
        Array.length a = 2 && Array.length d = 2 && Array.length e = 0
    | _ -> false);
  Alcotest.check_raises "missing terminating zero"
    (Failure "drup: line 1: missing terminating 0") (fun () ->
      ignore (Sat.Dimacs.parse_drup "1 2"));
  Alcotest.check_raises "literals after zero"
    (Failure "drup: line 2: literals after terminating 0") (fun () ->
      ignore (Sat.Dimacs.parse_drup "1 0\nd 2 0 3"))

let test_dimacs_edge_cases () =
  (* blank lines, a clause spanning two lines, an empty clause on its
     own line, and a header whose clause count disagrees with the body
     (accepted loosely, as most tools do) *)
  let p = Sat.Dimacs.parse_string "c hdr\np cnf 4 9\n\n1 -2\n3 0\n0\n-4 0\n" in
  check_int "vars from header" 4 p.Sat.Cnf.num_vars;
  check_int "clauses from body" 3 (Sat.Cnf.num_clauses p);
  check "empty clause parsed" true
    (List.exists
       (fun i -> Sat.Cnf.clause p i = [||])
       (List.init (Sat.Cnf.num_clauses p) Fun.id));
  check "empty clause makes it unsat" true
    (Sat.Solver.solve_problem p = Sat.Solver.Unsat)

let qcheck_dimacs_roundtrip =
  QCheck.Test.make ~count:50 ~name:"dimacs parse/print round trip"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let p = Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:12 ~num_clauses:30 in
      let p' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string p) in
      let p'' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string p') in
      p'.Sat.Cnf.num_vars = p.Sat.Cnf.num_vars
      && p'.Sat.Cnf.lits = p.Sat.Cnf.lits
      && p'.Sat.Cnf.ends = p.Sat.Cnf.ends
      && p'' = p')

(* ---- differential fuzzing with certified verdicts ---- *)

let test_differential_fuzz () =
  let o = Sat.Fuzz.run ~count:250 ~seed:20250806 () in
  check_int "all instances ran" 250 o.Sat.Fuzz.instances;
  check "both polarities exercised" true
    (o.Sat.Fuzz.sat_instances > 0 && o.Sat.Fuzz.unsat_instances > 0);
  check "refutations were logged" true (o.Sat.Fuzz.proof_additions > 0);
  (match o.Sat.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "fuzz failure at instance %d: %s\n%s" f.Sat.Fuzz.index
        f.Sat.Fuzz.detail f.Sat.Fuzz.dimacs);
  (* the run is reproducible from its seed *)
  let o2 = Sat.Fuzz.run ~count:250 ~seed:20250806 () in
  check_int "sat count reproducible" o.Sat.Fuzz.sat_instances
    o2.Sat.Fuzz.sat_instances;
  check_int "proof sizes reproducible" o.Sat.Fuzz.proof_additions
    o2.Sat.Fuzz.proof_additions

(* ---- budgeted solving ---- *)

let test_solve_bounded_unknown () =
  let s = Sat.Solver.of_problem (Sat.Gen.pigeonhole 6) in
  match
    Sat.Solver.solve_bounded ~budget:(Netsim.Budget.create ~conflicts:2 ()) s
  with
  | Sat.Solver.Unknown { conflicts; _ } ->
      Alcotest.(check bool) "stopped at the cap" true (conflicts >= 2)
  | Sat.Solver.Decided _ ->
      Alcotest.fail "pigeonhole-7-into-6 cannot be decided in 2 conflicts"

let test_solve_bounded_resumes () =
  (* an Unknown leaves the solver reusable: a generous retry decides,
     and agrees with the unbounded path on a fresh solver *)
  let p = Sat.Gen.pigeonhole 5 in
  let s = Sat.Solver.of_problem p in
  (match
     Sat.Solver.solve_bounded ~budget:(Netsim.Budget.create ~conflicts:1 ()) s
   with
  | Sat.Solver.Unknown _ -> ()
  | Sat.Solver.Decided _ -> Alcotest.fail "1 conflict cannot decide php-6-5");
  (match Sat.Solver.solve_bounded ~budget:Netsim.Budget.unlimited s with
  | Sat.Solver.Decided Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "retry with unlimited budget must refute");
  Alcotest.(check bool) "matches solve_problem" true
    (Sat.Solver.solve_problem p = Sat.Solver.Unsat)

(* ---- incremental reuse: warm sessions, assumption cores ---- *)

let test_reuse_fuzz () =
  let o = Sat.Fuzz.run_reuse ~count:200 ~seed:20250808 () in
  check_int "all schedules ran" 200 o.Sat.Fuzz.schedules;
  check "warm solves exercised" true (o.Sat.Fuzz.reuse_solves > 200);
  match o.Sat.Fuzz.reuse_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "reuse fuzz failure at schedule %d: %s\n%s"
        f.Sat.Fuzz.index f.Sat.Fuzz.detail f.Sat.Fuzz.dimacs

(* pins the warm-retry claim in solver.mli: learnt clauses are kept
   across an Unknown, so the retry decides with strictly fewer new
   conflicts than the cold solve needed in total *)
let test_warm_retry_fewer_conflicts () =
  let p = Sat.Gen.pigeonhole 6 in
  let cold = Sat.Solver.of_problem p in
  (match Sat.Solver.solve_bounded ~budget:Netsim.Budget.unlimited cold with
  | Sat.Solver.Decided Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "php-7-into-6 must be unsat");
  let cold_conflicts = (Sat.Solver.stats cold).Sat.Solver.conflicts in
  check "cold solve worked for it" true (cold_conflicts > 4);
  let warm = Sat.Solver.of_problem p in
  (match
     Sat.Solver.solve_bounded
       ~budget:(Netsim.Budget.create ~conflicts:(cold_conflicts / 2) ())
       warm
   with
  | Sat.Solver.Unknown _ -> ()
  | Sat.Solver.Decided _ ->
      Alcotest.fail "half the cold budget cannot decide (same trajectory)");
  let before = (Sat.Solver.stats warm).Sat.Solver.conflicts in
  (match Sat.Solver.solve_bounded ~budget:Netsim.Budget.unlimited warm with
  | Sat.Solver.Decided Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "warm retry must refute");
  let retry_conflicts =
    (Sat.Solver.stats warm).Sat.Solver.conflicts - before
  in
  check "retry resumed warm: strictly fewer new conflicts than a cold solve"
    true
    (retry_conflicts < cold_conflicts)

let test_failed_assumptions () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.neg 1; Sat.Cnf.neg 2 ];
  Sat.Solver.add_clause s [ Sat.Cnf.pos 3; Sat.Cnf.pos 4 ];
  let assumptions = [ Sat.Cnf.pos 1; Sat.Cnf.pos 2; Sat.Cnf.neg 3 ] in
  (match Sat.Solver.solve ~assumptions s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat _ -> Alcotest.fail "1 & 2 contradict (!1 | !2)");
  let core = Sat.Solver.failed_assumptions s in
  check "core is non-empty" true (core <> []);
  check "core within assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  check "core avoids the irrelevant assumption" true
    (not (List.mem (Sat.Cnf.neg 3) core));
  (* the core alone refutes: clauses + core units are unsat *)
  let s2 = Sat.Solver.create () in
  Sat.Solver.add_clause s2 [ Sat.Cnf.neg 1; Sat.Cnf.neg 2 ];
  Sat.Solver.add_clause s2 [ Sat.Cnf.pos 3; Sat.Cnf.pos 4 ];
  List.iter (fun l -> Sat.Solver.add_clause s2 [ l ]) core;
  check "core refutes" true (Sat.Solver.solve s2 = Sat.Solver.Unsat);
  (* contradictory assumptions fail before search even starts *)
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.pos 4; Sat.Cnf.neg 4 ] s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat _ -> Alcotest.fail "x & !x must be unsat");
  let core2 = Sat.Solver.failed_assumptions s in
  check "contradictory pair is its own core" true
    (List.mem (Sat.Cnf.pos 4) core2 && List.mem (Sat.Cnf.neg 4) core2);
  (* a Sat answer clears the core *)
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat _ -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "unconstrained solve must be sat");
  check_int "core cleared on Sat" 0
    (List.length (Sat.Solver.failed_assumptions s))

let test_certified_under_assumptions () =
  let p =
    problem_of ~num_vars:4
      [ [ Sat.Cnf.neg 1; Sat.Cnf.pos 2 ]; [ Sat.Cnf.neg 2; Sat.Cnf.pos 3 ] ]
  in
  let s = Sat.Solver.of_problem ~proof:true p in
  let certified assumptions =
    let r = Sat.Solver.solve ~assumptions s in
    (r, Sat.Solver.certify s ~assumptions r)
  in
  (* one warm session: an unsat cell, then a sat cell, then reuse *)
  (match certified [ Sat.Cnf.pos 1; Sat.Cnf.neg 3 ] with
  | Sat.Solver.Unsat, c ->
      check "assumed refutation certified" true (c.Sat.Proof.kind = `Refutation)
  | Sat.Solver.Sat _, _ -> Alcotest.fail "1 & !3 contradicts the implications");
  (match certified [ Sat.Cnf.pos 1 ] with
  | Sat.Solver.Sat m, c ->
      check "model obeys the implication chain" true (m.(2) && m.(3));
      check "assumed model certified" true (c.Sat.Proof.kind = `Model)
  | Sat.Solver.Unsat, _ -> Alcotest.fail "1 alone is satisfiable");
  (* the certification never added the assumptions as clauses: the
     opposite cell still answers its own verdict on the same solver *)
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 1; Sat.Cnf.neg 3 ] s with
  | Sat.Solver.Sat _ -> ()
  | Sat.Solver.Unsat ->
      Alcotest.fail "!1 & !3 satisfiable — certification poisoned the solver");
  (* certify after a bounded solve on the same proof-logging solver,
     dead or alive. php-5-into-4 is refuted at the root, so the solver
     is dead and its trail already ends in the empty clause, which is
     all the check needs; php 4-into-4 is satisfiable. *)
  List.iter
    (fun (name, problem, want_sat) ->
      let s = Sat.Solver.of_problem ~proof:true problem in
      let bounded =
        match Sat.Solver.solve_bounded ~budget:Netsim.Budget.unlimited s with
        | Sat.Solver.Decided r -> r
        | Sat.Solver.Unknown _ -> Alcotest.failf "%s: unbudgeted solve gave up" name
      in
      let is_sat = function Sat.Solver.Sat _ -> true | Sat.Solver.Unsat -> false in
      check (name ^ ": bounded verdict") want_sat (is_sat bounded);
      if not want_sat then
        check (name ^ ": trail already ends in the empty clause") true
          (match List.rev (Sat.Solver.proof_steps s) with
          | Sat.Proof.Add [||] :: _ -> true
          | _ -> false);
      let c = Sat.Solver.certify s ~assumptions:[] bounded in
      check (name ^ ": certificate kind") true
        (c.Sat.Proof.kind = if want_sat then `Model else `Refutation))
    [
      ("root-unsat php 5/4", Sat.Gen.pigeonhole 4, false);
      ("sat php 4/4", Sat.Gen.php_sat 4, true);
    ]

let test_assumption_over_fresh_var () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Cnf.pos 1; Sat.Cnf.pos 2 ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat _ -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "one clause is satisfiable");
  (* an assumption over a variable the solver has never seen, after a
     completed solve: allocated on the fly, honored in the model *)
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.pos 7 ] s with
  | Sat.Solver.Sat m ->
      check "fresh var allocated" true (Array.length m > 7);
      check "assumption honored" true m.(7)
  | Sat.Solver.Unsat -> Alcotest.fail "still satisfiable");
  check_int "vars grown to cover the assumption" 7 (Sat.Solver.num_vars s);
  match Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 7 ] s with
  | Sat.Solver.Sat m -> check "assumption not sticky" true (not m.(7))
  | Sat.Solver.Unsat -> Alcotest.fail "satisfiable with !7 too"

(* ---- the clause store: long clauses, compaction ---- *)

(* One session over random 3-SAT at the phase transition, solved under
   enough assumption sets for [reduce_db] to run many times: the store
   compacts along the way. *)
let compacting_base =
  Sat.Gen.random_ksat ~seed:7 ~k:3 ~num_vars:200 ~num_clauses:852

let compacting_sets n =
  List.init n (fun i ->
      List.init 3 (fun j ->
          let v = 1 + (((i * 37) + (j * 61)) mod 200) in
          if (i + j) mod 2 = 0 then Sat.Cnf.pos v else Sat.Cnf.neg v))

let compactions s = (Sat.Solver.stats s).Sat.Solver.compactions

let same_verdict a b =
  match (a, b) with
  | Sat.Solver.Sat _, Sat.Solver.Sat _ | Sat.Solver.Unsat, Sat.Solver.Unsat ->
      true
  | _ -> false

(* A clause longer than a 64K-word segment gets a segment of its own,
   is moved by compaction like any other, and still propagates. Its
   literals over fresh variables 201.. are all fixed false at the root
   but the first two, so it acts as the binary clause (201 | 202). *)
let test_clause_longer_than_segment () =
  let n = 70_000 in
  let s = Sat.Solver.of_problem compacting_base in
  Sat.Solver.add_clause s (List.init n (fun i -> Sat.Cnf.pos (201 + i)));
  for v = 200 + n downto 203 do
    Sat.Solver.add_clause s [ Sat.Cnf.neg v ]
  done;
  List.iter
    (fun a ->
      let warm = Sat.Solver.solve ~assumptions:a s in
      let cold =
        Sat.Solver.solve ~assumptions:a (Sat.Solver.of_problem compacting_base)
      in
      check "warm verdict = cold verdict" true (same_verdict warm cold);
      match warm with
      | Sat.Solver.Sat m ->
          check "the long clause holds" true (m.(201) || m.(202))
      | Sat.Solver.Unsat -> ())
    (compacting_sets 12);
  check "the store compacted with the long clause in it" true
    (compactions s > 0);
  (match Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 201 ] s with
  | Sat.Solver.Sat m -> check "the long clause propagates" true m.(202)
  | Sat.Solver.Unsat -> Alcotest.fail "(201 | 202) with !201 is satisfiable");
  match Sat.Solver.solve ~assumptions:[ Sat.Cnf.neg 201; Sat.Cnf.neg 202 ] s with
  | Sat.Solver.Unsat ->
      Alcotest.(check (list int))
        "the core is both assumptions"
        [ Sat.Cnf.neg 201; Sat.Cnf.neg 202 ]
        (List.sort compare (Sat.Solver.failed_assumptions s))
  | Sat.Solver.Sat _ -> Alcotest.fail "the long clause was lost"

(* DRUP deletions logged before a compaction stay valid after it: a
   refutation whose search compacted the store, and a proof-logging
   session that compacted between its certified verdicts, are both
   accepted by the independent checker. *)
let test_certified_across_compaction () =
  let p = Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:120 ~num_clauses:520 in
  let s, r, c = solve_certified p in
  check "3sat-120 is unsat" true (r = Sat.Solver.Unsat);
  check "compacted mid-proof" true (compactions s > 0);
  check "deletions in the proof" true (c.Sat.Proof.deletions > 0);
  let session = Sat.Solver.of_problem ~proof:true compacting_base in
  let verdicts =
    List.map
      (fun assumptions ->
        let before = compactions session in
        let r = Sat.Solver.solve ~assumptions session in
        (r, before, Sat.Solver.certify session ~assumptions r))
      (compacting_sets 3)
  in
  match List.rev verdicts with
  | (Sat.Solver.Unsat, before, r) :: _ ->
      check "the session compacted before its refutation" true (before > 0);
      check "refutation with deletions" true
        (r.Sat.Proof.kind = `Refutation && r.Sat.Proof.deletions > 0)
  | _ -> Alcotest.fail "the third set is a certified refutation"

(* Reuse schedules long enough to compact the warm solver's store,
   checked step by step against cold solvers by [Fuzz.check_schedule];
   a replay of the same schedule counts the compactions. *)
let test_reuse_schedules_compact () =
  List.iter
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let lit () =
        let v = 1 + Netsim.Rng.int rng 200 in
        if Netsim.Rng.bool rng then Sat.Cnf.pos v else Sat.Cnf.neg v
      in
      let ops =
        List.concat_map
          (fun a ->
            if Netsim.Rng.int rng 3 = 0 then
              [ Sat.Fuzz.Add_clause [ lit (); lit (); lit () ];
                Sat.Fuzz.Solve_with a ]
            else [ Sat.Fuzz.Solve_with a ])
          (List.map (fun _ -> [ lit (); lit (); lit () ]) (compacting_sets 10))
      in
      (match Sat.Fuzz.check_schedule compacting_base ops with
      | None -> ()
      | Some (i, what) -> Alcotest.failf "seed %d, step %d: %s" seed i what);
      let warm = Sat.Solver.of_problem compacting_base in
      List.iter
        (function
          | Sat.Fuzz.Add_clause c -> Sat.Solver.add_clause warm c
          | Sat.Fuzz.Solve_with a ->
              ignore (Sat.Solver.solve ~assumptions:a warm))
        ops;
      if compactions warm = 0 then
        Alcotest.failf "seed %d: the schedule never compacted" seed)
    [ 1; 2 ]

(* The loader's two paths: [of_problem] loading a whole problem, and a
   fresh solver fed its clauses one by one through [add_clause] (its
   variables made first, as [of_problem] makes them). They must search
   alike: same verdict and model, same counters, same DRUP trail. The
   problems are [Fuzz] problems with what root-level simplification
   must handle mixed in: duplicate literals, tautologies, units and, in
   one instance of four, the empty clause. *)
let messy_problem seed =
  let rng = Netsim.Rng.create seed in
  let num_vars = Netsim.Rng.int_in rng 6 16 in
  let base =
    Sat.Fuzz.random_problem rng ~k:(Netsim.Rng.pick rng [ 2; 3 ]) ~num_vars
      ~num_clauses:(num_vars * Netsim.Rng.pick rng [ 2; 3; 4 ])
  in
  let lit () =
    let v = 1 + Netsim.Rng.int rng num_vars in
    if Netsim.Rng.bool rng then Sat.Cnf.pos v else Sat.Cnf.neg v
  in
  let n = Sat.Cnf.num_clauses base in
  let empty_at = if Netsim.Rng.int rng 4 = 0 then Netsim.Rng.int rng n else -1 in
  let b = Sat.Cnf.builder ~num_vars () in
  for i = 0 to n - 1 do
    if i = empty_at then Sat.Cnf.close_clause b;
    let c = Array.to_list (Sat.Cnf.clause base i) in
    match Netsim.Rng.int rng 10 with
    | 0 -> Sat.Cnf.add_clause b (c @ [ List.hd c ])
    | 1 ->
        let l = lit () in
        Sat.Cnf.add_clause b ((l :: c) @ [ Sat.Cnf.negate l ])
    | 2 ->
        Sat.Cnf.add_clause b [ lit () ];
        Sat.Cnf.add_clause b c
    | _ -> Sat.Cnf.add_clause b c
  done;
  Sat.Cnf.freeze b

let loads_alike ~proof p =
  let loaded = Sat.Solver.of_problem ~proof p in
  let fed = Sat.Solver.create () in
  if proof then Sat.Solver.enable_proof fed;
  Sat.Solver.ensure_vars fed p.Sat.Cnf.num_vars;
  for i = 0 to Sat.Cnf.num_clauses p - 1 do
    Sat.Solver.add_clause fed (Array.to_list (Sat.Cnf.clause p i))
  done;
  let r1 = Sat.Solver.solve loaded in
  let r2 = Sat.Solver.solve fed in
  let counters s =
    let st = Sat.Solver.stats s in
    Sat.Solver.
      [ st.decisions; st.propagations; st.conflicts; st.restarts;
        st.learnt_literals; st.clauses_added; st.max_vars ]
  in
  r1 = r2
  && counters loaded = counters fed
  && Sat.Solver.proof_steps loaded = Sat.Solver.proof_steps fed

let qcheck_loader_differential =
  QCheck.Test.make ~count:150
    ~name:"of_problem = add_clause one by one, with and without proofs"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = messy_problem seed in
      loads_alike ~proof:false p && loads_alike ~proof:true p)

let qcheck_solve_bounded_agrees =
  QCheck.Test.make ~count:30
    ~name:"generous solve_bounded verdict agrees with solve"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:18 ~num_clauses:76 in
      let bounded =
        Sat.Solver.solve_bounded ~budget:Netsim.Budget.unlimited
          (Sat.Solver.of_problem p)
      in
      match (bounded, Sat.Solver.solve_problem p) with
      | Sat.Solver.Decided (Sat.Solver.Sat _), Sat.Solver.Sat _
      | Sat.Solver.Decided Sat.Solver.Unsat, Sat.Solver.Unsat -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "literal encoding" `Quick test_literal_encoding;
    Alcotest.test_case "zero literal rejected" `Quick test_lit_of_int_zero;
    Alcotest.test_case "problem building" `Quick test_problem_building;
    Alcotest.test_case "variable-0 literals rejected" `Quick
      test_variable_zero_rejected;
    Alcotest.test_case "check_model" `Quick test_check_model;
    Alcotest.test_case "check_model loops: falsified, empty, satisfied" `Quick
      test_check_model_loops;
    Alcotest.test_case "vec push grows past its capacity" `Quick test_vec_push_grows;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap rescale" `Quick test_heap_rescale;
    Alcotest.test_case "heap grow" `Quick test_heap_grow;
    Alcotest.test_case "dimacs round trip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs comments/header" `Quick test_dimacs_comments_and_header;
    Alcotest.test_case "dimacs malformed" `Quick test_dimacs_malformed;
    Alcotest.test_case "formula simplification" `Quick test_formula_simplification;
    Alcotest.test_case "tseitin equisatisfiable" `Quick test_tseitin_equisatisfiable;
    Alcotest.test_case "tseitin models evaluate true" `Quick test_tseitin_model_evaluates_true;
    Alcotest.test_case "tseitin checks the variable range" `Quick
      test_tseitin_variable_range;
    Alcotest.test_case "formulas interned in two domains, solved in a third"
      `Quick test_cross_domain_interning;
    Alcotest.test_case "at_most_one / exactly_one" `Quick test_at_most_one;
    Alcotest.test_case "cdcl vs dpll on random 3-sat" `Quick test_solver_matches_dpll;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "pigeonhole sat variant" `Quick test_pigeonhole_sat_variant;
    Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
    Alcotest.test_case "incremental assumptions" `Quick test_assumptions;
    Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
    Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
    Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
    Alcotest.test_case "stats reported" `Quick test_stats_reported;
    Alcotest.test_case "dpll budget" `Quick test_dpll_budget;
    Alcotest.test_case "certified unsat refutation" `Quick test_certified_unsat_refutation;
    Alcotest.test_case "certified sat model" `Quick test_certified_sat_model;
    Alcotest.test_case "certified proof with deletions" `Quick test_certified_with_deletions;
    Alcotest.test_case "corrupted proof rejected" `Quick test_corrupted_proof_rejected;
    Alcotest.test_case "corrupted model rejected" `Quick test_corrupted_model_rejected;
    Alcotest.test_case "duplicate literals certified" `Quick test_duplicate_literals_in_originals;
    Alcotest.test_case "certify guards" `Quick test_certify_guards;
    Alcotest.test_case "drup round trip" `Quick test_drup_roundtrip;
    Alcotest.test_case "drup parsing" `Quick test_drup_parse;
    Alcotest.test_case "dimacs edge cases" `Quick test_dimacs_edge_cases;
    Alcotest.test_case "differential fuzz, certified" `Quick test_differential_fuzz;
    Alcotest.test_case "solve_bounded gives up at the cap" `Quick test_solve_bounded_unknown;
    Alcotest.test_case "solve_bounded resumes after Unknown" `Quick test_solve_bounded_resumes;
    Alcotest.test_case "reuse fuzz: warm solver = cold oracle" `Quick test_reuse_fuzz;
    Alcotest.test_case "warm retry beats cold solve" `Quick test_warm_retry_fewer_conflicts;
    Alcotest.test_case "failed_assumptions core" `Quick test_failed_assumptions;
    Alcotest.test_case "certified solve under assumptions" `Quick
      test_certified_under_assumptions;
    Alcotest.test_case "assumption over a fresh variable" `Quick test_assumption_over_fresh_var;
    Alcotest.test_case "a clause longer than a store segment" `Quick
      test_clause_longer_than_segment;
    Alcotest.test_case "certified refutations across compaction" `Quick
      test_certified_across_compaction;
    Alcotest.test_case "reuse schedules that compact = cold oracle" `Quick
      test_reuse_schedules_compact;
    QCheck_alcotest.to_alcotest qcheck_solve_bounded_agrees;
    QCheck_alcotest.to_alcotest qcheck_loader_differential;
    QCheck_alcotest.to_alcotest qcheck_cdcl_vs_dpll;
    QCheck_alcotest.to_alcotest qcheck_luby_like_restart_progress;
    QCheck_alcotest.to_alcotest qcheck_dimacs_roundtrip;
  ]
