(* Tests for the paper's model itself (lib/core): construction of both
   encodings, satisfiability of the facts, and the fast consensus
   verdicts. The slow UNSAT verdicts (Result 1 positives, 10-40s each)
   are exercised by examples/policy_matrix.ml and the bench harness, not
   here; the attack counterexamples are quick and are checked here. *)

let check = Alcotest.(check bool)

let tiny_scope =
  { Core.Mca_model.small_scope with Core.Mca_model.states = 3; values = 5 }

let test_build_validates () =
  Alcotest.check_raises "target out of range"
    (Invalid_argument "Mca_model.build: target outside 1..vnodes") (fun () ->
      ignore
        (Core.Mca_model.build Core.Mca_model.Efficient
           { Core.Mca_model.honest_submodular with Core.Mca_model.target = 5 }
           tiny_scope))

let test_facts_satisfiable_efficient () =
  List.iter
    (fun (name, p) ->
      let m = Core.Mca_model.build Core.Mca_model.Efficient p tiny_scope in
      match Core.Mca_model.run_instance m with
      | Alloylite.Compile.Sat _ -> ()
      | Alloylite.Compile.Unsat -> Alcotest.failf "%s: facts inconsistent" name)
    Core.Mca_model.paper_policies

let test_facts_satisfiable_naive () =
  let m =
    Core.Mca_model.build Core.Mca_model.Naive Core.Mca_model.honest_submodular
      { tiny_scope with Core.Mca_model.states = 2 }
  in
  match Core.Mca_model.run_instance m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "naive facts inconsistent"

(* The facts alone, at every scope the repo pins, benches or serves.
   Two pnodes need four distinct bids above zero, which six values
   give; three pnodes need six, and the efficient encoding's [value]
   signature holds only five (its first atom is the zero bid). So every
   three-pnode check is UNSAT whatever it asserts, and so is 2p2v with
   values 4. These rows are ROADMAP's open item "Every SAT verdict at
   three pnodes is vacuous": the change that derives the value bound
   from pnodes must flip the [false] rows and keep the [true] ones. *)
let test_facts_have_an_instance () =
  let scope pnodes vnodes states values =
    { Core.Mca_model.small_scope with
      Core.Mca_model.pnodes; vnodes; states; values }
  in
  List.iter
    (fun (label, sc, expect) ->
      let p = Core.Mca_model.honest_submodular in
      let m =
        Core.Mca_model.build Core.Mca_model.Efficient
          { p with
            Core.Mca_model.target =
              min p.Core.Mca_model.target sc.Core.Mca_model.vnodes }
          sc
      in
      let found =
        match Core.Mca_model.run_instance m with
        | Alloylite.Compile.Sat _ -> true
        | Alloylite.Compile.Unsat -> false
      in
      check label expect found)
    [
      ("2p2v/4st values 6", scope 2 2 4 6, true);
      ("2p2v/5st values 6", scope 2 2 5 6, true);
      ("2p2v/6st values 6", scope 2 2 6 6, true);
      ("2p2v/3st values 5", scope 2 2 3 5, true);
      ("2p2v/4st values 5", scope 2 2 4 5, true);
      ("3p1v/3st values 6 (vacuous)", scope 3 1 3 6, false);
      ("3p2v/5st values 6 (vacuous)", scope 3 2 5 6, false);
      ("3p2v/6st values 6 (vacuous)", scope 3 2 6 6, false);
      ("3p2v/3st values 4 (vacuous)", scope 3 2 3 4, false);
      ("2p2v/2st values 4 (vacuous)", scope 2 2 2 4, false);
      ("2p2v/3st values 4 (vacuous)", scope 2 2 3 4, false);
    ]

let test_attack_counterexample () =
  (* Result 2 at a reduced trace length: the attack refutes consensus *)
  let p = { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } in
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient p
      { Core.Mca_model.small_scope with Core.Mca_model.states = 4 }
  in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "rebid attack must refute consensus"

let test_nonsubmod_release_counterexample () =
  (* Result 1's failing combination *)
  let p =
    { Core.Mca_model.honest_submodular with
      Core.Mca_model.submodular = false;
      release_outbid = true }
  in
  let m = Core.Mca_model.build Core.Mca_model.Efficient p Core.Mca_model.small_scope in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat ->
      Alcotest.fail "non-submodular + release must refute consensus"

let test_translation_stats_shape () =
  let stats encoding =
    Relalg.Translate.translation_stats
      (Core.Mca_model.translation
         (Core.Mca_model.build encoding Core.Mca_model.honest_submodular tiny_scope))
  in
  let eff = stats Core.Mca_model.Efficient in
  let naive = stats Core.Mca_model.Naive in
  check "both generate clauses" true
    (eff.Relalg.Translate.clauses > 0 && naive.Relalg.Translate.clauses > 0);
  (* the paper's efficiency claim: the value/bidVector encoding is
     smaller than the Int encoding (259K -> 190K in the paper) *)
  check "efficient encoding smaller" true
    (eff.Relalg.Translate.clauses < naive.Relalg.Translate.clauses)

let test_buffered_facts_satisfiable () =
  let m =
    Core.Mca_model.build Core.Mca_model.Buffered Core.Mca_model.honest_submodular
      { tiny_scope with Core.Mca_model.states = 3 }
  in
  match Core.Mca_model.run_instance m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "buffered facts inconsistent"

let test_buffered_attack_counterexample () =
  let p = { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } in
  let m =
    Core.Mca_model.build Core.Mca_model.Buffered p
      { Core.Mca_model.small_scope with Core.Mca_model.states = 4 }
  in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "buffered attack must refute consensus"

let test_symmetry_preserves_verdicts () =
  (* the lex-leader predicates must not change any verdict *)
  let scope = { Core.Mca_model.small_scope with Core.Mca_model.states = 4 } in
  List.iter
    (fun (name, p) ->
      let m = Core.Mca_model.build Core.Mca_model.Efficient p scope in
      let plain =
        match Core.Mca_model.check_consensus m with
        | Alloylite.Compile.Sat _ -> true
        | Alloylite.Compile.Unsat -> false
      in
      let sym =
        match Core.Mca_model.check_consensus ~symmetry:true m with
        | Alloylite.Compile.Sat _ -> true
        | Alloylite.Compile.Unsat -> false
      in
      if plain <> sym then
        Alcotest.failf "%s: symmetry changed the verdict (%b vs %b)" name plain sym)
    [ ("submod", Core.Mca_model.honest_submodular);
      ( "attack",
        { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } ) ]

(* ---- certification: one solve, then a check of its verdict ---- *)

(* the two-pnode scope whose "submod" cell holds and whose
   "submod+release" cell is violated (the differential suite's) *)
let scope_2p2v =
  { Core.Mca_model.small_scope with Core.Mca_model.states = 4; values = 5 }

let policy label = List.assoc label Core.Mca_model.paper_policies

(* the listing check [label] on a fresh certifying session, solved *)
let listing_session label =
  let c, goal = List.assoc label (Test_cnf_identity.listing_goals ()) in
  let tr = Alloylite.Compile.translation c goal in
  let sn = Relalg.Translate.session ~certify:true tr in
  (tr, sn, Relalg.Translate.solve_cell ~budget:Netsim.Budget.unlimited sn [])

let search_counters what = function
  | Some st ->
      (st.Sat.Solver.decisions, st.Sat.Solver.conflicts, st.Sat.Solver.propagations)
  | None -> Alcotest.failf "%s: the circuit constant-folded" what

(* [certify] answers a certificate of [kind], and the solver's
   decisions, conflicts and propagations stay as they were *)
let certified_without_search what ~stats ~certify kind =
  let before = search_counters what (stats ()) in
  (match certify () with
  | Some r -> check (what ^ ": certificate kind") true (r.Sat.Proof.kind = kind)
  | None -> Alcotest.failf "%s: no certificate" what);
  Alcotest.(check (triple int int int))
    (what ^ ": no decision, conflict or propagation")
    before
    (search_counters what (stats ()))

let test_certify_runs_no_search () =
  (* without assumptions: a refuted check and a counterexample *)
  List.iter
    (fun (label, kind) ->
      let _, sn, _ = listing_session label in
      certified_without_search label
        ~stats:(fun () -> Relalg.Translate.session_stats sn)
        ~certify:(fun () -> Relalg.Translate.certify sn)
        kind)
    [ ("check uniqueID", `Refutation); ("check everyoneBids", `Model) ];
  (* under selector assumptions, on one warm session *)
  let sh = Core.Mca_model.build_shared Core.Mca_model.Efficient scope_2p2v in
  let sn = Core.Mca_model.incremental_session ~certify:true sh in
  List.iter
    (fun (label, kind) ->
      ignore
        (Core.Mca_model.check_consensus_incremental
           ~budget:Netsim.Budget.unlimited sn (policy label));
      certified_without_search label
        ~stats:(fun () -> Core.Mca_model.session_solver_stats sn)
        ~certify:(fun () -> Core.Mca_model.certify sn)
        kind)
    [ ("submod", `Refutation); ("submod+release", `Model) ]

(* a decided cell, then a conflict-capped one, then that one decided *)
let test_budgeted_certified_verdict () =
  let sh = Core.Mca_model.build_shared Core.Mca_model.Efficient scope_2p2v in
  let sn = Core.Mca_model.incremental_session ~certify:true sh in
  let solve budget label =
    Core.Mca_model.check_consensus_incremental ~budget sn (policy label)
  in
  let certified what kind =
    match Core.Mca_model.certify sn with
    | Some r -> check what true (r.Sat.Proof.kind = kind)
    | None -> Alcotest.failf "%s: no certificate" what
  in
  ignore (solve Netsim.Budget.unlimited "submod+release");
  certified "a decided verdict is certified" `Model;
  (match solve (Netsim.Budget.create ~conflicts:5 ()) "submod" with
  | Relalg.Translate.Unknown _ -> ()
  | Relalg.Translate.Decided _ -> Alcotest.fail "five conflicts decided the submod cell");
  Alcotest.check_raises "an Unknown carries no certificate, not the last one"
    (Invalid_argument "Translate.certify: no decided verdict to certify")
    (fun () -> ignore (Core.Mca_model.certify sn));
  (match solve Netsim.Budget.unlimited "submod" with
  | Relalg.Translate.Decided Relalg.Translate.Unsat -> ()
  | _ -> Alcotest.fail "the submod cell holds");
  certified "the cell decided after its Unknown is certified" `Refutation

(* The verdict is returned first and checked by a separate call, so a
   rejected certificate cannot take it back. Here the problem a
   counterexample is checked against is negated literal by literal
   after the solve (the session's solver checks against that very
   buffer), so the root unit is false under the model. *)
let test_rejected_certificate_keeps_verdict () =
  let tr, sn, verdict = listing_session "check everyoneBids" in
  let lits = tr.Relalg.Translate.cnf.Sat.Formula.problem.Sat.Cnf.lits in
  Array.iteri (fun i l -> lits.(i) <- Sat.Cnf.negate l) lits;
  (match Relalg.Translate.certify sn with
  | exception Sat.Proof.Certification_failed _ -> ()
  | _ -> Alcotest.fail "a model of another problem was certified");
  match verdict with
  | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> ()
  | _ -> Alcotest.fail "everyoneBids has a counterexample"

let test_describe () =
  let m = Core.Mca_model.build Core.Mca_model.Efficient Core.Mca_model.honest_submodular tiny_scope in
  let d = Core.Mca_model.describe m in
  check "mentions encoding" true (String.length d > 10)

let suite =
  [
    Alcotest.test_case "build validates" `Quick test_build_validates;
    Alcotest.test_case "facts satisfiable (efficient, all policies)" `Slow
      test_facts_satisfiable_efficient;
    Alcotest.test_case "facts satisfiable (naive)" `Slow test_facts_satisfiable_naive;
    Alcotest.test_case "facts have an instance" `Slow test_facts_have_an_instance;
    Alcotest.test_case "result 2: attack counterexample" `Slow test_attack_counterexample;
    Alcotest.test_case "result 1: nonsubmod+release counterexample" `Slow
      test_nonsubmod_release_counterexample;
    Alcotest.test_case "encoding sizes (E5 shape)" `Slow test_translation_stats_shape;
    Alcotest.test_case "buffered facts satisfiable" `Slow test_buffered_facts_satisfiable;
    Alcotest.test_case "buffered attack counterexample" `Slow test_buffered_attack_counterexample;
    Alcotest.test_case "symmetry preserves verdicts" `Slow test_symmetry_preserves_verdicts;
    Alcotest.test_case "describe" `Quick test_describe;
    Alcotest.test_case "certifying runs no search" `Quick test_certify_runs_no_search;
    Alcotest.test_case "budgeted certified verdict" `Quick
      test_budgeted_certified_verdict;
    Alcotest.test_case "a rejected certificate keeps its verdict" `Quick
      test_rejected_certificate_keeps_verdict;
  ]
