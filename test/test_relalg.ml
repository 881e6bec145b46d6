(* Tests for the relational-logic engine: matrices against the ground
   evaluator, bit-vector arithmetic against native integers, and the
   full translate-solve-read-back loop. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Universe / Tuple ---- *)

let test_universe () =
  let u = Relalg.Universe.create [ "a"; "b"; "c" ] in
  check_int "size" 3 (Relalg.Universe.size u);
  Alcotest.(check string) "name" "b" (Relalg.Universe.name u 1);
  check_int "index" 2 (Relalg.Universe.index u "c");
  check "mem" true (Relalg.Universe.mem u "a");
  check "not mem" false (Relalg.Universe.mem u "z");
  Alcotest.check_raises "duplicate atoms"
    (Invalid_argument "Universe.create: duplicate atom \"a\"") (fun () ->
      ignore (Relalg.Universe.create [ "a"; "a" ]))

let test_universe_ints () =
  let u = Relalg.Universe.create_with_ints [ "x" ] [ ("0", 0); ("1", 1) ] in
  check_int "total atoms" 3 (Relalg.Universe.size u);
  check "x has no value" true (Relalg.Universe.int_value u 0 = None);
  check "1 has value" true (Relalg.Universe.int_value u 2 = Some 1);
  check_int "int atom count" 2 (List.length (Relalg.Universe.int_atoms u))

let test_tuple_ops () =
  let u = Relalg.Universe.create [ "a"; "b" ] in
  check_int "all unary" 2 (List.length (Relalg.Tuple.all u 1));
  check_int "all binary" 4 (List.length (Relalg.Tuple.all u 2));
  check_int "product" 4
    (List.length (Relalg.Tuple.product [ [ 0 ]; [ 1 ] ] [ [ 0 ]; [ 1 ] ]));
  check "subset" true (Relalg.Tuple.subset [ [ 0 ] ] [ [ 0 ]; [ 1 ] ]);
  check "not subset" false (Relalg.Tuple.subset [ [ 0 ]; [ 1 ] ] [ [ 0 ] ])

(* ---- Bounds ---- *)

let test_bounds_validation () =
  let u = Relalg.Universe.create [ "a"; "b" ] in
  let b = Relalg.Bounds.create u in
  let b = Relalg.Bounds.declare b "r" ~arity:2 ~lower:[ [ 0; 1 ] ] ~upper:[ [ 0; 1 ]; [ 1; 0 ] ] in
  check "declared" true (Relalg.Bounds.mem b "r");
  let r = Relalg.Bounds.find b "r" in
  check_int "lower size" 1 (List.length r.Relalg.Bounds.lower);
  Alcotest.check_raises "redeclaration"
    (Invalid_argument "Bounds.declare: r already declared") (fun () ->
      ignore (Relalg.Bounds.declare b "r" ~arity:1 ~lower:[] ~upper:[]));
  Alcotest.check_raises "lower not in upper"
    (Invalid_argument "Bounds.declare s: lower not within upper") (fun () ->
      ignore (Relalg.Bounds.declare b "s" ~arity:1 ~lower:[ [ 0 ] ] ~upper:[ [ 1 ] ]))

(* ---- Bitvec ---- *)

let test_bitvec_constants () =
  List.iter
    (fun n ->
      let v = Relalg.Bitvec.of_int n in
      check_int (Printf.sprintf "round trip %d" n) n
        (Relalg.Bitvec.to_int (fun _ -> false) v))
    [ 0; 1; -1; 5; -8; 127; -128; 1000 ]

let qcheck_bitvec_arith =
  QCheck.Test.make ~count:300 ~name:"bitvec add/sub/mul/neg match native ints"
    QCheck.(pair (int_range (-200) 200) (int_range (-200) 200))
    (fun (x, y) ->
      let bx = Relalg.Bitvec.of_int x and by = Relalg.Bitvec.of_int y in
      let env _ = false in
      Relalg.Bitvec.to_int env (Relalg.Bitvec.add bx by) = x + y
      && Relalg.Bitvec.to_int env (Relalg.Bitvec.sub bx by) = x - y
      && Relalg.Bitvec.to_int env (Relalg.Bitvec.neg bx) = -x
      && Relalg.Bitvec.to_int env (Relalg.Bitvec.mul bx by) = x * y)

let qcheck_bitvec_compare =
  QCheck.Test.make ~count:300 ~name:"bitvec comparisons match native ints"
    QCheck.(pair (int_range (-100) 100) (int_range (-100) 100))
    (fun (x, y) ->
      let bx = Relalg.Bitvec.of_int x and by = Relalg.Bitvec.of_int y in
      let ev f = Sat.Formula.eval (fun _ -> false) f in
      ev (Relalg.Bitvec.lt bx by) = (x < y)
      && ev (Relalg.Bitvec.le bx by) = (x <= y)
      && ev (Relalg.Bitvec.eq bx by) = (x = y)
      && ev (Relalg.Bitvec.gt bx by) = (x > y)
      && ev (Relalg.Bitvec.ge bx by) = (x >= y))

let test_bitvec_count () =
  let fs = [ Sat.Formula.tt; Sat.Formula.ff; Sat.Formula.tt; Sat.Formula.tt ] in
  check_int "count of constants" 3
    (Relalg.Bitvec.to_int (fun _ -> false) (Relalg.Bitvec.count fs))

let test_bitvec_sum_empty () =
  check_int "empty sum" 0
    (Relalg.Bitvec.to_int (fun _ -> false) (Relalg.Bitvec.sum []))

(* ---- Matrix vs Eval: random expression oracle ---- *)

let universe4 = Relalg.Universe.create [ "a"; "b"; "c"; "d" ]

(* random instance with two unary and two binary relations *)
let random_instance rng =
  let pick_tuples arity =
    List.filter
      (fun _ -> Netsim.Rng.bool rng)
      (Relalg.Tuple.all universe4 arity)
  in
  Relalg.Instance.create universe4
    [
      ("s1", pick_tuples 1);
      ("s2", pick_tuples 1);
      ("r1", pick_tuples 2);
      ("r2", pick_tuples 2);
    ]

(* random expression of a given arity over the declared relations *)
let rec random_expr rng arity depth : Relalg.Ast.expr =
  let d = Stdlib.( - ) depth 1 and ar1 = Stdlib.( + ) arity 1 in
  let open Relalg.Ast in
  if depth = 0 then
    match arity with
    | 1 -> (match Netsim.Rng.int rng 3 with
            | 0 -> rel "s1"
            | 1 -> rel "s2"
            | _ -> Univ)
    | 2 -> (match Netsim.Rng.int rng 3 with
            | 0 -> rel "r1"
            | 1 -> rel "r2"
            | _ -> Iden)
    | _ -> rel "r1" --> rel "s1"
  else
    match Netsim.Rng.int rng (if arity = 2 then 8 else 5) with
    | 0 -> random_expr rng arity d + random_expr rng arity d
    | 1 -> random_expr rng arity d - random_expr rng arity d
    | 2 -> random_expr rng arity d & random_expr rng arity d
    | 3 -> join (random_expr rng 1 d) (random_expr rng ar1 d)
    | 4 when arity = 2 -> random_expr rng 1 d --> random_expr rng 1 d
    | 4 -> random_expr rng arity d
    | 5 -> transpose (random_expr rng 2 d)
    | 6 -> closure (random_expr rng 2 d)
    | _ -> override (random_expr rng 2 d) (random_expr rng 2 d)

let rec random_fmla rng depth : Relalg.Ast.formula =
  let d = Stdlib.( - ) depth 1 in
  let open Relalg.Ast in
  if depth = 0 then
    match Netsim.Rng.int rng 4 with
    | 0 -> some (random_expr rng 1 1)
    | 1 -> no (random_expr rng 1 1)
    | 2 -> random_expr rng 2 1 <=: random_expr rng 2 1
    | _ -> card (random_expr rng 1 1) <=! i 3
  else
    match Netsim.Rng.int rng 6 with
    | 0 -> not_ (random_fmla rng d)
    | 1 -> and_ [ random_fmla rng d; random_fmla rng d ]
    | 2 -> or_ [ random_fmla rng d; random_fmla rng d ]
    | 3 -> for_all [ ("x", rel "s1") ] (v "x" <=: random_expr rng 1 d)
    | 4 -> exists [ ("x", Univ) ] (v "x" <=: random_expr rng 1 d)
    | _ -> random_fmla rng d

(* exact bounds for a concrete instance: translation must agree with
   ground evaluation *)
let bounds_of_instance inst =
  let b = Relalg.Bounds.create universe4 in
  List.fold_left
    (fun b (name, tuples) ->
      let arity = if name.[0] = 's' then 1 else 2 in
      Relalg.Bounds.declare_exact b name ~arity tuples)
    b
    (Relalg.Instance.rels inst)

(* The one solve path: translate, then a throwaway session — opened
   for this solve and dropped. *)
let solve b f =
  match
    Relalg.Translate.solve_cell ~budget:Netsim.Budget.unlimited
      (Relalg.Translate.session (Relalg.Translate.translate b f))
      []
  with
  | Relalg.Translate.Decided o -> o
  | Relalg.Translate.Unknown r -> Alcotest.failf "unbudgeted solve gave up: %s" r

(* counterexample search: an instance of facts ∧ ¬assertion *)
let check_assertion b ~assertion ~facts =
  solve b (Relalg.Ast.and_ [ facts; Relalg.Ast.not_ assertion ])

let test_translate_matches_eval () =
  let rng = Netsim.Rng.create 31 in
  for _ = 1 to 150 do
    let inst = random_instance rng in
    let f = random_fmla rng 2 in
    let expected = Relalg.Eval.holds inst f in
    let bounds = bounds_of_instance inst in
    let got =
      match solve bounds f with
      | Relalg.Translate.Sat _ -> true
      | Relalg.Translate.Unsat -> false
    in
    if expected <> got then
      Alcotest.failf "translate/eval disagree on %a (expected %b)"
        Relalg.Ast.pp_formula f expected
  done

(* Random formulas whose expressions read quantified variables from
   enclosing scopes, so the translator's memo must tell apart one
   subterm under different bindings of the variables it reads — and
   only of those. [scope] lists the names in scope, innermost first.
   Over a run, [bound_fmla] produces nested quantifiers whose inner
   expressions read the outer variable, shadowed rebindings,
   multi-decl quantifiers whose second domain reads the first
   variable, and comprehensions. *)
let rec bound_expr rng scope depth : Relalg.Ast.expr =
  let open Relalg.Ast in
  let d = Stdlib.( - ) depth 1 in
  let leaf () =
    match scope with
    | x :: outer when Netsim.Rng.int rng 3 > 0 ->
        (* the innermost name, or the next one out *)
        v (match outer with y :: _ when Netsim.Rng.bool rng -> y | _ -> x)
    | _ -> random_expr rng 1 0
  in
  if depth <= 0 then leaf ()
  else
    match Netsim.Rng.int rng 5 with
    | 0 -> bound_expr rng scope d + bound_expr rng scope d
    | 1 -> bound_expr rng scope d - bound_expr rng scope d
    | 2 -> join (bound_expr rng scope d) (random_expr rng 2 0)
    | 3 ->
        (* a comprehension over a name that may already be bound *)
        let x = if Netsim.Rng.bool rng then "x" else "y" in
        compr [ (x, bound_expr rng scope d) ] (bound_fmla rng (x :: scope) d)
    | _ -> leaf ()

and bound_fmla rng scope depth : Relalg.Ast.formula =
  let open Relalg.Ast in
  let d = Stdlib.( - ) depth 1 in
  let quant decls body =
    if Netsim.Rng.bool rng then for_all decls body else exists decls body
  in
  if depth <= 0 then
    match Netsim.Rng.int rng 3 with
    | 0 -> bound_expr rng scope 1 <=: bound_expr rng scope 1
    | 1 -> some (bound_expr rng scope 1)
    | _ -> no (bound_expr rng scope 1)
  else
    match Netsim.Rng.int rng 7 with
    | 0 -> not_ (bound_fmla rng scope d)
    | 1 -> and_ [ bound_fmla rng scope d; bound_fmla rng scope d ]
    | 2 -> or_ [ bound_fmla rng scope d; bound_fmla rng scope d ]
    | 3 ->
        (* nested quantifiers over two names: the inner body reads both *)
        quant [ ("x", bound_expr rng scope 1) ]
          (quant [ ("y", bound_expr rng ("x" :: scope) 1) ]
             (bound_fmla rng ("y" :: "x" :: scope) d))
    | 4 ->
        (* a shadowed rebinding: the inner x's domain reads the outer x *)
        quant [ ("x", bound_expr rng scope 1) ]
          (and_
             [ bound_fmla rng ("x" :: scope) 0;
               quant [ ("x", join (v "x") (rel "r1") + bound_expr rng scope 0) ]
                 (bound_fmla rng ("x" :: scope) d) ])
    | 5 ->
        (* all x: s1, y: x.r1 | ... — the second domain reads the first *)
        quant
          [ ("x", bound_expr rng scope 0); ("y", join (v "x") (random_expr rng 2 0)) ]
          (bound_fmla rng ("y" :: "x" :: scope) d)
    | _ -> some (compr [ ("y", bound_expr rng scope 1) ] (bound_fmla rng ("y" :: scope) d))

let test_translate_matches_eval_bindings () =
  let rng = Netsim.Rng.create 4242 in
  for _ = 1 to 150 do
    let inst = random_instance rng in
    let f = bound_fmla rng [] 3 in
    let expected = Relalg.Eval.holds inst f in
    let got =
      match solve (bounds_of_instance inst) f with
      | Relalg.Translate.Sat _ -> true
      | Relalg.Translate.Unsat -> false
    in
    if expected <> got then
      Alcotest.failf "translate/eval disagree on %a (expected %b)"
        Relalg.Ast.pp_formula f expected
  done

let test_solver_instances_satisfy_eval () =
  (* with loose bounds, any instance the solver returns must satisfy the
     formula under ground evaluation *)
  let rng = Netsim.Rng.create 57 in
  for _ = 1 to 80 do
    let f = random_fmla rng 2 in
    let b = Relalg.Bounds.create universe4 in
    let b = Relalg.Bounds.declare b "s1" ~arity:1 ~lower:[] ~upper:(Relalg.Tuple.all universe4 1) in
    let b = Relalg.Bounds.declare b "s2" ~arity:1 ~lower:[] ~upper:(Relalg.Tuple.all universe4 1) in
    let b = Relalg.Bounds.declare b "r1" ~arity:2 ~lower:[] ~upper:(Relalg.Tuple.all universe4 2) in
    let b = Relalg.Bounds.declare b "r2" ~arity:2 ~lower:[] ~upper:(Relalg.Tuple.all universe4 2) in
    match solve b f with
    | Relalg.Translate.Unsat -> ()
    | Relalg.Translate.Sat inst ->
        if not (Relalg.Eval.holds inst f) then
          Alcotest.failf "solver instance violates %a" Relalg.Ast.pp_formula f
  done

(* ---- targeted semantics cases ---- *)

let exact_bounds bindings =
  let b = Relalg.Bounds.create universe4 in
  List.fold_left
    (fun b (name, arity, tuples) -> Relalg.Bounds.declare_exact b name ~arity tuples)
    b bindings

let outcome_sat = function Relalg.Translate.Sat _ -> true | Relalg.Translate.Unsat -> false

let test_closure_semantics () =
  let open Relalg.Ast in
  let b = exact_bounds [ ("r", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] in
  check "r within its closure" true
    (outcome_sat (solve b (rel "r" <=: closure (rel "r"))));
  check "closure strictly bigger" true
    (outcome_sat (solve b (not_ (closure (rel "r") <=: rel "r"))));
  let inst = Relalg.Instance.create universe4 [ ("r", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let closure_tuples = Relalg.Eval.expr inst [] (closure (rel "r")) in
  check "closure has 0->3" true (Relalg.Tuple.mem [ 0; 3 ] closure_tuples);
  check_int "closure size" 6 (List.length closure_tuples);
  let rclosure_tuples = Relalg.Eval.expr inst [] (rclosure (rel "r")) in
  check_int "reflexive closure size" 10 (List.length rclosure_tuples)

let test_override_semantics () =
  let open Relalg.Ast in
  let inst =
    Relalg.Instance.create universe4
      [ ("f", [ [ 0; 1 ]; [ 1; 1 ] ]); ("g", [ [ 0; 2 ] ]) ]
  in
  let result = Relalg.Eval.expr inst [] (override (rel "f") (rel "g")) in
  check "override replaces 0" true (Relalg.Tuple.mem [ 0; 2 ] result);
  check "override drops old 0" false (Relalg.Tuple.mem [ 0; 1 ] result);
  check "override keeps 1" true (Relalg.Tuple.mem [ 1; 1 ] result)

let test_restrict_semantics () =
  let open Relalg.Ast in
  let inst =
    Relalg.Instance.create universe4
      [ ("s", [ [ 0 ] ]); ("r", [ [ 0; 1 ]; [ 1; 2 ] ]) ]
  in
  Alcotest.(check (list (list int))) "dom restrict" [ [ 0; 1 ] ]
    (Relalg.Eval.expr inst [] (DomRestrict (rel "s", rel "r")));
  Alcotest.(check (list (list int))) "ran restrict" []
    (Relalg.Eval.expr inst [] (RanRestrict (rel "r", rel "s")))

let test_cardinality_and_sum () =
  let open Relalg.Ast in
  let u = Relalg.Universe.create_with_ints [] [ ("1", 1); ("2", 2); ("5", 5) ] in
  let b = Relalg.Bounds.create u in
  let b = Relalg.Bounds.declare b "s" ~arity:1 ~lower:[] ~upper:[ [ 0 ]; [ 1 ]; [ 2 ] ] in
  check "sum 6 reachable with card 2 (1+5)" true
    (outcome_sat (solve b
       (and_ [ sum_over (rel "s") =! i 6; card (rel "s") =! i 2 ])));
  check "sum 3 with card 1 unsat (no single atom is 3)" false
    (outcome_sat (solve b
       (and_ [ sum_over (rel "s") =! i 3; card (rel "s") =! i 1 ])));
  (match solve b (sum_over (rel "s") =! i 7) with
  | Relalg.Translate.Sat inst ->
      check_int "sum is 7" 7 (Relalg.Eval.intexpr inst [] (sum_over (rel "s")))
  | Relalg.Translate.Unsat -> Alcotest.fail "2+5=7 reachable");
  check "sum 4 unreachable" false
    (outcome_sat (solve b (sum_over (rel "s") =! i 4)))

let test_multiplicities () =
  let open Relalg.Ast in
  let b = Relalg.Bounds.create universe4 in
  let b = Relalg.Bounds.declare b "s" ~arity:1 ~lower:[] ~upper:(Relalg.Tuple.all universe4 1) in
  (match solve b (one (rel "s")) with
  | Relalg.Translate.Sat inst ->
      check_int "one means 1" 1 (List.length (Relalg.Instance.tuples inst "s"))
  | Relalg.Translate.Unsat -> Alcotest.fail "one s satisfiable");
  check "no + some contradictory" false
    (outcome_sat (solve b (and_ [ no (rel "s"); some (rel "s") ])))

let test_check_counterexample () =
  let open Relalg.Ast in
  let b = Relalg.Bounds.create universe4 in
  let b = Relalg.Bounds.declare b "r" ~arity:2 ~lower:[] ~upper:(Relalg.Tuple.all universe4 2) in
  (* assertion "r is symmetric" refuted without a symmetry fact *)
  let symmetric = rel "r" =: transpose (rel "r") in
  (match check_assertion b ~assertion:symmetric ~facts:(some (rel "r")) with
  | Relalg.Translate.Sat inst ->
      check "counterexample is asymmetric" false
        (Relalg.Eval.holds inst symmetric)
  | Relalg.Translate.Unsat -> Alcotest.fail "symmetry must be refutable");
  (* with the fact enforced, the assertion holds *)
  match check_assertion b ~assertion:symmetric ~facts:symmetric with
  | Relalg.Translate.Unsat -> ()
  | Relalg.Translate.Sat _ -> Alcotest.fail "assertion = fact cannot fail"

let test_unbound_relation_rejected () =
  let b = Relalg.Bounds.create universe4 in
  Alcotest.check_raises "unbound relation"
    (Invalid_argument "Translate: relation ghost has no bounds") (fun () ->
      ignore (solve b (Relalg.Ast.some (Relalg.Ast.rel "ghost"))))

let test_unbound_variable_rejected () =
  Alcotest.check_raises "unbound variable"
    (Invalid_argument "Translate: unbound variable x") (fun () ->
      ignore (solve (exact_bounds []) Relalg.Ast.(some (v "x"))))

let test_translation_stats () =
  let open Relalg.Ast in
  let b = Relalg.Bounds.create universe4 in
  let b = Relalg.Bounds.declare b "r" ~arity:2 ~lower:[] ~upper:(Relalg.Tuple.all universe4 2) in
  let tr = Relalg.Translate.translate b (some (rel "r")) in
  let st = Relalg.Translate.translation_stats tr in
  check_int "16 primary vars" 16 st.Relalg.Translate.primary;
  check "clauses exist" true (st.Relalg.Translate.clauses > 0)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_enumerate () =
  let open Relalg.Ast in
  let u = Relalg.Universe.create [ "a"; "b" ] in
  let b = Relalg.Bounds.create u in
  let b = Relalg.Bounds.declare b "s" ~arity:1 ~lower:[] ~upper:[ [ 0 ]; [ 1 ] ] in
  (* all subsets of a 2-atom set: 4 instances *)
  check_int "all instances" 4
    (List.length (Relalg.Translate.enumerate b tt));
  check_int "nonempty subsets" 3
    (List.length (Relalg.Translate.enumerate b (some (rel "s"))));
  check_int "limit respected" 2
    (List.length (Relalg.Translate.enumerate ~limit:2 b tt));
  (* every enumerated instance is distinct and satisfies the formula *)
  let insts = Relalg.Translate.enumerate b (some (rel "s")) in
  List.iter
    (fun i -> check "instance satisfies" true (Relalg.Eval.holds i (some (rel "s"))))
    insts;
  let keys = List.map (fun i -> Relalg.Instance.tuples i "s") insts in
  check_int "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_symmetry_breaking_prunes () =
  let open Relalg.Ast in
  let u = Relalg.Universe.create [ "a"; "b"; "c" ] in
  let b = Relalg.Bounds.create u in
  let b = Relalg.Bounds.declare b "s" ~arity:1 ~lower:[] ~upper:[ [ 0 ]; [ 1 ]; [ 2 ] ] in
  (* without symmetry: 3 singletons; with: only the lex-leader survives
     the adjacent-transposition constraints *)
  let plain = Relalg.Translate.enumerate b (one (rel "s")) in
  let sym = Relalg.Translate.enumerate ~symmetry:true b (one (rel "s")) in
  check_int "three singletons" 3 (List.length plain);
  check "symmetry prunes" true (List.length sym < 3);
  (* symmetry never changes satisfiability *)
  check "sat preserved" true (sym <> []);
  let unsat = Relalg.Ast.and_ [ one (rel "s"); no (rel "s") ] in
  check "unsat preserved" true
    (Relalg.Translate.enumerate ~symmetry:true b unsat = [])

let test_instance_printing () =
  let inst = Relalg.Instance.create universe4 [ ("r", [ [ 0; 1 ] ]) ] in
  let text = Format.asprintf "%a" Relalg.Instance.pp inst in
  check "atom names printed" true (contains_substring text "a->b")

let test_pretty_outputs () =
  let inst =
    Relalg.Instance.create universe4
      [ ("s", [ [ 0 ]; [ 1 ] ]); ("r", [ [ 0; 1 ] ]);
        ("t3", [ [ 0; 1; 2 ] ]) ]
  in
  let tbl = Format.asprintf "%a" Relalg.Pretty.table inst in
  check "table mentions relation" true (contains_substring tbl "r (1 tuple)");
  let dot = Format.asprintf "%a" (Relalg.Pretty.dot ?graph_name:None) inst in
  check "dot has digraph" true (contains_substring dot "digraph");
  check "dot has the edge" true (contains_substring dot "\"a\" -> \"b\" [label=\"r\"]");
  check "unary tags node label" true (contains_substring dot "(s)");
  check "ternary in note" true (contains_substring dot "a->b->c")

let suite =
  [
    Alcotest.test_case "universe" `Quick test_universe;
    Alcotest.test_case "universe with ints" `Quick test_universe_ints;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "bounds validation" `Quick test_bounds_validation;
    Alcotest.test_case "bitvec constants" `Quick test_bitvec_constants;
    Alcotest.test_case "bitvec count" `Quick test_bitvec_count;
    Alcotest.test_case "bitvec empty sum" `Quick test_bitvec_sum_empty;
    Alcotest.test_case "translate matches eval (random)" `Quick test_translate_matches_eval;
    Alcotest.test_case "translate matches eval with bindings (random)" `Quick
      test_translate_matches_eval_bindings;
    Alcotest.test_case "solver instances satisfy eval" `Quick test_solver_instances_satisfy_eval;
    Alcotest.test_case "closure semantics" `Quick test_closure_semantics;
    Alcotest.test_case "override semantics" `Quick test_override_semantics;
    Alcotest.test_case "restrict semantics" `Quick test_restrict_semantics;
    Alcotest.test_case "cardinality and sum" `Quick test_cardinality_and_sum;
    Alcotest.test_case "multiplicities" `Quick test_multiplicities;
    Alcotest.test_case "check finds counterexamples" `Quick test_check_counterexample;
    Alcotest.test_case "unbound relation rejected" `Quick test_unbound_relation_rejected;
    Alcotest.test_case "unbound variable rejected" `Quick test_unbound_variable_rejected;
    Alcotest.test_case "translation stats" `Quick test_translation_stats;
    Alcotest.test_case "instance printing" `Quick test_instance_printing;
    Alcotest.test_case "instance enumeration" `Quick test_enumerate;
    Alcotest.test_case "symmetry breaking prunes" `Quick test_symmetry_breaking_prunes;
    Alcotest.test_case "pretty table and dot" `Quick test_pretty_outputs;
    QCheck_alcotest.to_alcotest qcheck_bitvec_arith;
    QCheck_alcotest.to_alcotest qcheck_bitvec_compare;
  ]
