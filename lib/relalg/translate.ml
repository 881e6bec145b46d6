module F = Sat.Formula

type translation = {
  cnf : F.cnf_result;
  num_primary : int;
  circuit_size : int;
  bounds : Bounds.t;
  alloc : (string * (Tuple.t * Sat.Cnf.var option) list) list;
}

(* Environment: relation matrices plus quantified-variable bindings.
   The memo tables make compilation of a repeated subterm (under the
   same variable bindings) return the SAME circuit object: besides the
   speedup, the physical sharing is what keeps the Tseitin translation
   and its structural cache linear in the circuit DAG. *)
type env = {
  universe : Universe.t;
  rel_matrices : (string, Matrix.t) Hashtbl.t;
  vars : (string * int) list; (* quantifier variable -> atom index *)
  expr_memo : (Ast.expr * (string * int) list, Matrix.t) Hashtbl.t;
  int_memo : (Ast.intexpr * (string * int) list, Bitvec.t) Hashtbl.t;
  formula_memo : (Ast.formula * (string * int) list, F.t) Hashtbl.t;
}

let lookup_var env x =
  match List.assoc_opt x env.vars with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Translate: unbound variable %s" x)

let lookup_rel env n =
  match Hashtbl.find_opt env.rel_matrices n with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Translate: unbound relation %s" n)

let rec compile_expr env (e : Ast.expr) : Matrix.t =
  match Hashtbl.find_opt env.expr_memo (e, env.vars) with
  | Some m -> m
  | None ->
      let m = compile_expr_raw env e in
      Hashtbl.replace env.expr_memo (e, env.vars) m;
      m

and compile_expr_raw env (e : Ast.expr) : Matrix.t =
  match e with
  | Ast.Rel n -> lookup_rel env n
  | Ast.Var x -> Matrix.singleton [ lookup_var env x ]
  | Ast.Univ -> Matrix.full env.universe 1
  | Ast.None_ -> Matrix.empty 1
  | Ast.Iden -> Matrix.iden env.universe
  | Ast.Union (a, b) -> Matrix.union (compile_expr env a) (compile_expr env b)
  | Ast.Inter (a, b) -> Matrix.inter (compile_expr env a) (compile_expr env b)
  | Ast.Diff (a, b) -> Matrix.diff (compile_expr env a) (compile_expr env b)
  | Ast.Join (a, b) -> Matrix.join (compile_expr env a) (compile_expr env b)
  | Ast.Product (a, b) -> Matrix.product (compile_expr env a) (compile_expr env b)
  | Ast.Transpose a -> Matrix.transpose (compile_expr env a)
  | Ast.Closure a -> Matrix.closure env.universe (compile_expr env a)
  | Ast.RClosure a -> Matrix.reflexive_closure env.universe (compile_expr env a)
  | Ast.Override (a, b) -> Matrix.override (compile_expr env a) (compile_expr env b)
  | Ast.DomRestrict (s, r) ->
      Matrix.restrict_domain (compile_expr env s) (compile_expr env r)
  | Ast.RanRestrict (r, s) ->
      Matrix.restrict_range (compile_expr env r) (compile_expr env s)
  | Ast.IfExpr (c, t, e) ->
      let fc = compile_formula env c in
      let mt = compile_expr env t and me = compile_expr env e in
      if Matrix.arity mt <> Matrix.arity me then
        invalid_arg "Translate: if-expression branches of different arity";
      Matrix.union
        (Matrix.map (F.and2 fc) mt)
        (Matrix.map (F.and2 (F.not_ fc)) me)
  | Ast.Comprehension (decls, f) -> compile_comprehension env decls f

and compile_comprehension env decls f =
  (* each decl ranges over a unary expression; result arity = #decls *)
  let rec go env = function
    | [] -> [ ([], compile_formula env f) ]
    | (x, dom) :: rest ->
        let dm = compile_expr env dom in
        if Matrix.arity dm <> 1 then
          invalid_arg "Translate: comprehension domain must be unary";
        List.concat_map
          (fun (t, fd) ->
            let a = match t with [ a ] -> a | _ -> assert false in
            let env = { env with vars = (x, a) :: env.vars } in
            List.map
              (fun (tail, fr) -> (a :: tail, F.and2 fd fr))
              (go env rest))
          (Matrix.entries dm)
  in
  Matrix.of_entries (List.length decls) (go env decls)

and compile_quant env decls body ~conj =
  (* conj=true: universal (implication, conjunction); false: existential *)
  let rec go env = function
    | [] -> [ compile_formula env body ]
    | (x, dom) :: rest ->
        let dm = compile_expr env dom in
        if Matrix.arity dm <> 1 then
          invalid_arg "Translate: quantifier domain must be unary";
        List.concat_map
          (fun (t, fd) ->
            let a = match t with [ a ] -> a | _ -> assert false in
            let env = { env with vars = (x, a) :: env.vars } in
            List.map
              (fun fr -> if conj then F.implies fd fr else F.and2 fd fr)
              (go env rest))
          (Matrix.entries dm)
  in
  let parts = go env decls in
  if conj then F.and_ parts else F.or_ parts

and compile_formula env (f : Ast.formula) : F.t =
  match Hashtbl.find_opt env.formula_memo (f, env.vars) with
  | Some c -> c
  | None ->
      let c = compile_formula_raw env f in
      Hashtbl.replace env.formula_memo (f, env.vars) c;
      c

and compile_formula_raw env (f : Ast.formula) : F.t =
  match f with
  | Ast.True_ -> F.tt
  | Ast.False_ -> F.ff
  | Ast.Subset (a, b) -> Matrix.subset (compile_expr env a) (compile_expr env b)
  | Ast.Eq (a, b) -> Matrix.equal (compile_expr env a) (compile_expr env b)
  | Ast.Some_ e -> Matrix.some (compile_expr env e)
  | Ast.No e -> Matrix.no (compile_expr env e)
  | Ast.One e -> Matrix.one (compile_expr env e)
  | Ast.Lone e -> Matrix.lone (compile_expr env e)
  | Ast.Not f -> F.not_ (compile_formula env f)
  | Ast.And fs -> F.and_ (List.map (compile_formula env) fs)
  | Ast.Or fs -> F.or_ (List.map (compile_formula env) fs)
  | Ast.Implies (a, b) -> F.implies (compile_formula env a) (compile_formula env b)
  | Ast.Iff (a, b) -> F.iff (compile_formula env a) (compile_formula env b)
  | Ast.ForAll (decls, body) -> compile_quant env decls body ~conj:true
  | Ast.Exists (decls, body) -> compile_quant env decls body ~conj:false
  | Ast.IntCmp (op, a, b) ->
      let va = compile_int env a and vb = compile_int env b in
      let f =
        match op with
        | Ast.Lt -> Bitvec.lt
        | Ast.Le -> Bitvec.le
        | Ast.Gt -> Bitvec.gt
        | Ast.Ge -> Bitvec.ge
        | Ast.IEq -> Bitvec.eq
      in
      f va vb

and compile_int env (e : Ast.intexpr) : Bitvec.t =
  match Hashtbl.find_opt env.int_memo (e, env.vars) with
  | Some v -> v
  | None ->
      let v = compile_int_raw env e in
      Hashtbl.replace env.int_memo (e, env.vars) v;
      v

and compile_int_raw env (e : Ast.intexpr) : Bitvec.t =
  match e with
  | Ast.IConst n -> Bitvec.of_int n
  | Ast.Card e -> Bitvec.count (Matrix.count (compile_expr env e))
  | Ast.SumOver e ->
      let m = compile_expr env e in
      if Matrix.arity m <> 1 then
        invalid_arg "Translate: sum requires a unary expression";
      let terms =
        List.filter_map
          (fun (t, f) ->
            let a = match t with [ a ] -> a | _ -> assert false in
            match Universe.int_value env.universe a with
            | Some value ->
                Some (Bitvec.ite f (Bitvec.of_int value) (Bitvec.of_int 0))
            | None -> None)
          (Matrix.entries m)
      in
      Bitvec.sum terms
  | Ast.Add (a, b) -> Bitvec.add (compile_int env a) (compile_int env b)
  | Ast.Sub (a, b) -> Bitvec.sub (compile_int env a) (compile_int env b)
  | Ast.Neg a -> Bitvec.neg (compile_int env a)
  | Ast.Mul (a, b) -> Bitvec.mul (compile_int env a) (compile_int env b)

(* ------------------------------------------------------------------ *)
(* Symmetry breaking (Kodkod-style).

   Two atoms are interchangeable when swapping them maps every
   relation's lower bound onto itself and every upper bound onto
   itself, and neither atom carries an integer value. For every
   adjacent interchangeable pair we add a lex-leader predicate: the
   variable vector of the instance must be lexicographically no larger
   than the vector of the instance with the two atoms swapped. This
   removes most isomorphic instances from the search space — the same
   partial symmetry-breaking scheme the Alloy Analyzer inherits from
   Kodkod. *)

let swap_atoms a b t = List.map (fun x -> if x = a then b else if x = b then a else x) t

let is_bound_symmetry bounds a b =
  List.for_all
    (fun (r : Bounds.rel) ->
      let closed ts =
        List.for_all (fun t -> Tuple.mem (swap_atoms a b t) ts) ts
      in
      closed r.Bounds.lower && closed r.Bounds.upper)
    (Bounds.rels bounds)

let interchangeable_pairs bounds =
  let u = Bounds.universe bounds in
  let n = Universe.size u in
  let rec go i acc =
    if i + 1 >= n then List.rev acc
    else
      let ok =
        Universe.int_value u i = None
        && Universe.int_value u (i + 1) = None
        && is_bound_symmetry bounds i (i + 1)
      in
      go (i + 1) (if ok then (i, i + 1) :: acc else acc)
  in
  go 0 []

(* [vec <=lex swapped-vec] over every upper-bound slot, in declaration
   order; built back-to-front so shared tails keep the circuit linear. *)
let lex_leader rel_matrices bounds (a, b) =
  let components =
    List.concat_map
      (fun (r : Bounds.rel) ->
        let m = Hashtbl.find rel_matrices r.Bounds.rel_name in
        List.filter_map
          (fun t ->
            let t' = swap_atoms a b t in
            if Tuple.compare t t' = 0 then None
            else Some (Matrix.get m t, Matrix.get m t'))
          r.Bounds.upper)
      (Bounds.rels bounds)
  in
  List.fold_right
    (fun (x, y) rest -> F.and2 (F.implies x y) (F.implies (F.iff x y) rest))
    components F.tt

let symmetry_predicate bounds rel_matrices =
  F.and_
    (List.map (lex_leader rel_matrices bounds) (interchangeable_pairs bounds))

let allocate bounds =
  let next = ref 0 in
  let rel_matrices = Hashtbl.create 16 in
  let alloc =
    List.map
      (fun (r : Bounds.rel) ->
        let cells =
          List.map
            (fun t ->
              if Tuple.mem t r.lower then ((t, F.tt), (t, None))
              else begin
                incr next;
                ((t, F.var !next), (t, Some !next))
              end)
            r.upper
        in
        Hashtbl.replace rel_matrices r.rel_name
          (Matrix.of_entries r.arity (List.map fst cells));
        (r.rel_name, List.map snd cells))
      (Bounds.rels bounds)
  in
  (!next, rel_matrices, alloc)

let translate ?(symmetry = false) bounds formula =
  F.clear_sharing ();
  (* static check: every mentioned relation must be bounded *)
  List.iter
    (fun n ->
      if not (Bounds.mem bounds n) then
        invalid_arg (Printf.sprintf "Translate: relation %s has no bounds" n))
    (Ast.free_rels formula);
  let num_primary, rel_matrices, alloc = allocate bounds in
  let env =
    {
      universe = Bounds.universe bounds;
      rel_matrices;
      vars = [];
      expr_memo = Hashtbl.create 1024;
      int_memo = Hashtbl.create 1024;
      formula_memo = Hashtbl.create 1024;
    }
  in
  let circuit = compile_formula env formula in
  let circuit =
    if symmetry then F.and2 circuit (symmetry_predicate bounds rel_matrices)
    else circuit
  in
  let cnf = F.to_cnf ~num_primary circuit in
  { cnf; num_primary; circuit_size = F.size circuit; bounds; alloc }

type outcome = Sat of Instance.t | Unsat

let instance_of_model tr (model : Sat.Cnf.model) =
  let bindings =
    List.map
      (fun (name, cells) ->
        let ts =
          List.filter_map
            (fun (t, var) ->
              match var with
              | None -> Some t
              | Some v -> if model.(v) then Some t else None)
            cells
        in
        (name, ts))
      tr.alloc
  in
  Instance.create (Bounds.universe tr.bounds) bindings

type bounded_outcome = Decided of outcome | Unknown of string

(* The trivial model when the circuit constant-folded to true: lower
   bounds only — except that assumed literals must still show their
   assumed polarity, or the instance read back would contradict the
   assumptions it was solved under. *)
let trivial_model tr assumptions =
  let model = Array.make (tr.num_primary + 1) false in
  List.iter
    (fun l ->
      let v = Sat.Cnf.var_of l in
      if v >= 1 && v <= tr.num_primary then model.(v) <- Sat.Cnf.is_pos l)
    assumptions;
  model

type certified_outcome = {
  outcome : outcome;
  certification : Sat.Proof.report option;
}

(* A session is the one solve path: every verdict is one solver over
   one translation, decided under per-call assumptions. Opened for a
   single call and dropped, it is a cold solve; kept per worker, it is
   warm — learnt clauses and VSIDS state carry across cells, and the
   cells of the policy matrix differ only in selector assumptions, so
   most learnt clauses transfer. The certified path never [add_clause]s
   assumption units into the solver (that would poison it for every
   later cell); it relies on [Sat.Solver.solve_assuming_certified],
   which certifies against the assumed problem without mutating the
   clause set. *)
type engine =
  | Folded of bool  (* the circuit constant-folded: nothing to solve *)
  | Solver of Sat.Solver.t

type session = { tr : translation; engine : engine; certify : bool }

let session ?(certify = false) tr =
  let engine =
    match tr.cnf.F.constant with
    | Some b -> Folded b
    | None -> Solver (Sat.Solver.of_problem ~proof:certify tr.cnf.F.problem)
  in
  { tr; engine; certify }

(* Both solve paths decide a constant-folded circuit here, without a
   SAT call. *)
let folded_outcome tr assumptions = function
  | false -> Unsat
  | true -> Sat (instance_of_model tr (trivial_model tr assumptions))

let outcome_of_result tr = function
  | Sat.Solver.Unsat -> Unsat
  | Sat.Solver.Sat model ->
      (* model may be longer than primary vars (Tseitin auxiliaries) *)
      Sat (instance_of_model tr model)

let solve_cell ?stop ~budget sn assumptions =
  let tr = sn.tr in
  match sn.engine with
  | Folded b -> Decided (folded_outcome tr assumptions b)
  | Solver solver -> (
      match Sat.Solver.solve_bounded ?stop ~assumptions ~budget solver with
      | Sat.Solver.Unknown { reason; _ } -> Unknown reason
      | Sat.Solver.Decided r -> Decided (outcome_of_result tr r))

let solve_cell_certified sn assumptions =
  if not sn.certify then
    invalid_arg "Translate.solve_cell_certified: session not opened with ~certify:true";
  let tr = sn.tr in
  match sn.engine with
  | Folded b -> { outcome = folded_outcome tr assumptions b; certification = None }
  | Solver solver ->
      let r = Sat.Solver.solve_assuming_certified ~assumptions solver in
      { outcome = outcome_of_result tr r;
        certification = Sat.Solver.last_certification solver }

let session_stats sn =
  match sn.engine with
  | Folded _ -> None
  | Solver solver -> Some (Sat.Solver.stats solver)

let enumerate ?symmetry ?(limit = 100) bounds formula =
  if limit <= 0 then []
  else
    let tr = translate ?symmetry bounds formula in
    match tr.cnf.F.constant with
    | Some false -> []
    | Some true | None ->
        (* a constant-true formula still has one instance per assignment
           of the primary variables: run the blocking loop over an
           unconstrained solver in that case *)
        let solver =
          match tr.cnf.F.constant with
          | Some true ->
              let s = Sat.Solver.create () in
              Sat.Solver.ensure_vars s tr.num_primary;
              s
          | _ -> Sat.Solver.of_problem tr.cnf.F.problem
        in
        let rec loop acc n =
          if n = 0 then List.rev acc
          else
            match Sat.Solver.solve solver with
            | Sat.Solver.Unsat -> List.rev acc
            | Sat.Solver.Sat model ->
                let inst = instance_of_model tr model in
                (* block this assignment of the primary (relational)
                   variables so the next solve yields a different
                   instance *)
                let blocking =
                  List.init tr.num_primary (fun i ->
                      let v = i + 1 in
                      if model.(v) then Sat.Cnf.neg v else Sat.Cnf.pos v)
                in
                Sat.Solver.add_clause solver blocking;
                loop (inst :: acc) (n - 1)
        in
        loop [] limit

(* The single primary variable of a one-free-tuple relation — the
   handle for selector relations whose truth value is fixed per solve
   via [assumptions]. *)
let selector_var tr rel =
  match List.assoc_opt rel tr.alloc with
  | Some cells -> (
      match List.filter_map (fun (_, v) -> v) cells with
      | [ v ] -> Some v
      | _ -> None)
  | None -> None

type stats = { vars : int; clauses : int; primary : int; circuit : int }

let translation_stats tr =
  {
    vars = tr.cnf.problem.num_vars;
    clauses = Sat.Cnf.num_clauses tr.cnf.problem;
    primary = tr.num_primary;
    circuit = tr.circuit_size;
  }

let pp_stats ppf s =
  Format.fprintf ppf "primary=%d vars=%d clauses=%d circuit=%d" s.primary
    s.vars s.clauses s.circuit
