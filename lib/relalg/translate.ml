module F = Sat.Formula

type translation = {
  cnf : F.cnf_result;
  num_primary : int;
  circuit_size : int;
  bounds : Bounds.t;
  alloc : (string * (Tuple.t * Sat.Cnf.var option) list) list;
}

(* Memoized compilation. Every distinct AST node gets one slot: the
   node's free variables, computed once per translation, and its
   compiled results keyed by the atoms those variables are bound to
   (the innermost binding of each). A subterm met again under bindings
   it does not read is therefore a memo hit, not a recompilation — and
   a hit returns the SAME circuit object, which besides the speedup is
   what keeps the Tseitin translation linear in the circuit DAG. *)
type 'a slot = { fv : string list; results : (int list, 'a) Hashtbl.t }

(* Environment: relation matrices plus quantified-variable bindings. *)
type env = {
  universe : Universe.t;
  rel_matrices : (string, Matrix.t) Hashtbl.t;
  vars : (string * int) list; (* quantifier variable -> atom index *)
  expr_memo : (Ast.expr, Matrix.t slot) Hashtbl.t;
  int_memo : (Ast.intexpr, Bitvec.t slot) Hashtbl.t;
  formula_memo : (Ast.formula, F.t slot) Hashtbl.t;
}

let lookup_var env x =
  match List.assoc_opt x env.vars with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Translate: unbound variable %s" x)

let lookup_rel env n =
  match Hashtbl.find_opt env.rel_matrices n with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Translate: unbound relation %s" n)

(* ---- free variables: sorted, duplicate-free name lists ---- *)

let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      let c = String.compare x y in
      if c = 0 then x :: union a' b'
      else if c < 0 then x :: union a' b
      else y :: union a b'

let slot memo fv node =
  match Hashtbl.find_opt memo node with
  | Some s -> s
  | None ->
      let s = { fv = fv node; results = Hashtbl.create 1 } in
      Hashtbl.add memo node s;
      s

let rec expr_slot env e = slot env.expr_memo (expr_fv env) e

and expr_fv env (e : Ast.expr) =
  let fv e = (expr_slot env e).fv in
  match e with
  | Ast.Var x -> [ x ]
  | Ast.Rel _ | Ast.Univ | Ast.None_ | Ast.Iden -> []
  | Ast.Union (a, b)
  | Ast.Inter (a, b)
  | Ast.Diff (a, b)
  | Ast.Join (a, b)
  | Ast.Product (a, b)
  | Ast.Override (a, b)
  | Ast.DomRestrict (a, b)
  | Ast.RanRestrict (a, b) ->
      union (fv a) (fv b)
  | Ast.Transpose a | Ast.Closure a | Ast.RClosure a -> fv a
  | Ast.IfExpr (c, t, e) -> union (formula_slot env c).fv (union (fv t) (fv e))
  | Ast.Comprehension (decls, f) -> binder_fv env decls (formula_slot env f).fv

(* [x1: d1, x2: d2, ... | body]: each domain sees the variables declared
   before it, the body sees them all *)
and binder_fv env decls body_fv =
  List.fold_right
    (fun (x, dom) inner ->
      union (expr_slot env dom).fv (List.filter (fun y -> y <> x) inner))
    decls body_fv

and formula_slot env f = slot env.formula_memo (formula_fv env) f

and formula_fv env (f : Ast.formula) =
  let fv f = (formula_slot env f).fv and efv e = (expr_slot env e).fv in
  match f with
  | Ast.True_ | Ast.False_ -> []
  | Ast.Subset (a, b) | Ast.Eq (a, b) -> union (efv a) (efv b)
  | Ast.Some_ e | Ast.No e | Ast.One e | Ast.Lone e -> efv e
  | Ast.Not f -> fv f
  | Ast.And fs | Ast.Or fs -> List.fold_left (fun acc f -> union acc (fv f)) [] fs
  | Ast.Implies (a, b) | Ast.Iff (a, b) -> union (fv a) (fv b)
  | Ast.ForAll (decls, body) | Ast.Exists (decls, body) ->
      binder_fv env decls (fv body)
  | Ast.IntCmp (_, a, b) -> union (int_slot env a).fv (int_slot env b).fv

and int_slot env i = slot env.int_memo (int_fv env) i

and int_fv env (i : Ast.intexpr) =
  let fv i = (int_slot env i).fv in
  match i with
  | Ast.IConst _ -> []
  | Ast.Card e | Ast.SumOver e -> (expr_slot env e).fv
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) -> union (fv a) (fv b)
  | Ast.Neg a -> fv a

(* The memo lookup itself. Binding a free variable that is not in scope
   raises here, before the node is compiled. *)
let memoized env { fv; results } compile node =
  let key = List.map (lookup_var env) fv in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
      let r = compile env node in
      Hashtbl.add results key r;
      r

let rec compile_expr env (e : Ast.expr) : Matrix.t =
  memoized env (expr_slot env e) compile_expr_raw e

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
  memoized env (formula_slot env f) compile_formula_raw f

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
  memoized env (int_slot env e) compile_int_raw e

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

(* The relational half of a translation: the circuit, the number of
   primary variables and their allocation. *)
let compile ?(symmetry = false) bounds formula =
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
  (circuit, num_primary, alloc)

let circuit ?symmetry bounds formula =
  let circuit, num_primary, _ = compile ?symmetry bounds formula in
  (circuit, num_primary)

let translate ?symmetry bounds formula =
  let circuit, num_primary, alloc = compile ?symmetry bounds formula in
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
