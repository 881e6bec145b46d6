type t =
  | True
  | False
  | Var of int * Cnf.var
  | Not of int * t
  | And of int * t list
  | Or of int * t list
  | Implies of int * t * t
  | Iff of int * t * t
  | Ite of int * t * t * t

(* ---- hash-consing ----------------------------------------------------
   Structurally equal formulas built through the smart constructors are
   physically equal, and every non-constant node carries the id it was
   given when first interned. This keeps every DAG traversal (Tseitin
   caching, size, max_var) linear: it keys on the id, where structural
   comparison or hashing of big shared circuits would unfold them in
   exponential time. A node's intern key is built from its children's
   ids, so interning is O(arity) per construction, and a node is
   allocated only when its key misses. *)

let id = function
  | True -> 0
  | False -> 1
  | Var (i, _)
  | Not (i, _)
  | And (i, _)
  | Or (i, _)
  | Implies (i, _, _)
  | Iff (i, _, _)
  | Ite (i, _, _, _) ->
      i

type key =
  | Kvar of Cnf.var
  | Knot of int
  | Kand of int list
  | Kor of int list
  | Kimplies of int * int
  | Kiff of int * int
  | Kite of int * int * int

(* Ids come from one process-wide counter (0 and 1 are the constants),
   so two nodes built anywhere — in different domains, or on either
   side of [clear_sharing] — never share an id. The interning tables
   are domain-local (Domain.DLS): each domain of the parallel worker
   pool hash-conses independently, so concurrent translations never
   contend on, serialize through, or corrupt a shared table, and the
   only shared write is the counter's fetch-and-add on an intern miss.
   The price is that sharing is per-domain: structurally equal nodes
   built in two domains stay distinct (correct, just unshared). The
   finished translation — the CNF problem — is immutable and freely
   crosses domains, which is what the shared-translation sweep path
   relies on. *)
let next_id = Atomic.make 2

let sharing_key : (key, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let intern key make =
  let tbl = Domain.DLS.get sharing_key in
  match Hashtbl.find_opt tbl key with
  | Some node -> node
  | None ->
      let node = make (Atomic.fetch_and_add next_id 1) in
      Hashtbl.add tbl key node;
      node

let clear_sharing () = Hashtbl.reset (Domain.DLS.get sharing_key)
let tt = True
let ff = False
let var v = intern (Kvar v) (fun i -> Var (i, v))

let not_ f =
  match f with
  | True -> False
  | False -> True
  | Not (_, g) -> g
  | f -> intern (Knot (id f)) (fun i -> Not (i, f))

let and_ fs =
  let rec gather acc = function
    | [] -> Some acc
    | True :: rest -> gather acc rest
    | False :: _ -> None
    | And (_, gs) :: rest -> (
        match gather acc gs with None -> None | Some acc -> gather acc rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs ->
      let fs = List.rev fs in
      intern (Kand (List.map id fs)) (fun i -> And (i, fs))

let or_ fs =
  let rec gather acc = function
    | [] -> Some acc
    | False :: rest -> gather acc rest
    | True :: _ -> None
    | Or (_, gs) :: rest -> (
        match gather acc gs with None -> None | Some acc -> gather acc rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs ->
      let fs = List.rev fs in
      intern (Kor (List.map id fs)) (fun i -> Or (i, fs))

let and2 a b = and_ [ a; b ]
let or2 a b = or_ [ a; b ]

let implies a b =
  match (a, b) with
  | False, _ -> True
  | True, b -> b
  | _, True -> True
  | a, False -> not_ a
  | a, b -> intern (Kimplies (id a, id b)) (fun i -> Implies (i, a, b))

let iff a b =
  match (a, b) with
  | True, b -> b
  | a, True -> a
  | False, b -> not_ b
  | a, False -> not_ a
  | a, b ->
      if a == b then True
      else intern (Kiff (id a, id b)) (fun i -> Iff (i, a, b))

let xor a b = not_ (iff a b)

let ite c t e =
  match c with
  | True -> t
  | False -> e
  | c ->
      if t == e then t
      else intern (Kite (id c, id t, id e)) (fun i -> Ite (i, c, t, e))

let at_most_one fs =
  let rec pairs = function
    | [] -> []
    | f :: rest -> List.map (fun g -> or2 (not_ f) (not_ g)) rest @ pairs rest
  in
  and_ (pairs fs)

let exactly_one fs = and2 (or_ fs) (at_most_one fs)

let rec eval env = function
  | True -> true
  | False -> false
  | Var (_, v) -> env v
  | Not (_, f) -> not (eval env f)
  | And (_, fs) -> List.for_all (eval env) fs
  | Or (_, fs) -> List.exists (eval env) fs
  | Implies (_, a, b) -> (not (eval env a)) || eval env b
  | Iff (_, a, b) -> eval env a = eval env b
  | Ite (_, c, t, e) -> if eval env c then eval env t else eval env e

(* Tables keyed on node ids, which count up from one counter: the id
   is its own hash, with no call into the runtime's generic one. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

(* [fold_dag visit acc f] folds [visit] over the nodes of the circuit
   DAG, each shared subcircuit once, in depth-first pre-order. *)
let fold_dag visit acc f =
  let seen = Ids.create 256 in
  let rec go acc f =
    let i = id f in
    if Ids.mem seen i then acc
    else begin
      Ids.add seen i ();
      let acc = visit acc f in
      match f with
      | True | False | Var _ -> acc
      | Not (_, g) -> go acc g
      | And (_, fs) | Or (_, fs) -> List.fold_left go acc fs
      | Implies (_, a, b) | Iff (_, a, b) -> go (go acc a) b
      | Ite (_, a, b, c) -> go (go (go acc a) b) c
    end
  in
  go acc f

let size f =
  (* connective count of the circuit DAG: shared subcircuits counted once *)
  fold_dag
    (fun n -> function True | False | Var _ -> n | _ -> n + 1)
    0 f

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Var (_, v) -> Format.fprintf ppf "v%d" v
  | Not (_, f) -> Format.fprintf ppf "!%a" pp_atom f
  | And (_, fs) ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ") pp)
        fs
  | Or (_, fs) ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ") pp)
        fs
  | Implies (_, a, b) -> Format.fprintf ppf "(%a => %a)" pp a pp b
  | Iff (_, a, b) -> Format.fprintf ppf "(%a <=> %a)" pp a pp b
  | Ite (_, a, b, c) ->
      Format.fprintf ppf "(if %a then %a else %a)" pp a pp b pp c

and pp_atom ppf f =
  match f with
  | True | False | Var _ -> pp ppf f
  | _ -> Format.fprintf ppf "(%a)" pp f

type cnf_result = {
  problem : Cnf.problem;
  root : Cnf.lit option;
  constant : bool option;
}

let max_var f =
  fold_dag (fun best -> function Var (_, v) -> max best v | _ -> best) 0 f

(* Tseitin translation with structural sharing: identical subcircuits are
   encoded once. Returns the literal representing each subformula. *)
let to_cnf ?num_primary f =
  let primary = match num_primary with Some n -> n | None -> max_var f in
  let problem = ref { Cnf.num_vars = max primary (max_var f); clauses = [] } in
  let add lits = problem := Cnf.add_clause !problem lits in
  let fresh () =
    let p, v = Cnf.fresh_var !problem in
    problem := p;
    v
  in
  (* cache on the interned id: the upstream compilers memoize their
     output, so shared subcircuits are the same node, and structural
     keying would compare distinct DAG keys in exponential unfolded time *)
  let cache : Cnf.lit Ids.t = Ids.create 1024 in
  (* encode f, returning either a constant or a literal equivalent to f *)
  let rec enc f : (bool, Cnf.lit) Either.t =
    match f with
    | True -> Either.Left true
    | False -> Either.Left false
    | Var (_, v) -> Either.Right (Cnf.pos v)
    | Not (_, g) -> (
        match enc g with
        | Either.Left b -> Either.Left (not b)
        | Either.Right l -> Either.Right (Cnf.negate l))
    | _ -> (
        match Ids.find_opt cache (id f) with
        | Some l -> Either.Right l
        | None ->
            let l = enc_node f in
            (match l with
            | Either.Right lit -> Ids.replace cache (id f) lit
            | Either.Left _ -> ());
            l)
  and enc_node f : (bool, Cnf.lit) Either.t =
    match f with
    | And (_, fs) -> enc_nary ~neutral:true fs
    | Or (_, fs) -> (
        (* x <-> (a | b | ...) encoded by dualizing And over negations *)
        match enc_nary ~neutral:false fs with
        | Either.Left b -> Either.Left b
        | Either.Right l -> Either.Right l)
    | Implies (_, a, b) -> enc (or2 (not_ a) b)
    | Iff (_, a, b) -> (
        match (enc a, enc b) with
        | Either.Left ba, Either.Left bb -> Either.Left (ba = bb)
        | Either.Left true, Either.Right l | Either.Right l, Either.Left true ->
            Either.Right l
        | Either.Left false, Either.Right l | Either.Right l, Either.Left false ->
            Either.Right (Cnf.negate l)
        | Either.Right la, Either.Right lb ->
            let x = fresh () in
            let xl = Cnf.pos x in
            (* x -> (la <-> lb), !x -> (la <-> !lb) *)
            add [ Cnf.negate xl; Cnf.negate la; lb ];
            add [ Cnf.negate xl; la; Cnf.negate lb ];
            add [ xl; la; lb ];
            add [ xl; Cnf.negate la; Cnf.negate lb ];
            Either.Right xl)
    | Ite (_, c, t, e) -> (
        match enc c with
        | Either.Left true -> enc t
        | Either.Left false -> enc e
        | Either.Right lc -> (
            match (enc t, enc e) with
            | Either.Left bt, Either.Left be ->
                if bt = be then Either.Left bt
                else Either.Right (if bt then lc else Cnf.negate lc)
            | et, ee ->
                let lit_of = function
                  | Either.Left true ->
                      let v = fresh () in
                      add [ Cnf.pos v ];
                      Cnf.pos v
                  | Either.Left false ->
                      let v = fresh () in
                      add [ Cnf.neg v ];
                      Cnf.pos v
                  | Either.Right l -> l
                in
                let lt = lit_of et and le = lit_of ee in
                let x = fresh () in
                let xl = Cnf.pos x in
                add [ Cnf.negate xl; Cnf.negate lc; lt ];
                add [ Cnf.negate xl; lc; le ];
                add [ xl; Cnf.negate lc; Cnf.negate lt ];
                add [ xl; lc; Cnf.negate le ];
                Either.Right xl))
    | True | False | Var _ | Not _ -> enc f
  (* n-ary conjunction (neutral=true) or disjunction (neutral=false) *)
  and enc_nary ~neutral fs =
    let lits = ref [] in
    let constant = ref None in
    List.iter
      (fun g ->
        if !constant = None then
          match enc g with
          | Either.Left b -> if b <> neutral then constant := Some b
          | Either.Right l -> lits := l :: !lits)
      fs;
    match !constant with
    | Some b -> Either.Left b
    | None -> (
        match !lits with
        | [] -> Either.Left neutral
        | [ l ] -> Either.Right l
        | lits ->
            let x = fresh () in
            let xl = Cnf.pos x in
            if neutral then begin
              (* x <-> /\ lits *)
              List.iter (fun l -> add [ Cnf.negate xl; l ]) lits;
              add (xl :: List.map Cnf.negate lits)
            end
            else begin
              (* x <-> \/ lits *)
              List.iter (fun l -> add [ xl; Cnf.negate l ]) lits;
              add (Cnf.negate xl :: lits)
            end;
            Either.Right xl)
  in
  match enc f with
  | Either.Left b ->
      { problem = !problem; root = None; constant = Some b }
  | Either.Right l ->
      add [ l ];
      { problem = !problem; root = Some l; constant = None }

let solve ?num_primary f =
  let { problem; constant; _ } = to_cnf ?num_primary f in
  match constant with
  | Some true -> Solver.Sat (Array.make (problem.num_vars + 1) false)
  | Some false -> Solver.Unsat
  | None -> Solver.solve_problem problem
