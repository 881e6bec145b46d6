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

(* ---- Tseitin translation, with structural sharing ----

   The encoder gives each subformula a literal equivalent to it, and
   writes the defining clauses straight into a builder. A subformula
   that folds to a constant gets one of the two literals of variable 0,
   which no clause may hold: [lit_true], or its negation [lit_false].
   Negation is then [Cnf.negate] for constants and literals alike, and
   [l < 2] tells a constant from a literal. *)

let lit_true = Cnf.pos 0
let lit_false = Cnf.neg 0

type encoder = {
  out : Cnf.builder;
  num_primary : int;
  (* by node id: the upstream compilers memoize their output, so shared
     subcircuits are the same node, encoded once *)
  cache : Cnf.lit Ids.t;
  (* the children's literals of the n-ary nodes being encoded, innermost
     on top *)
  mutable stack : Cnf.lit array;
  mutable top : int;
}

let push e l =
  if e.top = Array.length e.stack then begin
    let s = Array.make (2 * e.top) 0 in
    Array.blit e.stack 0 s 0 e.top;
    e.stack <- s
  end;
  e.stack.(e.top) <- l;
  e.top <- e.top + 1

let fresh e = Cnf.pos (Cnf.fresh_var e.out)

let clause1 e a =
  Cnf.add_lit e.out a;
  Cnf.close_clause e.out

let clause2 e a b =
  Cnf.add_lit e.out a;
  Cnf.add_lit e.out b;
  Cnf.close_clause e.out

let clause3 e a b c =
  Cnf.add_lit e.out a;
  Cnf.add_lit e.out b;
  Cnf.add_lit e.out c;
  Cnf.close_clause e.out

(* A literal for an Ite branch: a constant branch gets a fresh variable
   fixed by a unit clause. *)
let branch_lit e l =
  if l = lit_true then begin
    let x = fresh e in
    clause1 e x;
    x
  end
  else if l = lit_false then begin
    let x = fresh e in
    clause1 e (Cnf.negate x);
    x
  end
  else l

let rec enc e f =
  match f with
  | True -> lit_true
  | False -> lit_false
  | Var (_, v) ->
      if v < 1 || v > e.num_primary then
        invalid_arg
          (Printf.sprintf "Formula.to_cnf: variable %d outside 1..%d" v
             e.num_primary);
      Cnf.pos v
  | Not (_, g) -> Cnf.negate (enc e g)
  | And _ | Or _ | Implies _ | Iff _ | Ite _ -> (
      match Ids.find e.cache (id f) with
      | l -> l
      | exception Not_found ->
          let l = enc_node e f in
          Ids.replace e.cache (id f) l;
          l)

and enc_node e f =
  match f with
  | And (_, fs) -> enc_nary e ~neutral:lit_true fs
  | Or (_, fs) -> enc_nary e ~neutral:lit_false fs
  | Implies (_, a, b) -> enc e (or2 (not_ a) b)
  | Iff (_, a, b) ->
      let la = enc e a in
      let lb = enc e b in
      if la < 2 && lb < 2 then if la = lb then lit_true else lit_false
      else if la = lit_true then lb
      else if lb = lit_true then la
      else if la = lit_false then Cnf.negate lb
      else if lb = lit_false then Cnf.negate la
      else begin
        let x = fresh e in
        (* x -> (la <-> lb), !x -> (la <-> !lb) *)
        clause3 e (Cnf.negate x) (Cnf.negate la) lb;
        clause3 e (Cnf.negate x) la (Cnf.negate lb);
        clause3 e x la lb;
        clause3 e x (Cnf.negate la) (Cnf.negate lb);
        x
      end
  | Ite (_, c, t, el) ->
      let lc = enc e c in
      if lc = lit_true then enc e t
      else if lc = lit_false then enc e el
      else begin
        let lt = enc e t in
        let le = enc e el in
        if lt < 2 && le < 2 then
          if lt = le then lt else if lt = lit_true then lc else Cnf.negate lc
        else begin
          let lt = branch_lit e lt in
          let le = branch_lit e le in
          let x = fresh e in
          clause3 e (Cnf.negate x) (Cnf.negate lc) lt;
          clause3 e (Cnf.negate x) lc le;
          clause3 e x (Cnf.negate lc) (Cnf.negate lt);
          clause3 e x lc (Cnf.negate le);
          x
        end
      end
  | True | False | Var _ | Not _ -> enc e f

(* n-ary conjunction ([neutral = lit_true]) or disjunction ([lit_false]).
   The children's literals sit on the stack above [base], and the
   clauses list them last to first. *)
and enc_nary e ~neutral fs =
  let base = e.top in
  let folded = enc_children e neutral fs in
  let n = e.top - base in
  if folded >= 0 then begin
    e.top <- base;
    folded
  end
  else if n = 0 then neutral
  else if n = 1 then begin
    e.top <- base;
    e.stack.(base)
  end
  else begin
    let x = fresh e in
    let out = e.out in
    if neutral = lit_true then begin
      (* x <-> /\ lits *)
      for j = e.top - 1 downto base do
        clause2 e (Cnf.negate x) e.stack.(j)
      done;
      Cnf.add_lit out x;
      for j = e.top - 1 downto base do
        Cnf.add_lit out (Cnf.negate e.stack.(j))
      done
    end
    else begin
      (* x <-> \/ lits *)
      for j = e.top - 1 downto base do
        clause2 e x (Cnf.negate e.stack.(j))
      done;
      Cnf.add_lit out (Cnf.negate x);
      for j = e.top - 1 downto base do
        Cnf.add_lit out e.stack.(j)
      done
    end;
    Cnf.close_clause out;
    e.top <- base;
    x
  end

(* Pushes the children's literals, dropping neutral constants; stops at
   the first other constant and returns it, else -1. *)
and enc_children e neutral = function
  | [] -> -1
  | g :: rest ->
      let l = enc e g in
      if l >= 2 then begin
        push e l;
        enc_children e neutral rest
      end
      else if l <> neutral then l
      else enc_children e neutral rest

(* Each domain keeps its emptied builder between translations, so that
   a translation writes into buffers the last one grew instead of
   growing new ones, which would be major-heap garbage. A builder grown
   past [kept] words (1 MiB) is not kept: a submitted spec's builder is
   (the listings' commands grow it to 49K words), a policy sweep's
   shared translation's is not (197K words at 2p2v/4st), so a domain
   holds at most 1 MiB between translations. Nor is the builder of a
   translation that raised kept. *)
let kept = 1 lsl 17
let spare : Cnf.builder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let to_cnf ~num_primary f =
  let r = Domain.DLS.get spare in
  let out =
    match !r with
    | Some b ->
        r := None;
        Cnf.reset b ~num_vars:num_primary;
        b
    | None -> Cnf.builder ~num_vars:num_primary ()
  in
  let e =
    { out; num_primary; cache = Ids.create 1024; stack = Array.make 64 0; top = 0 }
  in
  let root = enc e f in
  if root >= 2 then clause1 e root;
  let problem = Cnf.freeze out in
  if Cnf.words out <= kept then r := Some out;
  if root >= 2 then { problem; root = Some root; constant = None }
  else { problem; root = None; constant = Some (root = lit_true) }

let solve ?num_primary f =
  let num_primary = match num_primary with Some n -> n | None -> max_var f in
  let { problem; constant; _ } = to_cnf ~num_primary f in
  match constant with
  | Some true -> Solver.Sat (Array.make (problem.num_vars + 1) false)
  | Some false -> Solver.Unsat
  | None -> Solver.solve_problem problem
