type var = int
type lit = int

let pos v = v lsl 1
let neg v = (v lsl 1) lor 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

let lit_of_int i =
  if i = 0 then invalid_arg "Cnf.lit_of_int: zero literal"
  else if i > 0 then pos i
  else neg (-i)

let int_of_lit l = if is_pos l then var_of l else -var_of l
let pp_lit ppf l = Format.fprintf ppf "%d" (int_of_lit l)

type clause = lit array

(* Clause [i] is [lits.(start i) .. lits.(ends.(i) - 1)], where [start 0 = 0]
   and [start i = ends.(i - 1)]. *)
type problem = { num_vars : int; lits : lit array; ends : int array }

let empty = { num_vars = 0; lits = [||]; ends = [||] }
let num_clauses p = Array.length p.ends
let clause_start p i = if i = 0 then 0 else p.ends.(i - 1)

let clause p i =
  let start = clause_start p i in
  Array.sub p.lits start (p.ends.(i) - start)

(* ---- the builder ---- *)

type builder = {
  mutable vars : int;
  mutable buf : lit array;
  mutable fill : int; (* literals in [buf] *)
  mutable offs : int array; (* end offsets of the closed clauses *)
  mutable closed : int; (* clauses closed *)
}

let builder ?(num_vars = 0) () =
  { vars = num_vars; buf = Array.make 1024 0; fill = 0; offs = Array.make 256 0; closed = 0 }

let reset b ~num_vars =
  b.vars <- num_vars;
  b.fill <- 0;
  b.closed <- 0

let words b = Array.length b.buf + Array.length b.offs

let grown a need =
  let c = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 c 0 (Array.length a);
  c

let check_lit l =
  if l < 2 then invalid_arg "Cnf: a literal over variable 0"

let add_lit b l =
  check_lit l;
  if b.fill = Array.length b.buf then b.buf <- grown b.buf (b.fill + 1);
  b.buf.(b.fill) <- l;
  b.fill <- b.fill + 1;
  if l lsr 1 > b.vars then b.vars <- l lsr 1

let close_clause b =
  if b.closed = Array.length b.offs then b.offs <- grown b.offs (b.closed + 1);
  b.offs.(b.closed) <- b.fill;
  b.closed <- b.closed + 1

let add_clause b lits =
  List.iter check_lit lits;
  List.iter (add_lit b) lits;
  close_clause b

let pending b = b.fill > if b.closed = 0 then 0 else b.offs.(b.closed - 1)

let add_problem b p =
  if pending b then invalid_arg "Cnf.add_problem: a clause is still open";
  let base = b.fill and n = num_clauses p in
  if base + Array.length p.lits > Array.length b.buf then
    b.buf <- grown b.buf (base + Array.length p.lits);
  Array.blit p.lits 0 b.buf base (Array.length p.lits);
  b.fill <- base + Array.length p.lits;
  if b.closed + n > Array.length b.offs then b.offs <- grown b.offs (b.closed + n);
  for i = 0 to n - 1 do
    b.offs.(b.closed + i) <- base + p.ends.(i)
  done;
  b.closed <- b.closed + n;
  if p.num_vars > b.vars then b.vars <- p.num_vars

let fresh_var b =
  b.vars <- b.vars + 1;
  b.vars

let ensure_vars b n = if n > b.vars then b.vars <- n

let freeze b =
  if pending b then invalid_arg "Cnf.freeze: a clause is still open";
  { num_vars = b.vars; lits = Array.sub b.buf 0 b.fill; ends = Array.sub b.offs 0 b.closed }

type value = True | False | Unknown

let value_negate = function True -> False | False -> True | Unknown -> Unknown

let pp_value ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Unknown -> Format.pp_print_string ppf "unknown"

type model = bool array
