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
type problem = { num_vars : int; clauses : clause list }

let empty = { num_vars = 0; clauses = [] }

let add_clause p lits =
  let max_v = List.fold_left (fun acc l -> max acc (var_of l)) 0 lits in
  { num_vars = max p.num_vars max_v; clauses = Array.of_list lits :: p.clauses }

let fresh_var p =
  let v = p.num_vars + 1 in
  ({ p with num_vars = v }, v)

let num_clauses p = List.length p.clauses

type value = True | False | Unknown

let value_negate = function True -> False | False -> True | Unknown -> Unknown

let pp_value ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Unknown -> Format.pp_print_string ppf "unknown"

type model = bool array

let lit_is_true m l =
  let b = m.(var_of l) in
  if is_pos l then b else not b

(* Loops rather than [Array.exists] and [List.for_all], so that checking
   a model against a whole clause list allocates nothing. *)
let satisfies m (c : clause) =
  let n = Array.length c in
  let i = ref 0 in
  while !i < n && not (lit_is_true m c.(!i)) do
    incr i
  done;
  !i < n

let rec check_model m = function
  | [] -> true
  | c :: cs -> satisfies m c && check_model m cs
