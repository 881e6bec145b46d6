(** Core CNF types shared by every SAT component.

    Variables are positive integers starting at 1 (DIMACS convention).
    Literals use the compact encoding [2*var] for the positive literal and
    [2*var + 1] for the negative one, which makes negation a single xor and
    lets literal-indexed arrays be dense. *)

(** A propositional variable, numbered from 1. *)
type var = int

(** A literal in the compact [2v] / [2v+1] encoding. *)
type lit = int

val pos : var -> lit
(** [pos v] is the positive literal of variable [v]. *)

val neg : var -> lit
(** [neg v] is the negative literal of variable [v]. *)

val negate : lit -> lit
(** [negate l] flips the sign of [l]. *)

val var_of : lit -> var
(** [var_of l] is the variable underlying [l]. *)

val is_pos : lit -> bool
(** [is_pos l] holds when [l] is a positive literal. *)

val lit_of_int : int -> lit
(** [lit_of_int i] converts a DIMACS-style literal ([i <> 0]; negative
    integers denote negated variables). *)

val int_of_lit : lit -> int
(** [int_of_lit l] converts back to the DIMACS integer convention. *)

val pp_lit : Format.formatter -> lit -> unit
(** Prints a literal in DIMACS style, e.g. [-3]. *)

(** A clause is a disjunction of literals. *)
type clause = lit array

(** A CNF problem: number of variables and list of clauses (in reverse
    order of addition, which DIMACS printing undoes). *)
type problem = { num_vars : int; clauses : clause list }

val empty : problem
(** The problem with no variables and no clauses. *)

val add_clause : problem -> lit list -> problem
(** [add_clause p lits] appends a clause, growing [num_vars] as needed.
    Raises [Invalid_argument] on the empty clause encoded via literal 0. *)

val fresh_var : problem -> problem * var
(** [fresh_var p] allocates a new variable. *)

val num_clauses : problem -> int
(** Number of clauses in the problem. *)

(** Truth value assigned to a variable or literal during solving. *)
type value = True | False | Unknown

val value_negate : value -> value
(** [value_negate v] flips [True]/[False] and preserves [Unknown]. *)

val pp_value : Format.formatter -> value -> unit

(** A satisfying assignment, indexed by variable (entry 0 unused). *)
type model = bool array

val lit_is_true : model -> lit -> bool
(** [lit_is_true m l] evaluates literal [l] under model [m]. *)

val satisfies : model -> clause -> bool
(** [satisfies m c] holds when some literal of [c] is true under [m];
    never for the empty clause. It allocates nothing, so the solver can
    afford to run it over its whole clause database on every [Sat]
    answer. *)

val check_model : model -> clause list -> bool
(** [check_model m cs] verifies every clause has a true literal — the
    final sanity gate applied to every solver answer. *)
