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

(** A CNF problem, as one flat buffer in insertion order: the literals
    of every clause back to back in [lits], and in [ends.(i)] the offset
    one past clause [i]'s last literal, so that clause [i] is
    [lits.(clause_start p i) .. lits.(ends.(i) - 1)]. No literal is over
    variable 0, and [num_vars] is at least every variable used. Only a
    {!builder} makes problems, and nothing writes their arrays after:
    a problem may be shared, e.g. as the start of a solver's
    {!Solver.original_problem}. *)
type problem = private { num_vars : int; lits : lit array; ends : int array }

val empty : problem
(** The problem with no variables and no clauses. *)

val num_clauses : problem -> int
(** Number of clauses in the problem. *)

val clause_start : problem -> int -> int
(** [clause_start p i] is the offset of clause [i]'s first literal. *)

val clause : problem -> int -> clause
(** [clause p i] is a fresh copy of clause [i]. *)

(** {1 Building problems} *)

(** An appending builder: clauses go in one literal at a time, or whole,
    and {!freeze} copies them out as a problem. *)
type builder

val builder : ?num_vars:int -> unit -> builder
(** An empty builder whose variable count starts at [num_vars]
    (default 0). *)

val add_lit : builder -> lit -> unit
(** [add_lit b l] appends [l] to the clause being built, growing the
    variable count as needed. Raises [Invalid_argument] on a literal over
    variable 0 (e.g. [pos 0]), leaving the clause's earlier literals in
    place. *)

val close_clause : builder -> unit
(** Ends the clause being built; with no literal since the last one, it
    is the empty clause. *)

val add_clause : builder -> lit list -> unit
(** [add_clause b lits] appends a whole clause. Raises [Invalid_argument]
    on a literal over variable 0, before appending anything. *)

val add_problem : builder -> problem -> unit
(** Appends every clause of the problem, in order, and grows the
    variable count to the problem's. Raises [Invalid_argument] when a
    clause is still open. *)

val fresh_var : builder -> var
(** [fresh_var b] allocates a new variable. *)

val ensure_vars : builder -> int -> unit
(** [ensure_vars b n] grows the variable count to at least [n]. *)

val freeze : builder -> problem
(** The clauses appended so far, as a problem of exactly their size. The
    builder stays usable. Raises [Invalid_argument] when a clause is
    still open (literals appended since the last {!close_clause}). *)

val reset : builder -> num_vars:int -> unit
(** Empties the builder, keeping its buffers, and sets its variable
    count to [num_vars]. *)

val words : builder -> int
(** Words held by the builder's buffers: what a kept builder costs. *)

(** Truth value assigned to a variable or literal during solving. *)
type value = True | False | Unknown

val value_negate : value -> value
(** [value_negate v] flips [True]/[False] and preserves [Unknown]. *)

val pp_value : Format.formatter -> value -> unit

(** A satisfying assignment, indexed by variable (entry 0 unused). *)
type model = bool array
