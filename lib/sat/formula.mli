(** Boolean formulas (circuits) and their Tseitin translation to CNF.

    This is the intermediate language between the relational-logic
    translator ({!Relalg}) and the CNF solver: relational formulas become
    boolean circuits over primary variables, which this module flattens to
    equisatisfiable CNF with fresh auxiliary variables. Construction
    performs constant folding and small-structure simplification so that
    trivially true/false constraints never reach the solver. *)

type t = private
  | True
  | False
  | Var of int * Cnf.var
  | Not of int * t
  | And of int * t list
  | Or of int * t list
  | Implies of int * t * t
  | Iff of int * t * t
  | Ite of int * t * t * t  (** if-then-else over booleans *)
(** A circuit node. The type is private: nodes are built only by the
    smart constructors below, which hash-cons them. The [int] of every
    non-constant node is the id it was given when first interned;
    [True] and [False] have ids 0 and 1. Structurally equal formulas
    built in one domain between two {!clear_sharing} calls are the same
    node, with the same id, so every traversal of a shared circuit
    ({!size}, {!to_cnf}) keys on the id and stays linear in the DAG. *)

val tt : t
val ff : t
val var : Cnf.var -> t

val not_ : t -> t
(** Negation with constant folding and double-negation elimination. *)

val clear_sharing : unit -> unit
(** Drops the hash-consing tables of the calling domain; call it
    between independent translations to release them. Existing
    formulas remain valid and keep their ids; only future sharing with
    them is lost. Ids come from one process-wide counter that
    [clear_sharing] never resets, so a node built after the call never
    takes the id of one built before it.

    Interning is domain-local ({!Domain.DLS}): domains hash-cons
    independently and never contend, so translations may run in
    parallel. Because ids are unique across the whole process,
    formulas built in different domains may be combined freely; they
    are simply not shared with each other. *)

val and_ : t list -> t
(** N-ary conjunction; folds constants, flattens nested [And]s. *)

val or_ : t list -> t
(** N-ary disjunction; folds constants, flattens nested [Or]s. *)

val and2 : t -> t -> t
val or2 : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val xor : t -> t -> t
val ite : t -> t -> t -> t

val at_most_one : t list -> t
(** Pairwise at-most-one constraint over the given formulas. *)

val exactly_one : t list -> t

val eval : (Cnf.var -> bool) -> t -> bool
(** [eval env f] evaluates [f] under the assignment [env] — used to check
    models and in tests as the semantic oracle for the Tseitin encoding. *)

val size : t -> int
(** Number of connective nodes, a proxy for circuit complexity. *)

val pp : Format.formatter -> t -> unit

(** {1 CNF translation} *)

type cnf_result = {
  problem : Cnf.problem;
  root : Cnf.lit option;
      (** Literal equisatisfiable with the formula; [None] when the
          formula folded to a constant (see [constant]). *)
  constant : bool option;
      (** [Some b] when the whole formula simplified to constant [b]. *)
}

val to_cnf : num_primary:int -> t -> cnf_result
(** [to_cnf ~num_primary f] Tseitin-translates [f], whose variables
    must lie in [1 .. num_primary]. Auxiliary variables are allocated
    above [num_primary], and the root literal is asserted as a unit
    clause, so the resulting problem is satisfiable iff [f] is. Raises
    [Invalid_argument] on a variable outside that range. *)
