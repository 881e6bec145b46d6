(** A concrete binding of relations to tuple sets — what a satisfying SAT
    model denotes, and what the ground evaluator ({!Eval}) consumes.
    Counterexamples shown to Alloy-lite users are instances. *)

type t

val create : Universe.t -> (string * Tuple.t list) list -> t
val universe : t -> Universe.t
val tuples : t -> string -> Tuple.t list
(** Tuples of a relation; raises [Not_found] for unbound names. *)

val rels : t -> (string * Tuple.t list) list
(** All bindings in declaration order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Atom-name rendering of every relation, Alloy evaluator style. *)
