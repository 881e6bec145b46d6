(** Tuples of atom indices and tuple-set helpers used by bounds and
    matrices. A tuple of arity [n] is an int list of length [n]. *)

type t = int list

val arity : t -> int
val concat : t -> t -> t
val pp : Universe.t -> Format.formatter -> t -> unit
(** Prints as [a->b->c] using atom names, Alloy-style. *)


val all : Universe.t -> int -> t list
(** [all u n] enumerates every tuple of arity [n] over the universe, in
    lexicographic order — the full product used for [univ -> univ ...]. *)

val product : t list -> t list -> t list
(** Pairwise concatenation of two tuple sets. *)

val compare : t -> t -> int
val sort_uniq : t list -> t list
val mem : t -> t list -> bool
val subset : t list -> t list -> bool
