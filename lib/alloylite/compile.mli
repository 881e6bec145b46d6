(** Compilation of an Alloy-lite model + scope into relational bounds and
    execution of [run]/[check] commands — the Alloy Analyzer front door.

    Atom allocation: each top-level signature gets [scope] fresh atoms
    (named [Sig$i]); [extends] children receive disjoint sub-blocks of
    their own, so sibling disjointness is free; [one sig]s, ordered sigs
    and [exactly] scopes become exact bounds (no SAT variables). Fields
    get empty lower bounds and the column-product upper bound, plus
    structural facts tying them to the actual signature contents and
    their declared multiplicities — the same facts the Alloy Analyzer
    synthesizes. *)

type t = {
  model : Model.t;
  scope : Scope.t;
  universe : Relalg.Universe.t;
  bounds : Relalg.Bounds.t;
  facts : Relalg.Ast.formula;  (** structural + user facts, conjoined *)
  sig_atoms : (string * string list) list;
      (** upper-bound atom names per signature, in allocation order *)
}

val universe_estimate : Model.t -> Scope.t -> int * int
(** [(atoms, tuples)]: an upper bound on the universe size (including
    Int atoms) and on the largest total field-tuple budget that
    {!prepare} would allocate for this model at this scope — computed
    without allocating anything, so a service can reject a
    resource-hungry scope before translation. Both counts saturate at
    [max_int] instead of overflowing. *)

val prepare : Model.t -> Scope.t -> t
(** Validates and compiles. Raises [Failure] with the validation message
    on an ill-formed model. *)

val int_atom : t -> int -> Relalg.Ast.expr
(** [int_atom c n] is the singleton relation holding the Int atom of
    value [n]. Raises [Invalid_argument] when [n] is outside the
    bitwidth range or no bitwidth was given. *)

type outcome = Relalg.Translate.outcome = Sat of Relalg.Instance.t | Unsat

(** Every command below translates facts ∧ goal ({!translation}) and
    solves it on a throwaway {!Relalg.Translate.session}: one opened
    for that solve and then dropped. *)

val run_formula : ?symmetry:bool -> t -> Relalg.Ast.formula -> outcome
(** Finds an instance satisfying facts plus the given formula. *)

val run_pred : ?symmetry:bool -> t -> string -> outcome
(** [run_pred c p] existentially closes predicate [p] over its parameters
    and solves — Alloy's [run p]. *)

val check : ?symmetry:bool -> t -> string -> outcome
(** [check c a] checks the named assertion — Alloy's [check a]: [Sat
    inst] is a counterexample, [Unsat] means the assertion holds in
    scope. [symmetry] enables Kodkod-style symmetry-breaking predicates
    (see {!Relalg.Translate.translate}). Raises [Invalid_argument] on an
    unknown assertion. *)

val check_formula_certified :
  ?symmetry:bool -> t -> Relalg.Ast.formula -> Relalg.Translate.certified_outcome
(** Certified counterexample search: one solve on a [~certify:true]
    session, then {!Relalg.Translate.certify} of its verdict (DRUP
    refutation for [Unsat], strict model check for [Sat]). Raises
    {!Sat.Proof.Certification_failed} when the certificate is
    rejected. *)

val enumerate : ?symmetry:bool -> ?limit:int -> t -> Relalg.Ast.formula -> Relalg.Instance.t list
(** Up to [limit] distinct instances satisfying facts plus the formula —
    Alloy's instance iteration. *)

val translation : ?symmetry:bool -> t -> Relalg.Ast.formula -> Relalg.Translate.translation
(** The translation of facts ∧ formula: the input of every solve above,
    of size measurements (experiment E5), and of callers that keep
    their own {!Relalg.Translate.session} — a counterexample search
    for assertion [a] is [translation c (Relalg.Ast.not_ a)]. *)

val pp_outcome : Format.formatter -> outcome -> unit
