(** Indexed binary max-heap over variables, ordered by a mutable activity
    score — the VSIDS decision queue of the CDCL solver.

    The heap supports O(log n) insertion and removal plus O(log n)
    re-ordering of a single element after its score changes, which is the
    operation VSIDS performs on every conflict. *)

type t = {
  mutable heap : int array;  (** heap slots -> variable *)
  mutable index : int array;  (** variable -> heap slot, or -1 *)
  mutable act : float array;  (** variable -> activity *)
  mutable sz : int;
}
(** The representation is exposed for the solver's hot loops, which
    read [act] and [index] directly: dune's default profile compiles
    with [-opaque], so a call to {!activity} from another module is
    never inlined and returns its float boxed. *)

val create : int -> t
(** [create n] makes a heap able to hold variables [1..n], all initially
    absent, with activity 0. *)

val grow_to : t -> int -> unit
(** [grow_to h n] extends the variable range to [1..n]. *)

val insert : t -> Cnf.var -> unit
(** Inserts a variable; no-op when already present. *)

val remove_max : t -> Cnf.var
(** Removes and returns the variable with the highest activity. Raises
    [Not_found] when empty. *)

val is_empty : t -> bool
val activity : t -> Cnf.var -> float

val bump : t -> Cnf.var -> float -> unit
(** [bump h v inc] adds [inc] to [v]'s activity and restores heap order.
    Returns nothing; call {!rescale} when activities overflow. *)

val rescale : t -> float -> unit
(** Multiplies every activity by the given factor (used to avoid float
    overflow in VSIDS). *)

val size : t -> int
