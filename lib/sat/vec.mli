(** Growable arrays, used pervasively by the CDCL solver for the clause
    database, the trail and the watcher lists. *)

type 'a t = { mutable data : 'a array; mutable sz : int; dummy : 'a }
(** Slots [0 .. sz-1] of [data] hold the elements; the operations
    below reset the others to [dummy], so that a vector of pointers
    keeps nothing alive past its end. The representation is exposed for
    the solver's hot loops: dune's default profile compiles with
    [-opaque], so a call to {!get} or {!push} from another module is
    never inlined, and the solver restates the few operations it needs
    on these fields. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty vector. [dummy] fills unused slots. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of [n] copies of [x] (also used as dummy). *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element. Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
(** Logically empties the vector (capacity is retained). *)

val shrink : 'a t -> int -> unit
(** [shrink v n] drops elements so that [size v = n]. *)

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] by swapping in the last element;
    O(1), does not preserve order. *)

val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val copy : 'a t -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
