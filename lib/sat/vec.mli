(** Growable arrays, used by the CDCL solver for the clause vectors,
    the trail and the watcher lists. *)

type 'a t = { mutable data : 'a array; mutable sz : int; dummy : 'a }
(** Slots [0 .. sz-1] of [data] hold the elements; slots never used
    hold [dummy]. The representation is exposed for the solver's hot
    loops: dune's default profile compiles with [-opaque], so a call
    into another module is never inlined, and the solver reads and
    writes these fields itself. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty vector. [dummy] fills unused slots. *)

val push : 'a t -> 'a -> unit
(** Appends an element, doubling [data] when it is full. *)
