(** Bounded multi-producer multi-consumer queue (Mutex/Condition).

    The work-distribution channel of {!Pool}: producers block when the
    queue is full (back-pressure keeps the task backlog O(jobs) instead
    of O(tasks)), consumers block when it is empty, and {!close} wakes
    every blocked consumer so worker domains drain and exit. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Blocks while the queue is full. Raises [Invalid_argument] on a
    closed queue (producers must stop pushing before closing). *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking admission: [false] when the queue is full or closed,
    [true] once the element is enqueued. This is the load-shedding
    entry point of the verification service — an acceptor calls it and
    answers [SHED] on [false] instead of blocking behind the backlog. *)

val pop : 'a t -> 'a option
(** Blocks while the queue is empty and open; [None] once the queue is
    closed and drained. *)

val close : 'a t -> unit
(** Idempotent. Already-queued elements remain poppable. *)

val length : 'a t -> int
