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

type 'a timed = Item of 'a | Timeout | Closed

val pop_deadline : 'a t -> deadline:float -> 'a timed
(** Like {!pop}, but gives up with [Timeout] once the absolute
    wall-clock time [deadline] (as from [Unix.gettimeofday]) passes
    while the queue is empty. [Closed] is answered as soon as the queue
    is closed and drained. It polls: wake-up latency after a push is
    bounded by its 2 ms slice, so a consumer that has nothing else to
    watch (the service workers, the pool) uses the blocking {!pop}. *)

val close : 'a t -> unit
(** Idempotent. Already-queued elements remain poppable. *)

val length : 'a t -> int
