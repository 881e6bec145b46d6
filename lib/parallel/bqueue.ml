type 'a t = {
  buf : 'a option array; (* ring buffer; None marks an empty slot *)
  mutable head : int; (* next pop position *)
  mutable len : int;
  mutable closed : bool;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity < 1";
  {
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let with_lock q f =
  Mutex.lock q.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.lock) f

let take_locked q =
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- None;
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  Condition.signal q.not_full;
  x

let push q x =
  with_lock q (fun () ->
      while q.len = Array.length q.buf && not q.closed do
        Condition.wait q.not_full q.lock
      done;
      if q.closed then invalid_arg "Bqueue.push: closed queue";
      q.buf.((q.head + q.len) mod Array.length q.buf) <- Some x;
      q.len <- q.len + 1;
      Condition.signal q.not_empty)

let try_push q x =
  (* the admission-control primitive: a full (or closed) queue answers
     [false] immediately — an acceptor thread must never block behind
     the workload it is trying to shed *)
  with_lock q (fun () ->
      if q.closed || q.len = Array.length q.buf then false
      else begin
        q.buf.((q.head + q.len) mod Array.length q.buf) <- Some x;
        q.len <- q.len + 1;
        Condition.signal q.not_empty;
        true
      end)

let pop q =
  with_lock q (fun () ->
      while q.len = 0 && not q.closed do
        Condition.wait q.not_empty q.lock
      done;
      if q.len = 0 then None (* closed and drained *)
      else take_locked q)

type 'a timed = Item of 'a | Timeout | Closed

let pop_deadline q ~deadline =
  (* the stdlib [Condition] has no timed wait, so the deadline variant
     polls in short slices: worst-case wake-up latency is the slice
     (2 ms). A consumer that needs no deadline uses the blocking [pop],
     which wakes as soon as an element or the close arrives. *)
  let rec loop () =
    let r =
      with_lock q (fun () ->
          if q.len > 0 then
            match take_locked q with Some v -> Item v | None -> assert false
          else if q.closed then Closed
          else Timeout)
    in
    match r with
    | Item _ | Closed -> r
    | Timeout ->
        let now = Unix.gettimeofday () in
        if now >= deadline then Timeout
        else begin
          (try Unix.sleepf (Float.min 0.002 (deadline -. now))
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
  in
  loop ()

let close q =
  with_lock q (fun () ->
      q.closed <- true;
      Condition.broadcast q.not_empty;
      Condition.broadcast q.not_full)

let length q = with_lock q (fun () -> q.len)
