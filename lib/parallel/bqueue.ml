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

let take_locked q =
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- None;
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  Condition.signal q.not_full;
  x

let push q x =
  Mutex.protect q.lock (fun () ->
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
  Mutex.protect q.lock (fun () ->
      if q.closed || q.len = Array.length q.buf then false
      else begin
        q.buf.((q.head + q.len) mod Array.length q.buf) <- Some x;
        q.len <- q.len + 1;
        Condition.signal q.not_empty;
        true
      end)

let pop q =
  Mutex.protect q.lock (fun () ->
      while q.len = 0 && not q.closed do
        Condition.wait q.not_empty q.lock
      done;
      if q.len = 0 then None (* closed and drained *)
      else take_locked q)

let close q =
  Mutex.protect q.lock (fun () ->
      q.closed <- true;
      Condition.broadcast q.not_empty;
      Condition.broadcast q.not_full)

let length q = Mutex.protect q.lock (fun () -> q.len)
