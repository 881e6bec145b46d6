(* Per-backend circuit breaker. All clock reads are injected (~now), so
   the tests pin the whole state machine deterministically; the cooldown
   after each trip is drawn from the backend's own Backoff.stream, so
   breakers that trip together do not half-open together. *)

type t = {
  trip_after : int;
  backoff : Netsim.Backoff.t;
  rng : Netsim.Rng.t;
  lock : Mutex.t;
  mutable consecutive : int;  (* consecutive timeouts while closed *)
  mutable trips : int;  (* consecutive open periods: the backoff attempt *)
  mutable open_until : float;  (* 0. when closed *)
  mutable probing : bool;  (* a half-open probe is in flight *)
}

type state = Closed | Open_until of float | Half_open

let make ?(trip_after = 3) ?(backoff = Netsim.Backoff.make ~base_s:1.0 ~cap_s:60.0 ())
    ~seed ~key () =
  if trip_after < 1 then invalid_arg "Breaker.make: trip_after < 1";
  {
    trip_after;
    backoff;
    rng = Netsim.Backoff.stream ~seed ~key:("breaker/" ^ key);
    lock = Mutex.create ();
    consecutive = 0;
    trips = 0;
    open_until = 0.0;
    probing = false;
  }

let state b ~now =
  Mutex.protect b.lock (fun () ->
      if b.open_until = 0.0 then Closed
      else if now < b.open_until then Open_until b.open_until
      else Half_open)

let admit b ~now =
  Mutex.protect b.lock (fun () ->
      if b.open_until = 0.0 then true
      else if now < b.open_until then false
      else if b.probing then false (* one probe at a time *)
      else begin
        b.probing <- true;
        true
      end)

let success b =
  Mutex.protect b.lock (fun () ->
      b.consecutive <- 0;
      b.trips <- 0;
      b.open_until <- 0.0;
      b.probing <- false)

(* a cancelled attempt (drain, request deadline) says nothing about the
   backend: release the half-open probe slot without transitioning, or
   the breaker would stay wedged refusing every future probe *)
let cancel b = Mutex.protect b.lock (fun () -> b.probing <- false)

let trip_locked b ~now =
  b.trips <- b.trips + 1;
  b.open_until <-
    now +. Netsim.Backoff.delay b.backoff ~rng:b.rng ~attempt:b.trips;
  b.consecutive <- 0;
  b.probing <- false

let timeout b ~now =
  Mutex.protect b.lock (fun () ->
      if b.open_until <> 0.0 then
        (* a half-open probe timed out: straight back to Open, with the
           next (longer) cooldown from the stream *)
        trip_locked b ~now
      else begin
        b.consecutive <- b.consecutive + 1;
        if b.consecutive >= b.trip_after then trip_locked b ~now
      end)

let pp_state ppf = function
  | Closed -> Format.pp_print_string ppf "closed"
  | Open_until t -> Format.fprintf ppf "open(until %.3f)" t
  | Half_open -> Format.pp_print_string ppf "half-open"
