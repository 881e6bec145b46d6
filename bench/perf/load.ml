(* Closed-loop load: each client domain sends its next operation only
   after the previous one returned, like the service's real callers
   (mca_cluster dispatchers, mca_serve --client/--submit). Operations
   are numbered; operation [i]'s input is a pure function of the seed
   and [i], so both commits of a comparison send the same inputs in the
   same order. Only [send] is timed, not making the input. *)

type 'a sample = { idx : int; lat_s : float; res : 'a }

type stop_after = Count of int | Seconds of float

let timed idx input send =
  let s = Measure.now () in
  let res = send input in
  { idx; lat_s = Measure.now () -. s; res }

(* Two client domains, so at most two open connections: the load is
   sized for a 2-core machine running a [--jobs 2] daemon. *)
let clients = 2

(* Runs operations [first], [first + 1], ... from [clients] domains.
   Returns the samples in operation order and the phase's wall time. *)
let closed_loop ~first stop_after ~input ~send =
  let next = Atomic.make first in
  let t0 = Measure.now () in
  let go_on i =
    match stop_after with
    | Count n -> i < first + n
    | Seconds s -> Measure.now () -. t0 < s
  in
  let client () =
    let rec loop acc =
      let i = Atomic.fetch_and_add next 1 in
      if go_on i then loop (timed i (input i) send :: acc) else acc
    in
    loop []
  in
  let domains = List.init clients (fun _ -> Domain.spawn client) in
  let samples = List.concat_map Domain.join domains in
  let wall = Measure.now () -. t0 in
  (List.sort (fun a b -> compare a.idx b.idx) samples, wall)

(* Operations [first .. first + n - 1], one at a time. *)
let sequential ~first n ~input ~send =
  List.init n (fun k -> timed (first + k) (input (first + k)) send)
