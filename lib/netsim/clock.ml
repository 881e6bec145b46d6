(* Monotonic_clock.now, declared here with its unboxed native entry:
   under the dev profile's -opaque, a call through the library's
   wrapper returns a boxed int64, three words at every poll. *)
external ticks : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (ticks ())
let now () = Int64.to_float (ticks ()) *. 1e-9

let after s =
  let now = now_ns () in
  let ns = s *. 1e9 in
  if ns >= Float.of_int (max_int - now) then max_int else now + Float.to_int ns
