type policy = {
  max_attempts : int;
  deadline_s : float option;
  backoff : Netsim.Backoff.t;
  seed : int;
}

let default_policy =
  {
    max_attempts = 3;
    deadline_s = None;
    backoff = Netsim.Backoff.make ();
    seed = 0;
  }

type 'a outcome =
  | Done of { value : 'a; attempts : int }
  | Quarantined of { attempts : int; reason : string }
  | Skipped

let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let draining () = Atomic.get drain_flag
let reset_drain () = Atomic.set drain_flag false

let on_drain_signals f =
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> f ()))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* EINTR is expected here: drain is requested from signal handlers and a
   sleeping supervisor must wake up, notice, and stop retrying *)
let interruptible_sleep d =
  if d > 0.0 then
    try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let supervise_one policy f key task =
  (* per-key jitter stream: tasks that fail together must not retry in
     lockstep, and a task's schedule must not depend on its position in
     a (possibly resume-filtered) work array *)
  let rng = Netsim.Backoff.stream ~seed:policy.seed ~key in
  let rec attempt attempt_no =
    if draining () then Skipped
    else begin
      (* a [Clock.now_ns] instant: the hook is polled at every solver
         conflict, and an integer clock read allocates nothing *)
      let deadline = Option.map Netsim.Clock.after policy.deadline_s in
      (* classification is by what the task *observed*: only a poll that
         answered [true] marks the attempt stalled/drained, so a value
         returned without ever seeing [stop () = true] is always kept *)
      let stalled = ref false and drained = ref false in
      let stop () =
        if draining () then begin
          drained := true;
          true
        end
        else
          match deadline with
          | Some d when Netsim.Clock.now_ns () >= d ->
              stalled := true;
              true
          | _ -> false
      in
      match f ~stop task with
      | exception e -> retry attempt_no (Printexc.to_string e)
      | _ when !drained -> Skipped
      | _ when !stalled ->
          retry attempt_no
            (Printf.sprintf "stalled (deadline %.3gs)"
               (Option.value policy.deadline_s ~default:0.0))
      | v -> Done { value = v; attempts = attempt_no }
    end
  and retry attempt_no reason =
    if attempt_no >= policy.max_attempts then
      Quarantined { attempts = attempt_no; reason }
    else begin
      if not (draining ()) then
        interruptible_sleep
          (Netsim.Backoff.delay policy.backoff ~rng ~attempt:attempt_no);
      attempt (attempt_no + 1)
    end
  in
  attempt 1

let map ?jobs ?(policy = default_policy) ?(key = fun i _ -> string_of_int i)
    f tasks =
  if policy.max_attempts < 1 then
    invalid_arg "Supervise.map: max_attempts < 1";
  let indexed = Array.mapi (fun i x -> (key i x, x)) tasks in
  Array.map
    (function
      | Ok outcome -> outcome
      | Error e ->
          (* supervise_one swallows task exceptions; reaching this means
             the supervisor itself failed — report, don't lose the slot *)
          Quarantined { attempts = 0; reason = "supervisor: " ^ Printexc.to_string e })
    (Pool.map_result ?jobs (fun (k, x) -> supervise_one policy f k x) indexed)

let pp_outcome pp_value ppf = function
  | Done { value; attempts } ->
      Format.fprintf ppf "done(attempt %d): %a" attempts pp_value value
  | Quarantined { attempts; reason } ->
      Format.fprintf ppf "quarantined after %d attempt(s): %s" attempts reason
  | Skipped -> Format.pp_print_string ppf "skipped (drain)"
