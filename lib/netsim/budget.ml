type t = {
  wall_s : float option;
  deadline : int;  (* the Clock.now_ns instant the wall cap expires *)
  steps : int option;
  conflicts : int option;
  propagations : int option;
  stop : unit -> bool;
}

let never () = false
let arm = function Some w -> Clock.after w | None -> max_int

let create ?wall_s ?steps ?conflicts ?propagations ?(stop = never) () =
  (match wall_s with
  | Some w when w < 0.0 -> invalid_arg "Budget.create: negative wall_s"
  | _ -> ());
  let nonneg name = function
    | Some n when n < 0 -> invalid_arg ("Budget.create: negative " ^ name)
    | _ -> ()
  in
  nonneg "steps" steps;
  nonneg "conflicts" conflicts;
  nonneg "propagations" propagations;
  { wall_s; deadline = arm wall_s; steps; conflicts; propagations; stop }

let unlimited =
  { wall_s = None; deadline = max_int; steps = None; conflicts = None;
    propagations = None; stop = never }

let restarted ?stop t =
  let stop =
    match stop with
    | None -> t.stop
    | Some s when t.stop == never -> s
    | Some s -> fun () -> t.stop () || s ()
  in
  { t with deadline = arm t.wall_s; stop }

let share t frac =
  match t.wall_s with
  | None -> t
  | Some _ ->
      let now = Clock.now_ns () in
      let remaining = Int.max 0 (t.deadline - now) in
      let ns = Float.to_int (Float.of_int remaining *. frac) in
      { t with wall_s = Some (Float.of_int ns *. 1e-9); deadline = now + ns }

type status = Within | Expired of string

let check ~steps ~conflicts ~propagations t =
  let over cap used label =
    match cap with
    | Some c when used >= c -> Some (Printf.sprintf "%s cap %d" label c)
    | _ -> None
  in
  if t.stop () then Expired "cancelled"
  else
    match over t.steps steps "step" with
    | Some r -> Expired r
    | None -> (
        match over t.conflicts conflicts "conflict" with
        | Some r -> Expired r
        | None -> (
            match over t.propagations propagations "propagation" with
            | Some r -> Expired r
            | None -> (
                match t.wall_s with
                | Some w when Clock.now_ns () >= t.deadline ->
                    Expired (Printf.sprintf "deadline %.3gs" w)
                | _ -> Within)))
