type t = {
  wall_s : float option;
  steps : int option;
  conflicts : int option;
  propagations : int option;
  started : float;
}

let create ?wall_s ?steps ?conflicts ?propagations () =
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
  { wall_s; steps; conflicts; propagations; started = Unix.gettimeofday () }

let unlimited =
  { wall_s = None; steps = None; conflicts = None; propagations = None;
    started = 0.0 }

let is_unlimited t =
  t.wall_s = None && t.steps = None && t.conflicts = None
  && t.propagations = None

let until ~deadline =
  let now = Unix.gettimeofday () in
  {
    wall_s = Some (Float.max 0.0 (deadline -. now));
    steps = None;
    conflicts = None;
    propagations = None;
    started = now;
  }

let restarted t = { t with started = Unix.gettimeofday () }
let elapsed t = Unix.gettimeofday () -. t.started

let intersect a b =
  (* tightest of each cap; the wall caps are compared as remaining time
     from now, so the result can be restarted like any fresh budget *)
  let now = Unix.gettimeofday () in
  let remaining t = Option.map (fun w -> w -. (now -. t.started)) t.wall_s in
  let omin f x y =
    match (x, y) with
    | None, z | z, None -> z
    | Some x, Some y -> Some (f x y)
  in
  {
    wall_s = omin min (remaining a) (remaining b);
    steps = omin min a.steps b.steps;
    conflicts = omin min a.conflicts b.conflicts;
    propagations = omin min a.propagations b.propagations;
    started = now;
  }

type status = Within | Expired of string

let check ~steps ~conflicts ~propagations t =
  let over cap used label =
    match cap with
    | Some c when used >= c -> Some (Printf.sprintf "%s cap %d" label c)
    | _ -> None
  in
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
              | Some w when elapsed t >= w ->
                  Expired (Printf.sprintf "deadline %.3gs" w)
              | _ -> Within)))

let pp ppf t =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "wall=%.3gs") t.wall_s;
        Option.map (Printf.sprintf "steps=%d") t.steps;
        Option.map (Printf.sprintf "conflicts=%d") t.conflicts;
        Option.map (Printf.sprintf "propagations=%d") t.propagations;
      ]
  in
  match parts with
  | [] -> Format.pp_print_string ppf "unlimited"
  | ps -> Format.pp_print_string ppf (String.concat " " ps)
