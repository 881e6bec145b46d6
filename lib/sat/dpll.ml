exception Out_of_budget
exception Stopped of string * int (* reason, decisions so far *)

(* Assignment: Cnf.value array, var-indexed. Clauses as lit lists. *)

let eval_clause assigns c =
  let sat = ref false in
  let unassigned = ref [] in
  Array.iter
    (fun l ->
      match assigns.(Cnf.var_of l) with
      | Cnf.Unknown -> unassigned := l :: !unassigned
      | v ->
          let t = if Cnf.is_pos l then v = Cnf.True else v = Cnf.False in
          if t then sat := true)
    c;
  (!sat, !unassigned)

(* Repeat unit propagation to fixpoint. Returns [None] on conflict,
   otherwise the list of newly assigned variables (for undo). *)
let propagate assigns clauses =
  let trail = ref [] in
  let conflict = ref false in
  let changed = ref true in
  while !changed && not !conflict do
    changed := false;
    List.iter
      (fun c ->
        if not !conflict then
          match eval_clause assigns c with
          | true, _ -> ()
          | false, [] -> conflict := true
          | false, [ l ] ->
              let v = Cnf.var_of l in
              assigns.(v) <- (if Cnf.is_pos l then Cnf.True else Cnf.False);
              trail := v :: !trail;
              changed := true
          | false, _ -> ())
      clauses
  done;
  if !conflict then begin
    List.iter (fun v -> assigns.(v) <- Cnf.Unknown) !trail;
    None
  end
  else Some !trail

let pick_unassigned assigns n =
  let rec loop v = if v > n then None else if assigns.(v) = Cnf.Unknown then Some v else loop (v + 1) in
  loop 1

let solve_internal ?(stop = fun () -> false) ?(wall = Netsim.Budget.unlimited)
    budget (p : Cnf.problem) =
  let assigns = Array.make (p.num_vars + 1) Cnf.Unknown in
  let decisions = ref 0 in
  let rec search () =
    match propagate assigns p.clauses with
    | None -> false
    | Some trail -> (
        match pick_unassigned assigns p.num_vars with
        | None -> true
        | Some v ->
            incr decisions;
            (match budget with
            | Some b when !decisions > b -> raise Out_of_budget
            | _ -> ());
            (* cancellation and wall budget polled per decision, the
               DPLL analogue of the CDCL conflict-boundary poll *)
            if stop () then raise (Stopped ("cancelled", !decisions));
            (match Netsim.Budget.check ~steps:!decisions ~conflicts:0 ~propagations:0 wall with
            | Netsim.Budget.Expired reason ->
                raise (Stopped (reason, !decisions))
            | Netsim.Budget.Within -> ());
            let try_value value =
              assigns.(v) <- value;
              let ok = search () in
              if not ok then assigns.(v) <- Cnf.Unknown;
              ok
            in
            if try_value Cnf.True then true
            else if try_value Cnf.False then true
            else begin
              List.iter (fun w -> assigns.(w) <- Cnf.Unknown) trail;
              false
            end)
  in
  if search () then begin
    let m = Array.make (p.num_vars + 1) false in
    for v = 1 to p.num_vars do
      m.(v) <- assigns.(v) = Cnf.True
    done;
    assert (Cnf.check_model m p.clauses);
    Solver.Sat m
  end
  else Solver.Unsat

let solve p = solve_internal None p

let solve_with_limit ~max_decisions p =
  match solve_internal (Some max_decisions) p with
  | r -> Some r
  | exception Out_of_budget -> None

let solve_bounded ?stop ~budget p =
  match solve_internal ?stop ~wall:budget None p with
  | r -> Solver.Decided r
  | exception Stopped (reason, decisions) ->
      Solver.Unknown { reason; conflicts = decisions; propagations = 0 }
