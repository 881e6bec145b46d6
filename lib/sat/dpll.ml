exception Stopped of string * int (* reason, decisions so far *)

(* Assignment: Cnf.value array, var-indexed. *)

(* Repeat unit propagation to fixpoint. A clause is unit when no literal
   is true and exactly one literal occurrence is unassigned. Returns
   [None] on conflict, otherwise the list of newly assigned variables
   (for undo). *)
let propagate assigns (p : Cnf.problem) =
  let trail = ref [] in
  let conflict = ref false in
  let changed = ref true in
  let n = Cnf.num_clauses p in
  while !changed && not !conflict do
    changed := false;
    let i = ref 0 in
    while !i < n && not !conflict do
      let sat = ref false and unassigned = ref 0 and last = ref 0 in
      for j = Cnf.clause_start p !i to p.ends.(!i) - 1 do
        let l = p.lits.(j) in
        match assigns.(Cnf.var_of l) with
        | Cnf.Unknown ->
            incr unassigned;
            last := l
        | v -> if v = if Cnf.is_pos l then Cnf.True else Cnf.False then sat := true
      done;
      if not !sat then
        if !unassigned = 0 then conflict := true
        else if !unassigned = 1 then begin
          let v = Cnf.var_of !last in
          assigns.(v) <- (if Cnf.is_pos !last then Cnf.True else Cnf.False);
          trail := v :: !trail;
          changed := true
        end;
      incr i
    done
  done;
  if !conflict then begin
    List.iter (fun v -> assigns.(v) <- Cnf.Unknown) !trail;
    None
  end
  else Some !trail

let pick_unassigned assigns n =
  let rec loop v = if v > n then None else if assigns.(v) = Cnf.Unknown then Some v else loop (v + 1) in
  loop 1

let solve_internal ?(budget = Netsim.Budget.unlimited) (p : Cnf.problem) =
  let assigns = Array.make (p.num_vars + 1) Cnf.Unknown in
  let decisions = ref 0 in
  let rec search () =
    match propagate assigns p with
    | None -> false
    | Some trail -> (
        match pick_unassigned assigns p.num_vars with
        | None -> true
        | Some v ->
            incr decisions;
            (* the budget and its cancellation hook polled per
               decision, the DPLL analogue of the CDCL
               conflict-boundary poll *)
            (match Netsim.Budget.check ~steps:!decisions ~conflicts:0 ~propagations:0 budget with
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
    assert (Proof.check_model p ~units:[] m = Ok ());
    Solver.Sat m
  end
  else Solver.Unsat

let solve p = solve_internal p

let solve_bounded ~budget p =
  match solve_internal ~budget p with
  | r -> Solver.Decided r
  | exception Stopped (reason, decisions) ->
      Solver.Unknown { reason; conflicts = decisions; propagations = 0 }
