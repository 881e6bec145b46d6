type failure = { index : int; detail : string; dimacs : string }

type outcome = {
  instances : int;
  sat_instances : int;
  unsat_instances : int;
  proof_additions : int;
  proof_deletions : int;
  certification_time : float;
  failures : failure list;
}

let random_problem rng ~k ~num_vars ~num_clauses =
  if k > num_vars then invalid_arg "Fuzz.random_problem: k > num_vars";
  let b = Cnf.builder ~num_vars () in
  for _ = 1 to num_clauses do
    let rec draw acc n =
      if n = 0 then acc
      else
        let v = 1 + Netsim.Rng.int rng num_vars in
        if List.mem v acc then draw acc n else draw (v :: acc) (n - 1)
    in
    let lits =
      List.map
        (fun v -> if Netsim.Rng.bool rng then Cnf.pos v else Cnf.neg v)
        (draw [] k)
    in
    Cnf.add_clause b lits
  done;
  Cnf.freeze b

let default_ratios = [ 1.5; 3.0; 4.26; 6.0 ]

let run ?(ks = [ 2; 3 ]) ?(min_vars = 8) ?(max_vars = 20)
    ?(ratios = default_ratios) ~count ~seed () =
  if ks = [] || ratios = [] then invalid_arg "Fuzz.run: empty ks or ratios";
  let rng = Netsim.Rng.create seed in
  let sat_instances = ref 0 in
  let unsat_instances = ref 0 in
  let proof_additions = ref 0 in
  let proof_deletions = ref 0 in
  let certification_time = ref 0.0 in
  let failures = ref [] in
  for index = 0 to count - 1 do
    let k = Netsim.Rng.pick rng ks in
    let num_vars = Netsim.Rng.int_in rng (max k min_vars) max_vars in
    let ratio = Netsim.Rng.pick rng ratios in
    let num_clauses =
      max 1 (int_of_float ((float_of_int num_vars *. ratio) +. 0.5))
    in
    let p = random_problem rng ~k ~num_vars ~num_clauses in
    let fail detail =
      failures :=
        { index; detail; dimacs = Dimacs.to_string p } :: !failures
    in
    let solver = Solver.of_problem ~proof:true p in
    match Solver.solve ~certify:true solver with
    | exception Proof.Certification_failed msg ->
        fail (Printf.sprintf "certification failed: %s" msg)
    | cdcl -> (
        (match Solver.last_certification solver with
        | Some r ->
            proof_additions := !proof_additions + r.Proof.additions;
            proof_deletions := !proof_deletions + r.Proof.deletions;
            certification_time := !certification_time +. r.Proof.check_time
        | None -> fail "certified solve produced no report");
        let dpll = Dpll.solve p in
        match (cdcl, dpll) with
        | Solver.Sat _, Solver.Sat _ -> incr sat_instances
        | Solver.Unsat, Solver.Unsat -> incr unsat_instances
        | Solver.Sat _, Solver.Unsat ->
            fail "disagreement: CDCL says SAT, DPLL says UNSAT"
        | Solver.Unsat, Solver.Sat _ ->
            fail "disagreement: CDCL says UNSAT, DPLL says SAT")
  done;
  {
    instances = count;
    sat_instances = !sat_instances;
    unsat_instances = !unsat_instances;
    proof_additions = !proof_additions;
    proof_deletions = !proof_deletions;
    certification_time = !certification_time;
    failures = List.rev !failures;
  }

(* ---- solver-reuse differential: warm vs fresh on a schedule ------- *)

type reuse_op = Solve_with of Cnf.lit list | Add_clause of Cnf.lit list

let int_of_lit l =
  if Cnf.is_pos l then Cnf.var_of l else -Cnf.var_of l

let pp_op ppf = function
  | Solve_with a ->
      Format.fprintf ppf "solve[%s]"
        (String.concat ","
           (List.map (fun l -> string_of_int (int_of_lit l)) a))
  | Add_clause c ->
      Format.fprintf ppf "add(%s)"
        (String.concat " "
           (List.map (fun l -> string_of_int (int_of_lit l)) c))

let pp_schedule ppf ops =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_op
    ppf ops

(* Replays [ops] on ONE warm solver, checking every [Solve_with] step
   against a cold solver built from scratch over the clauses added so
   far. Returns the first divergence, or [None] when the whole schedule
   agrees. The fresh solver is the oracle: if the warm one ever answers
   differently, state leaked across calls. *)
let check_schedule problem ops =
  let warm = Solver.of_problem problem in
  let added = ref [] (* clauses added after the base problem, reversed *) in
  let rec step i = function
    | [] -> None
    | Add_clause c :: rest ->
        Solver.add_clause warm c;
        added := c :: !added;
        step (i + 1) rest
    | Solve_with assumptions :: rest -> (
        (* the clauses so far, then [units] as unit clauses *)
        let current ?(units = []) () =
          let b = Cnf.builder () in
          Cnf.add_problem b problem;
          List.iter (Cnf.add_clause b) (List.rev !added);
          List.iter (fun l -> Cnf.add_clause b [ l ]) units;
          Cnf.freeze b
        in
        (* a crash is a divergence too — shrink it like any mismatch *)
        match
          let warm_r = Solver.solve ~assumptions warm in
          let fresh_r =
            Solver.solve ~assumptions (Solver.of_problem (current ()))
          in
          (warm_r, fresh_r)
        with
        | exception e -> Some (i, "exception: " ^ Printexc.to_string e)
        | Solver.Sat m, Solver.Sat _ ->
            (* models may legitimately differ; the warm one must satisfy
               the current clauses AND the assumptions *)
            if Cnf.check_model m (current ~units:assumptions ()) then
              step (i + 1) rest
            else Some (i, "warm model violates current clauses/assumptions")
        | Solver.Unsat, Solver.Unsat ->
            (* the failed-assumption core must itself be unsatisfiable
               with the current clauses *)
            let core = Solver.failed_assumptions warm in
            if not (List.for_all (fun l -> List.mem l assumptions) core)
            then Some (i, "failed_assumptions not a subset of assumptions")
            else
              if
                Solver.solve (Solver.of_problem (current ~units:core ()))
                <> Solver.Unsat
              then Some (i, "failed_assumptions core is not unsatisfiable")
              else step (i + 1) rest
        | Solver.Sat _, Solver.Unsat ->
            Some (i, "warm says SAT, fresh says UNSAT")
        | Solver.Unsat, Solver.Sat _ ->
            Some (i, "warm says UNSAT, fresh says SAT"))
  in
  step 0 ops

(* Greedy shrinking: repeatedly drop single ops (and single assumption
   literals inside solves) while the schedule still fails. *)
let shrink_schedule problem ops =
  let fails ops = check_schedule problem ops <> None in
  let drop_nth n l = List.filteri (fun i _ -> i <> n) l in
  let rec shrink ops =
    let n = List.length ops in
    let rec try_drop i =
      if i >= n then None
      else
        let candidate = drop_nth i ops in
        if fails candidate then Some candidate else try_drop (i + 1)
    in
    let rec try_thin i =
      if i >= n then None
      else
        match List.nth ops i with
        | Solve_with (_ :: _ as a) ->
            let rec thin j =
              if j >= List.length a then None
              else
                let candidate =
                  List.mapi
                    (fun k op ->
                      if k = i then Solve_with (drop_nth j a) else op)
                    ops
                in
                if fails candidate then Some candidate else thin (j + 1)
            in
            (match thin 0 with None -> try_thin (i + 1) | s -> s)
        | _ -> try_thin (i + 1)
    in
    match try_drop 0 with
    | Some smaller -> shrink smaller
    | None -> (
        match try_thin 0 with Some smaller -> shrink smaller | None -> ops)
  in
  shrink ops

let random_schedule rng ~num_vars ~ops =
  let lit () =
    let v = 1 + Netsim.Rng.int rng num_vars in
    if Netsim.Rng.bool rng then Cnf.pos v else Cnf.neg v
  in
  List.init ops (fun _ ->
      if Netsim.Rng.int rng 10 < 6 then
        Solve_with (List.init (Netsim.Rng.int rng 4) (fun _ -> lit ()))
      else Add_clause (List.init (1 + Netsim.Rng.int rng 3) (fun _ -> lit ())))

type reuse_outcome = {
  schedules : int;
  reuse_solves : int;  (** warm [Solve_with] steps checked against a cold oracle *)
  reuse_failures : failure list;
}

let run_reuse ?(min_vars = 6) ?(max_vars = 16) ?(max_ops = 12) ~count ~seed ()
    =
  let rng = Netsim.Rng.create seed in
  let failures = ref [] in
  let solves = ref 0 in
  for index = 0 to count - 1 do
    let num_vars = Netsim.Rng.int_in rng min_vars max_vars in
    let ratio = Netsim.Rng.pick rng default_ratios in
    let num_clauses =
      max 1 (int_of_float ((float_of_int num_vars *. ratio) +. 0.5))
    in
    let k = Netsim.Rng.pick rng [ 2; 3 ] in
    let p = random_problem rng ~k ~num_vars ~num_clauses in
    let ops = random_schedule rng ~num_vars ~ops:(1 + Netsim.Rng.int rng max_ops) in
    solves :=
      !solves
      + List.length (List.filter (function Solve_with _ -> true | _ -> false) ops);
    match check_schedule p ops with
    | None -> ()
    | Some _ ->
        let small = shrink_schedule p ops in
        let step, what =
          match check_schedule p small with
          | Some (i, d) -> (i, d)
          | None -> assert false (* shrinking preserves failure *)
        in
        failures :=
          {
            index;
            detail =
              Format.asprintf "step %d: %s — schedule: %a" step what
                pp_schedule small;
            dimacs = Dimacs.to_string p;
          }
          :: !failures
  done;
  {
    schedules = count;
    reuse_solves = !solves;
    reuse_failures = List.rev !failures;
  }

let pp_reuse_outcome ppf o =
  Format.fprintf ppf "%d schedules, %d warm solves checked, %d failure%s"
    o.schedules o.reuse_solves
    (List.length o.reuse_failures)
    (if List.length o.reuse_failures = 1 then "" else "s");
  List.iter
    (fun f -> Format.fprintf ppf "@.  schedule %d: %s" f.index f.detail)
    o.reuse_failures

let pp_outcome ppf o =
  Format.fprintf ppf
    "%d instances (%d sat, %d unsat), %d proof additions, %d deletions, \
     certified in %.3fs, %d failure%s"
    o.instances o.sat_instances o.unsat_instances o.proof_additions
    o.proof_deletions o.certification_time (List.length o.failures)
    (if List.length o.failures = 1 then "" else "s");
  List.iter
    (fun f -> Format.fprintf ppf "@.  instance %d: %s" f.index f.detail)
    o.failures
