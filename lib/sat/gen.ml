(* Variable numbering for pigeonhole: pigeon p in hole h (1-based)
   becomes variable (p-1)*holes + h. *)

let php ~pigeons ~holes =
  let var p h = ((p - 1) * holes) + h in
  let b = Cnf.builder () in
  (* every pigeon sits somewhere *)
  for p = 1 to pigeons do
    for h = 1 to holes do
      Cnf.add_lit b (Cnf.pos (var p h))
    done;
    Cnf.close_clause b
  done;
  (* no two pigeons share a hole *)
  for h = 1 to holes do
    for p1 = 1 to pigeons do
      for p2 = p1 + 1 to pigeons do
        Cnf.add_clause b [ Cnf.neg (var p1 h); Cnf.neg (var p2 h) ]
      done
    done
  done;
  Cnf.freeze b

let pigeonhole n = php ~pigeons:(n + 1) ~holes:n
let php_sat n = php ~pigeons:n ~holes:n

let random_ksat ~seed ~k ~num_vars ~num_clauses =
  if k > num_vars then invalid_arg "Gen.random_ksat: k > num_vars";
  let st = Random.State.make [| seed |] in
  let b = Cnf.builder ~num_vars () in
  for _ = 1 to num_clauses do
    (* draw k distinct variables *)
    let rec draw acc =
      if List.length acc = k then acc
      else
        let v = 1 + Random.State.int st num_vars in
        if List.mem v acc then draw acc else draw (v :: acc)
    in
    let vars = draw [] in
    let lits =
      List.map
        (fun v -> if Random.State.bool st then Cnf.pos v else Cnf.neg v)
        vars
    in
    Cnf.add_clause b lits
  done;
  Cnf.freeze b

let graph_coloring ~seed ~nodes ~edge_prob ~colors =
  let st = Random.State.make [| seed |] in
  let var n c = ((n - 1) * colors) + c in
  let b = Cnf.builder () in
  for n = 1 to nodes do
    for c = 1 to colors do
      Cnf.add_lit b (Cnf.pos (var n c))
    done;
    Cnf.close_clause b;
    for c1 = 1 to colors do
      for c2 = c1 + 1 to colors do
        Cnf.add_clause b [ Cnf.neg (var n c1); Cnf.neg (var n c2) ]
      done
    done
  done;
  for n1 = 1 to nodes do
    for n2 = n1 + 1 to nodes do
      if Random.State.float st 1.0 < edge_prob then
        for c = 1 to colors do
          Cnf.add_clause b [ Cnf.neg (var n1 c); Cnf.neg (var n2 c) ]
        done
    done
  done;
  Cnf.freeze b
