let parse_string text =
  let lines = String.split_on_char '\n' text in
  let b = Cnf.builder () in
  let declared = ref None in
  (* whether literals follow the last terminating 0 *)
  let pending = ref false in
  let line_no = ref 0 in
  let fail msg = failwith (Printf.sprintf "dimacs: line %d: %s" !line_no msg) in
  let handle_token tok =
    match int_of_string_opt tok with
    | None -> fail (Printf.sprintf "bad literal %S" tok)
    | Some 0 ->
        Cnf.close_clause b;
        pending := false
    | Some i ->
        Cnf.add_lit b (Cnf.lit_of_int i);
        pending := true
  in
  List.iter
    (fun line ->
      incr line_no;
      let line = String.trim line in
      if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; nv; nc ] -> (
            match (int_of_string_opt nv, int_of_string_opt nc) with
            | Some nv, Some nc -> declared := Some (nv, nc)
            | _ -> fail "bad p-header counts")
        | _ -> fail "bad p-header"
      end
      else
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (( <> ) "")
        |> List.iter handle_token)
    lines;
  if !pending then Cnf.close_clause b;
  (match !declared with Some (nv, _) -> Cnf.ensure_vars b nv | None -> ());
  Cnf.freeze b

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text

let print ppf (p : Cnf.problem) =
  Format.fprintf ppf "p cnf %d %d@." p.num_vars (Cnf.num_clauses p);
  let j = ref 0 in
  Array.iter
    (fun stop ->
      while !j < stop do
        Format.fprintf ppf "%d " (Cnf.int_of_lit p.lits.(!j));
        incr j
      done;
      Format.fprintf ppf "0@.")
    p.ends

let to_string p = Format.asprintf "%a" print p

let write_file path p =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  print ppf p;
  Format.pp_print_flush ppf ();
  close_out oc

(* ---- DRUP proof trails ---- *)

let print_drup ppf steps =
  List.iter
    (fun s ->
      let lits =
        match s with
        | Proof.Delete lits ->
            Format.fprintf ppf "d ";
            lits
        | Proof.Add lits -> lits
      in
      Array.iter (fun l -> Format.fprintf ppf "%d " (Cnf.int_of_lit l)) lits;
      Format.fprintf ppf "0@.")
    steps

let drup_to_string steps = Format.asprintf "%a" print_drup steps

let write_drup_file path steps =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  print_drup ppf steps;
  Format.pp_print_flush ppf ();
  close_out oc

let parse_drup text =
  let steps = ref [] in
  let line_no = ref 0 in
  let fail msg = failwith (Printf.sprintf "drup: line %d: %s" !line_no msg) in
  List.iter
    (fun line ->
      incr line_no;
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else begin
        let deletion = String.length line > 0 && line.[0] = 'd' in
        let body =
          if deletion then String.sub line 1 (String.length line - 1) else line
        in
        let tokens =
          String.split_on_char ' ' body
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (( <> ) "")
        in
        let lits = ref [] in
        let closed = ref false in
        List.iter
          (fun tok ->
            if !closed then fail "literals after terminating 0"
            else
              match int_of_string_opt tok with
              | None -> fail (Printf.sprintf "bad literal %S" tok)
              | Some 0 -> closed := true
              | Some i -> lits := Cnf.lit_of_int i :: !lits)
          tokens;
        if not !closed then fail "missing terminating 0";
        let arr = Array.of_list (List.rev !lits) in
        steps := (if deletion then Proof.Delete arr else Proof.Add arr) :: !steps
      end)
    (String.split_on_char '\n' text);
  List.rev !steps

let print_result ppf = function
  | Solver.Unsat -> Format.fprintf ppf "s UNSATISFIABLE@."
  | Solver.Sat m ->
      Format.fprintf ppf "s SATISFIABLE@.v ";
      for v = 1 to Array.length m - 1 do
        Format.fprintf ppf "%d " (if m.(v) then v else -v)
      done;
      Format.fprintf ppf "0@."
