(* Standalone DIMACS CNF solver on the library's CDCL engine.

   Usage: sat_solve FILE.cnf [--dpll] [--stats] [--certify] [--drup FILE]
   Prints an s SATISFIABLE / s UNSATISFIABLE verdict with a v model
   line, SAT-competition style. With --certify, the verdict is
   independently re-checked (strict model check / DRUP refutation) and
   the run aborts with exit code 3 if the certificate is rejected.
   --drup writes the proof trail in textual DRUP format for external
   checkers. *)

open Cmdliner

let solve_file path use_dpll show_stats certify drup_out =
  match Sat.Dimacs.parse_file path with
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | problem ->
      if use_dpll && (certify || drup_out <> None) then begin
        Printf.eprintf
          "error: --certify/--drup need the CDCL engine (drop --dpll)\n";
        exit 2
      end;
      let result, stats, certification =
        if use_dpll then (Sat.Dpll.solve problem, None, None)
        else begin
          let log_proof = certify || drup_out <> None in
          let solver = Sat.Solver.of_problem ~proof:log_proof problem in
          let words0 = Gc.minor_words () in
          let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
          let r = Sat.Solver.solve solver in
          let alloc =
            ( Gc.minor_words () -. words0,
              (Gc.quick_stat ()).Gc.minor_collections - gcs0 )
          in
          let certification =
            if not certify then None
            else
              try Some (Sat.Solver.certify solver ~assumptions:[] r)
              with Sat.Proof.Certification_failed msg ->
                Printf.eprintf "error: certificate REJECTED: %s\n" msg;
                exit 3
          in
          (match drup_out with
          | Some file ->
              Sat.Dimacs.write_drup_file file (Sat.Solver.proof_steps solver)
          | None -> ());
          (r, Some (Sat.Solver.stats solver, alloc), certification)
        end
      in
      Sat.Dimacs.print_result Format.std_formatter result;
      (match certification with
      | Some report -> Format.printf "c certified: %a@." Sat.Proof.pp_report report
      | None -> ());
      (match (show_stats, stats) with
      | true, Some (st, (words, gcs)) ->
          Format.printf "c %a@." Sat.Solver.pp_stats st;
          Format.printf "c alloc: %.0f minor words, %d minor GCs@." words gcs
      | _ -> ());
      exit (match result with Sat.Solver.Sat _ -> 10 | Sat.Solver.Unsat -> 20)

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS CNF file")

let dpll_flag =
  Arg.(value & flag & info [ "dpll" ] ~doc:"Use the plain DPLL baseline instead of CDCL")

let stats_flag =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print solver statistics as a comment line, then the minor-heap \
                 words and minor collections of the solve itself")

let certify_flag =
  Arg.(value & flag
       & info [ "certify" ]
           ~doc:"Independently certify the verdict (strict model check for SAT, \
                 DRUP proof check for UNSAT); exit 3 on a rejected certificate")

let drup_arg =
  Arg.(value & opt (some string) None
       & info [ "drup" ] ~docv:"FILE"
           ~doc:"Write the DRUP proof trail to $(docv) for external checkers")

let cmd =
  Cmd.v
    (Cmd.info "sat_solve" ~doc:"CDCL SAT solver for DIMACS CNF files")
    Term.(
      const solve_file $ path_arg $ dpll_flag $ stats_flag $ certify_flag
      $ drup_arg)

let () = exit (Cmd.eval cmd)
