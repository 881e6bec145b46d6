(* Cross-engine differential harness: random small MCA instances on
   which the independent engines — synchronous simulation, the
   explicit-state checker, DPLL and CDCL on the same consensus CNF —
   must agree, plus the paper's two headline results pinned as named
   regression cases, and the determinism contract of the parallel
   sweep driver (same seed + same jobs ⇒ byte-identical report;
   jobs = 1 ⇒ the sequential path).

   The QCheck cases shrink their instance descriptor on failure, so the
   reported counterexample is the minimal disagreeing instance. *)

let check = Alcotest.(check bool)

let scope ~states ~values =
  { Core.Mca_model.small_scope with Core.Mca_model.states; values }

let policy_name i = fst (List.nth Core.Mca_model.paper_policies i)
let model_policy i = snd (List.nth Core.Mca_model.paper_policies i)
let sim_policy i = snd (List.nth Mca.Policy.paper_grid i)

(* Both SAT engines on the identical CNF: exact agreement, no Unknowns
   allowed inside the generous per-instance budget. *)
let sat_engines_agree ~policy_idx ~states ~values =
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient (model_policy policy_idx)
      (scope ~states ~values)
  in
  let cnf = (Core.Mca_model.translation m).Relalg.Translate.cnf in
  match cnf.Sat.Formula.constant with
  | Some _ -> true (* both engines would see the same folded constant *)
  | None -> (
      let p = cnf.Sat.Formula.problem in
      let cdcl =
        Sat.Solver.solve_bounded
          ~budget:(Netsim.Budget.create ~wall_s:30.0 ())
          (Sat.Solver.of_problem p)
      in
      let dpll =
        Sat.Dpll.solve_bounded
          ~budget:(Netsim.Budget.create ~wall_s:30.0 ())
          p
      in
      match (cdcl, dpll) with
      | Sat.Solver.Decided (Sat.Solver.Sat m1), Sat.Solver.Decided (Sat.Solver.Sat m2)
        ->
          (* both witnesses must actually satisfy the shared CNF *)
          Sat.Proof.check_model p ~units:[] m1 = Ok ()
          && Sat.Proof.check_model p ~units:[] m2 = Ok ()
      | Sat.Solver.Decided Sat.Solver.Unsat, Sat.Solver.Decided Sat.Solver.Unsat
        -> true
      | _ -> false)

let qcheck_dpll_cdcl_agree_unsat_family =
  (* values 4 leaves three positive bids, and two pnodes' four distinct
     utilities need four: the facts alone have no instance (ROADMAP's
     vacuity item), so the CNF is UNSAT whatever the policy asserts.
     This checks only that the two engines agree on that refutation. *)
  QCheck.Test.make ~count:8
    ~name:"dpll = cdcl on MCA consensus CNF (unsat family)"
    QCheck.(
      set_print
        (fun (i, s) ->
          Printf.sprintf "policy %s, %d states, 4 values" (policy_name i) s)
        (pair (int_range 0 5) (int_range 2 3)))
    (fun (policy_idx, states) ->
      sat_engines_agree ~policy_idx ~states ~values:4)

let qcheck_dpll_cdcl_agree_sat_family =
  (* value lattice 1..4 at a 2-state horizon: consensus is refutable, so
     both engines must find (their own) models of the same CNF *)
  QCheck.Test.make ~count:4
    ~name:"dpll = cdcl on MCA consensus CNF (sat family)"
    QCheck.(
      set_print
        (fun i -> Printf.sprintf "policy %s, 2 states, 5 values" (policy_name i))
        (int_range 2 5))
    (fun policy_idx -> sat_engines_agree ~policy_idx ~states:2 ~values:5)

let qcheck_explicit_implies_simulation =
  (* the explicit checker decides ALL schedules; the synchronous round
     schedule is one of them, so Converges must imply Converged *)
  QCheck.Test.make ~count:20
    ~name:"explicit Converges implies sync simulation converges"
    QCheck.(
      set_print
        (fun (seed, i) -> Printf.sprintf "seed %d, policy %s" seed (policy_name i))
        (pair (int_range 1 100_000) (int_range 0 5)))
    (fun (seed, policy_idx) ->
      let rng = Netsim.Rng.create seed in
      let u () = 1 + Netsim.Rng.int rng 12 in
      let cfg =
        Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2)
          ~num_items:2
          ~base_utilities:[| [| u (); u () |]; [| u (); u () |] |]
          ~policy:(sim_policy policy_idx)
      in
      match Checker.Explore.run cfg with
      | Checker.Explore.Converges _ -> (
          match Mca.Protocol.run_sync ~max_rounds:200 cfg with
          | Mca.Protocol.Converged _ -> true
          | _ -> false)
      | _ -> true (* no claim when the explicit verdict is negative *))

(* ---- the paper's headline results, pinned ---- *)

let contended p =
  Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
    ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |] |] ~policy:p

let test_result1_nonsubmodular_release_oscillates () =
  (* Result 1, Section V: a non-sub-modular utility combined with the
     release-on-outbid policy p_RO breaks consensus *)
  let p =
    { Core.Mca_model.honest_submodular with
      Core.Mca_model.submodular = false;
      release_outbid = true }
  in
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient p (scope ~states:4 ~values:5)
  in
  (match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat ->
      Alcotest.fail
        "expected an oscillation counterexample for non-submodular + p_RO \
         (paper Result 1, Section V)");
  match
    Mca.Protocol.run_sync ~max_rounds:200
      (contended
         (Mca.Policy.make ~utility:(Mca.Policy.Non_submodular 2)
            ~release_outbid:true ~target_items:2 ()))
  with
  | Mca.Protocol.Oscillating _ -> ()
  | v ->
      Alcotest.failf
        "simulation must oscillate under non-submodular + p_RO (paper Result \
         1, Section V); got %a"
        Mca.Protocol.pp_verdict v

let test_result2_rebidding_attack_breaks_consensus () =
  (* Result 2, Section V: dropping the Remark-1 "never rebid on lost
     items" rule admits the rebidding attack and non-consensus *)
  let p =
    { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true }
  in
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient p (scope ~states:4 ~values:5)
  in
  (match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat ->
      Alcotest.fail
        "expected a rebidding-attack counterexample once Remark 1 is dropped \
         (paper Result 2, Section V)");
  match
    Mca.Protocol.run_sync ~max_rounds:200
      (contended
         (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~rebid_lost:true
            ~target_items:2 ()))
  with
  | Mca.Protocol.Oscillating _ -> ()
  | v ->
      Alcotest.failf
        "simulation must oscillate under the rebidding attack (paper Result \
         2, Section V); got %a"
        Mca.Protocol.pp_verdict v

let test_result1_honest_submodular_holds () =
  (* the positive row of Result 1: honest sub-modular agents reach
     consensus in scope (paper Result 1, Section V) *)
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient
      Core.Mca_model.honest_submodular (scope ~states:4 ~values:5)
  in
  match Core.Mca_model.check_consensus ~symmetry:true m with
  | Alloylite.Compile.Unsat -> ()
  | Alloylite.Compile.Sat _ ->
      Alcotest.fail
        "honest sub-modular agents must reach consensus in scope (paper \
         Result 1, Section V)"

(* ---- shared translation ≡ per-cell translation ---- *)

let verdict_name = function
  | Relalg.Translate.Decided Relalg.Translate.Unsat -> "holds"
  | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> "violated"
  | Relalg.Translate.Unknown r -> "unknown:" ^ r

(* every policy cell of the paper grid, three ways: one translation
   built once with selector relations must give the cell-for-cell
   verdicts of the build-per-cell pipeline, on a throwaway session per
   cell (cold) AND on one warm session threaded through all six cells
   — and the certified throwaway and warm sessions must agree while
   producing a checked DRUP/model certificate for the assumed problem.
   The warm certified session additionally proves the solver survives
   certification unpoisoned: the same session keeps answering later
   cells. *)
let shared_matches_per_cell test_scope =
  let shared =
    Core.Mca_model.build_shared Core.Mca_model.Efficient test_scope
  in
  let session = Core.Mca_model.incremental_session shared in
  let certified_session =
    Core.Mca_model.incremental_session ~certify:true shared
  in
  List.iter
    (fun (label, mp) ->
      let mp =
        { mp with
          Core.Mca_model.target =
            min mp.Core.Mca_model.target test_scope.Core.Mca_model.vnodes }
      in
      let budget () = Netsim.Budget.create ~wall_s:300.0 () in
      let per_cell =
        Relalg.Translate.Decided
          (Core.Mca_model.check_consensus ~symmetry:true
             (Core.Mca_model.build Core.Mca_model.Efficient mp test_scope))
      in
      let cold_v =
        Core.Mca_model.check_consensus_incremental ~budget:(budget ())
          (Core.Mca_model.incremental_session shared)
          mp
      in
      if verdict_name per_cell <> verdict_name cold_v then
        Alcotest.failf "%s: per-cell says %s, throwaway session says %s"
          label (verdict_name per_cell) (verdict_name cold_v);
      let incr_v =
        Core.Mca_model.check_consensus_incremental ~budget:(budget ()) session
          mp
      in
      if verdict_name per_cell <> verdict_name incr_v then
        Alcotest.failf "%s: per-cell says %s, incremental session says %s"
          label (verdict_name per_cell) (verdict_name incr_v);
      (* one solve, then a check of its verdict *)
      let certified what session =
        let v =
          Core.Mca_model.check_consensus_incremental ~budget:(budget ())
            session mp
        in
        if verdict_name v <> verdict_name per_cell then
          Alcotest.failf "%s: certified %s verdict (%s) disagrees" label what
            (verdict_name v);
        match Core.Mca_model.certify session with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: %s verdict came back uncertified" label what
      in
      certified "throwaway" (Core.Mca_model.incremental_session ~certify:true shared);
      certified "incremental" certified_session)
    Core.Mca_model.paper_policies

let test_shared_translation_2p2v () =
  shared_matches_per_cell (scope ~states:4 ~values:5)

let test_shared_translation_3p2v () =
  shared_matches_per_cell
    { Core.Mca_model.pnodes = 3; vnodes = 2; states = 3; values = 4;
      bitwidth = 4 }

(* a learned clause from an UNSAT cell must never leak its verdict into
   a cell with incompatible selectors: "submod" holds (UNSAT under its
   assumptions) while "submod+release" is violated (SAT) — alternating
   them on ONE warm session, each must keep reporting its own verdict,
   however many refutations the solver has learnt in between *)
let test_incremental_no_unsat_leak () =
  let sc = scope ~states:4 ~values:5 in
  let shared = Core.Mca_model.build_shared Core.Mca_model.Efficient sc in
  let session = Core.Mca_model.incremental_session shared in
  let v mp =
    verdict_name
      (Core.Mca_model.check_consensus_incremental
         ~budget:(Netsim.Budget.create ~wall_s:300.0 ())
         session mp)
  in
  let submod = List.assoc "submod" Core.Mca_model.paper_policies in
  let release = List.assoc "submod+release" Core.Mca_model.paper_policies in
  let attack =
    List.assoc "submod+rebid-attack" Core.Mca_model.paper_policies
  in
  for round = 1 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "round %d: submod still holds" round)
      "holds" (v submod);
    Alcotest.(check string)
      (Printf.sprintf "round %d: submod+release still violated" round)
      "violated" (v release)
  done;
  (* directly conflicting selector sets back to back *)
  Alcotest.(check string) "attack cell violated" "violated" (v attack);
  Alcotest.(check string) "submod unaffected by the attack cell" "holds"
    (v submod)

(* ---- parallel sweep: determinism + the pinned verdict table ---- *)

let sweep_scope = [ ("2p2v/4st", scope ~states:4 ~values:5) ]

let test_sweep_determinism_and_pins () =
  let run jobs =
    Core.Experiments.run_sweep ~jobs ~seed:1
      ~budget:(Netsim.Budget.create ~wall_s:120.0 ())
      ~scopes:sweep_scope ()
  in
  let r1 = run 1 and r2 = run 2 in
  Alcotest.(check string)
    "jobs 2 report byte-identical to the sequential path"
    (Core.Experiments.render_sweep r1)
    (Core.Experiments.render_sweep r2);
  check "every cell decided" true (Core.Experiments.sweep_decided r1);
  (* cells come back in task order whatever the scheduling *)
  let expected_labels =
    Array.to_list
      (Array.map
         (fun (label, _, _, tag, _) -> (tag, label))
         (Core.Experiments.sweep_tasks ~scopes:sweep_scope ()))
  in
  Alcotest.(check (list (pair string string)))
    "cells in task order" expected_labels
    (List.map
       (fun c ->
         (c.Core.Experiments.scope_tag, c.Core.Experiments.policy_label))
       r1.Core.Experiments.cells);
  (* the Result-1 / Result-2 verdict table, pinned *)
  let verdicts =
    List.map
      (fun c ->
        ( c.Core.Experiments.policy_label,
          c.Core.Experiments.sat_verdict,
          c.Core.Experiments.exhaustive,
          c.Core.Experiments.sim_ok ))
      r1.Core.Experiments.cells
  in
  let expected =
    [
      ("submod", Core.Experiments.Holds, Core.Experiments.Holds, true);
      ("submod+release", Core.Experiments.Violated, Core.Experiments.Holds, true);
      ("nonsubmod", Core.Experiments.Violated, Core.Experiments.Holds, true);
      ("nonsubmod+release", Core.Experiments.Violated, Core.Experiments.Violated,
       false);
      ("submod+rebid-attack", Core.Experiments.Violated,
       Core.Experiments.Violated, false);
      ("nonsubmod+rebid-attack", Core.Experiments.Violated,
       Core.Experiments.Violated, false);
    ]
  in
  check "pinned Result-1/Result-2 sweep verdicts (Section V)" true
    (verdicts = expected);
  (* cross-engine coherence on every cell: a SAT-level "holds in scope"
     must be confirmed by the exhaustive checker and the simulation *)
  List.iter
    (fun c ->
      (match (c.Core.Experiments.sat_verdict, c.Core.Experiments.exhaustive) with
      | Core.Experiments.Holds, Core.Experiments.Violated ->
          Alcotest.failf "%s: SAT says holds, explicit checker refutes"
            c.Core.Experiments.policy_label
      | _ -> ());
      match (c.Core.Experiments.exhaustive, c.Core.Experiments.sim_ok) with
      | Core.Experiments.Holds, false ->
          Alcotest.failf "%s: explicit checker converges, simulation does not"
            c.Core.Experiments.policy_label
      | _ -> ())
    r1.Core.Experiments.cells

(* warm sessions and the --jobs axis must be invisible in the canonical
   rendering: the warm sweep at any job count renders byte-identical to
   a grid of cold cells, each solved on a throwaway session *)
let test_sweep_incremental_byte_identity () =
  let budget () = Netsim.Budget.create ~wall_s:120.0 () in
  let cold =
    let tasks = Core.Experiments.sweep_tasks ~scopes:sweep_scope () in
    let shared = Hashtbl.create 2 in
    let cells =
      Array.to_list
        (Array.map
           (fun ((_, _, mp, _, scope) as task) ->
             let target =
               min mp.Core.Mca_model.target scope.Core.Mca_model.vnodes
             in
             let sh =
               match Hashtbl.find_opt shared target with
               | Some sh -> sh
               | None ->
                   let sh =
                     Core.Mca_model.build_shared ~target
                       Core.Mca_model.Efficient scope
                   in
                   Hashtbl.add shared target sh;
                   sh
             in
             Core.Experiments.run_cell ~shared:sh ~incremental:false
               ~budget:(budget ()) ~seed:1 task)
           tasks)
    in
    Core.Experiments.render_sweep
      { Core.Experiments.sweep_jobs = 1; sweep_seed = 1; cells;
        sweep_wall = 0.0; sweep_resumed = 0; sweep_partial = false }
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "warm jobs %d = cold cells" jobs)
        cold
        (Core.Experiments.render_sweep
           (Core.Experiments.run_sweep ~jobs ~seed:1 ~budget:(budget ())
              ~scopes:sweep_scope ())))
    [ 1; 4 ]

let test_sweep_exhausted_budget_is_deterministic () =
  (* a zero wall budget leaves every cell undecided — identically so at
     any job count, and the driver reports it honestly *)
  let scopes = [ ("2p2v/2st", scope ~states:2 ~values:4) ] in
  let run jobs =
    Core.Experiments.run_sweep ~jobs ~seed:1
      ~budget:(Netsim.Budget.create ~wall_s:0.0 ())
      ~scopes ()
  in
  let r1 = run 1 and r2 = run 2 in
  check "not decided" false (Core.Experiments.sweep_decided r1);
  Alcotest.(check string)
    "undecided reports also byte-identical"
    (Core.Experiments.render_sweep r1)
    (Core.Experiments.render_sweep r2);
  let has_wall_line s =
    List.exists
      (fun line -> String.length line >= 7 && String.sub line 0 7 = "  wall ")
      (String.split_on_char '\n' s)
  in
  check "canonical rendering carries no clocks" false
    (has_wall_line (Core.Experiments.render_sweep r1));
  check "timings rendering does carry the wall line" true
    (has_wall_line (Core.Experiments.render_sweep ~timings:true r1))

let suite =
  [
    Alcotest.test_case "Result 1 pin: non-submodular + p_RO oscillates" `Quick
      test_result1_nonsubmodular_release_oscillates;
    Alcotest.test_case "Result 2 pin: rebidding attack breaks consensus" `Quick
      test_result2_rebidding_attack_breaks_consensus;
    Alcotest.test_case "Result 1 pin: honest submodular holds in scope" `Slow
      test_result1_honest_submodular_holds;
    Alcotest.test_case "sweep determinism + pinned verdict table" `Slow
      test_sweep_determinism_and_pins;
    Alcotest.test_case "shared translation = per-cell (2p2v, certified)" `Slow
      test_shared_translation_2p2v;
    Alcotest.test_case "shared translation = per-cell (3p2v, certified)" `Slow
      test_shared_translation_3p2v;
    Alcotest.test_case "incremental session: no UNSAT leak across cells" `Slow
      test_incremental_no_unsat_leak;
    Alcotest.test_case "sweep byte-identical across jobs x incremental" `Slow
      test_sweep_incremental_byte_identity;
    Alcotest.test_case "sweep deterministic under exhausted budget" `Quick
      test_sweep_exhausted_budget_is_deterministic;
    QCheck_alcotest.to_alcotest qcheck_dpll_cdcl_agree_unsat_family;
    QCheck_alcotest.to_alcotest qcheck_dpll_cdcl_agree_sat_family;
    QCheck_alcotest.to_alcotest qcheck_explicit_implies_simulation;
  ]
