(* Search pins for the CDCL solver. Every solve below is fingerprinted
   by its verdict, the solver's lifetime counters (decisions, conflicts,
   propagations, restarts, learnt literals) and a digest of the model or
   of the failed-assumption core; certified solves add the DRUP trail
   length and the certificate. The expected lists were recorded from the
   solver before its hot path was reworked for allocation and inlining,
   so any change to the search itself — a decision, a propagation, a
   learnt literal's order, a reduce_db deletion — shows up here as a
   changed fingerprint, not just as a changed verdict.

   The allocation gate at the end holds the other half of that rework:
   a warm verdict on the 2p2v/4st shared translation allocates almost
   nothing. *)

module S = Sat.Solver

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let model_digest m =
  digest (String.init (Array.length m) (fun i -> if m.(i) then '1' else '0'))

let lits_digest ls = digest (String.concat " " (List.map string_of_int ls))

let counters s =
  let st = S.stats s in
  Printf.sprintf "d=%d c=%d p=%d r=%d l=%d" st.S.decisions st.S.conflicts
    st.S.propagations st.S.restarts st.S.learnt_literals

let verdict s = function
  | S.Sat m -> Printf.sprintf "sat %s m=%s" (counters s) (model_digest m)
  | S.Unsat ->
      Printf.sprintf "unsat %s core=%s" (counters s)
        (lits_digest (S.failed_assumptions s))

let bounded s = function
  | S.Decided r -> verdict s r
  | S.Unknown { reason; conflicts; propagations } ->
      Printf.sprintf "unknown(%s) call c=%d p=%d %s" reason conflicts
        propagations (counters s)

let certificate s =
  match S.last_certification s with
  | None -> "uncertified"
  | Some r ->
      Printf.sprintf "%s +%d -%d drup=%d"
        (match r.Sat.Proof.kind with
        | `Model -> "model"
        | `Refutation -> "refutation")
        r.Sat.Proof.additions r.Sat.Proof.deletions
        (List.length (S.proof_steps s))

(* ---- the instances ---- *)

(* 3-SAT at the phase transition: the seeds give both verdicts *)
let random_3sat seed =
  Sat.Gen.random_ksat ~seed ~k:3 ~num_vars:60 ~num_clauses:256

(* big enough for the learnt database to be reduced, so the pins cover
   reduce_db's choice of victims and its DRUP deletions: the first is
   satisfiable, the second is refuted by a trail with deletions *)
let random_3sat_150 =
  Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:150 ~num_clauses:639

let random_3sat_120 =
  Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:120 ~num_clauses:520

let instances =
  List.map
    (fun seed -> (Printf.sprintf "3sat-%d" seed, random_3sat seed))
    [ 1; 2; 3; 4; 5; 6 ]
  @ [
      ("php5/4", Sat.Gen.pigeonhole 4);
      ("php7/6", Sat.Gen.pigeonhole 6);
      ("3sat-150", random_3sat_150);
      ("3sat-120", random_3sat_120);
    ]

let assumptions_for (p : Sat.Cnf.problem) =
  [ Sat.Cnf.pos 1; Sat.Cnf.neg 2; Sat.Cnf.pos (p.Sat.Cnf.num_vars / 2) ]

let unlimited = Netsim.Budget.unlimited

let fp_solve () =
  List.map
    (fun (name, p) ->
      let s = S.of_problem p in
      name ^ " " ^ verdict s (S.solve s))
    instances

let fp_bounded () =
  List.map
    (fun (name, p) ->
      let s = S.of_problem p in
      let capped = Netsim.Budget.create ~conflicts:40 () in
      let first = bounded s (S.solve_bounded ~budget:capped s) in
      let rest = bounded s (S.solve_bounded ~budget:unlimited s) in
      Printf.sprintf "%s %s / %s" name first rest)
    instances

let fp_certified () =
  List.map
    (fun (name, p) ->
      let s = S.of_problem ~proof:true p in
      let r = S.solve ~certify:true s in
      Printf.sprintf "%s %s %s" name (verdict s r) (certificate s))
    instances

let fp_assuming_certified () =
  List.map
    (fun (name, p) ->
      let s = S.of_problem ~proof:true p in
      let a = assumptions_for p in
      let r1 = S.solve_assuming_certified ~assumptions:a s in
      let c1 = certificate s in
      (* the same session again, under the opposite first assumption *)
      let a2 = Sat.Cnf.neg 1 :: List.tl a in
      let r2 = S.solve_assuming_certified ~assumptions:a2 s in
      Printf.sprintf "%s %s %s / %s %s" name (verdict s r1) c1 (verdict s r2)
        (certificate s))
    instances

let fp_diversified () =
  let p = random_3sat 2 in
  List.map
    (fun k ->
      let s = S.of_problem p in
      Printf.sprintf "diversified %d %s" k
        (bounded s
           (S.solve_bounded ~config:(S.diversified k) ~budget:unlimited s)))
    [ 1; 2; 3 ]

(* The 2p2v/4st shared translation of the served check-sat workload:
   one solver, the six paper cells cold, then five warm passes. *)
let shared_scope =
  { Core.Mca_model.pnodes = 2; vnodes = 2; states = 4; values = 6; bitwidth = 4 }

let shared =
  lazy
    (Core.Mca_model.build_shared ~target:2 Core.Mca_model.Efficient
       shared_scope)

let cell_assumptions sh =
  List.map
    (fun (label, pol) -> (label, Core.Mca_model.shared_assumptions sh pol))
    Core.Mca_model.paper_policies

let fp_shared () =
  let sh = Lazy.force shared in
  let tr = sh.Core.Mca_model.shared_translation in
  (* what Translate.session opens *)
  let s = S.of_problem tr.Relalg.Translate.cnf.Sat.Formula.problem in
  List.concat_map
    (fun pass ->
      List.map
        (fun (label, assumptions) ->
          Printf.sprintf "pass %d %s %s" pass label
            (bounded s (S.solve_bounded ~assumptions ~budget:unlimited s)))
        (cell_assumptions sh))
    [ 0; 1; 2; 3; 4; 5 ]

let groups =
  [
    ("solve", fp_solve);
    ("solve_bounded with a conflict cap", fp_bounded);
    ("solve ~certify", fp_certified);
    ("solve_assuming_certified", fp_assuming_certified);
    ("diversified 1..3", fp_diversified);
    ("2p2v/4st shared translation, one session", fp_shared);
  ]
(* ---- the pins, recorded from the solver before the rework ---- *)

let expected =
  [
    ( "solve",
      [
        "3sat-1 sat d=82 c=61 p=1004 r=0 l=296 m=4a5e8261bf73";
        "3sat-2 sat d=96 c=63 p=1005 r=0 l=324 m=8131fcd67af2";
        "3sat-3 unsat d=105 c=95 p=1342 r=0 l=371 core=d41d8cd98f00";
        "3sat-4 sat d=31 c=16 p=331 r=0 l=109 m=dfb75fa09447";
        "3sat-5 sat d=46 c=24 p=424 r=0 l=130 m=3852d0fb6ede";
        "3sat-6 sat d=49 c=31 p=504 r=0 l=159 m=d0eb64a3a88a";
        "php5/4 unsat d=31 c=28 p=276 r=0 l=103 core=d41d8cd98f00";
        "php7/6 unsat d=1020 c=849 p=10418 r=6 l=10068 core=d41d8cd98f00";
        "3sat-150 sat d=1337 c=1067 p=33489 r=6 l=10682 m=56f72de167bf";
        "3sat-120 unsat d=3049 c=2567 p=69656 r=14 l=21405 core=d41d8cd98f00";
      ] );
    ( "solve_bounded with a conflict cap",
      [
        "3sat-1 unknown(conflict cap 40) call c=40 p=628 d=46 c=40 p=628 r=0 l=201 / sat d=185 c=150 p=2452 r=1 l=725 m=4a5e8261bf73";
        "3sat-2 unknown(conflict cap 40) call c=40 p=588 d=56 c=40 p=588 r=0 l=205 / sat d=120 c=78 p=1296 r=0 l=397 m=6657855287f3";
        "3sat-3 unknown(conflict cap 40) call c=40 p=564 d=51 c=40 p=564 r=0 l=171 / unsat d=114 c=98 p=1362 r=0 l=387 core=d41d8cd98f00";
        "3sat-4 sat d=31 c=16 p=331 r=0 l=109 m=dfb75fa09447 / sat d=44 c=16 p=391 r=0 l=109 m=dfb75fa09447";
        "3sat-5 sat d=46 c=24 p=424 r=0 l=130 m=3852d0fb6ede / sat d=61 c=24 p=484 r=0 l=130 m=3852d0fb6ede";
        "3sat-6 sat d=49 c=31 p=504 r=0 l=159 m=d0eb64a3a88a / sat d=57 c=31 p=564 r=0 l=159 m=d0eb64a3a88a";
        "php5/4 unsat d=31 c=28 p=276 r=0 l=103 core=d41d8cd98f00 / unsat d=31 c=28 p=276 r=0 l=103 core=d41d8cd98f00";
        "php7/6 unknown(conflict cap 40) call c=40 p=465 d=59 c=40 p=465 r=0 l=456 / unsat d=1136 c=949 p=11589 r=6 l=11079 core=d41d8cd98f00";
        "3sat-150 unknown(conflict cap 40) call c=40 p=1115 d=68 c=40 p=1115 r=0 l=431 / sat d=3285 c=2633 p=81837 r=14 l=25139 m=6f439d47d1e6";
        "3sat-120 unknown(conflict cap 40) call c=40 p=1150 d=64 c=40 p=1150 r=0 l=389 / unsat d=2603 c=2109 p=57693 r=13 l=16909 core=d41d8cd98f00";
      ] );
    ( "solve ~certify",
      [
        "3sat-1 sat d=82 c=61 p=1004 r=0 l=296 m=4a5e8261bf73 model +0 -0 drup=61";
        "3sat-2 sat d=96 c=63 p=1005 r=0 l=324 m=8131fcd67af2 model +0 -0 drup=63";
        "3sat-3 unsat d=105 c=95 p=1342 r=0 l=371 core=d41d8cd98f00 refutation +95 -0 drup=95";
        "3sat-4 sat d=31 c=16 p=331 r=0 l=109 m=dfb75fa09447 model +0 -0 drup=16";
        "3sat-5 sat d=46 c=24 p=424 r=0 l=130 m=3852d0fb6ede model +0 -0 drup=24";
        "3sat-6 sat d=49 c=31 p=504 r=0 l=159 m=d0eb64a3a88a model +0 -0 drup=31";
        "php5/4 unsat d=31 c=28 p=276 r=0 l=103 core=d41d8cd98f00 refutation +28 -0 drup=28";
        "php7/6 unsat d=1020 c=849 p=10418 r=6 l=10068 core=d41d8cd98f00 refutation +849 -0 drup=849";
        "3sat-150 sat d=1337 c=1067 p=33489 r=6 l=10682 m=56f72de167bf model +0 -0 drup=1560";
        "3sat-120 unsat d=3049 c=2567 p=69656 r=14 l=21405 core=d41d8cd98f00 refutation +2567 -1643 drup=4210";
      ] );
    ( "solve_assuming_certified",
      [
        "3sat-1 unsat d=54 c=40 p=805 r=0 l=227 core=d41d8cd98f00 refutation +33 -0 drup=32 / sat d=54 c=40 p=805 r=0 l=227 m=c577c8271da1 model +0 -0 drup=39";
        "3sat-2 unsat d=36 c=18 p=270 r=0 l=81 core=d41d8cd98f00 refutation +15 -0 drup=14 / sat d=36 c=18 p=270 r=0 l=81 m=39c8440c538d model +0 -0 drup=17";
        "3sat-3 unsat d=38 c=36 p=495 r=0 l=172 core=e90e699f993e refutation +18 -0 drup=17 / unsat d=38 c=36 p=495 r=0 l=172 core=e90e699f993e refutation +35 -0 drup=34";
        "3sat-4 unsat d=83 c=77 p=1387 r=0 l=410 core=e90e699f993e refutation +39 -0 drup=38 / unsat d=83 c=77 p=1387 r=0 l=410 core=e90e699f993e refutation +76 -0 drup=75";
        "3sat-5 sat d=47 c=13 p=336 r=0 l=73 m=a240a96d8573 model +0 -0 drup=12 / sat d=47 c=13 p=336 r=0 l=73 m=2a4127ee925b model +0 -0 drup=13";
        "3sat-6 sat d=55 c=27 p=558 r=0 l=167 m=d45447b3ba58 model +0 -0 drup=16 / sat d=55 c=27 p=558 r=0 l=167 m=65d6093d696c model +0 -0 drup=27";
        "php5/4 unsat d=5 c=7 p=78 r=0 l=33 core=142c1a592ea4 refutation +2 -0 drup=1 / unsat d=5 c=7 p=78 r=0 l=33 core=142c1a592ea4 refutation +6 -0 drup=5";
        "php7/6 unsat d=133 c=120 p=1617 r=0 l=1438 core=72d87c7765fd refutation +30 -0 drup=29 / unsat d=133 c=120 p=1617 r=0 l=1438 core=72d87c7765fd refutation +119 -0 drup=118";
        "3sat-150 unsat d=782 c=643 p=19576 r=4 l=6359 core=d41d8cd98f00 refutation +602 -0 drup=601 / sat d=782 c=643 p=19576 r=4 l=6359 m=c95458e5465e model +0 -0 drup=642";
        "3sat-120 unsat d=622 c=533 p=14414 r=3 l=4864 core=2883cdd6a103 refutation +383 -0 drup=382 / unsat d=622 c=533 p=14414 r=3 l=4864 core=2883cdd6a103 refutation +532 -0 drup=531";
      ] );
    ( "diversified 1..3",
      [
        "diversified 1 sat d=142 c=105 p=1776 r=2 l=523 m=4e39723b5b08";
        "diversified 2 sat d=100 c=69 p=1162 r=0 l=321 m=e6e4bb0677a3";
        "diversified 3 sat d=53 c=34 p=590 r=0 l=182 m=18b8d5cd9135";
      ] );
    ( "2p2v/4st shared translation, one session",
      [
        "pass 0 submod unsat d=11987 c=2762 p=1760364 r=14 l=920121 core=3ab5458df643";
        "pass 0 submod+release sat d=13285 c=2975 p=1933927 r=16 l=1052724 m=5f265cfc43aa";
        "pass 0 nonsubmod sat d=14355 c=3152 p=2106024 r=17 l=1110247 m=dbd857e827ca";
        "pass 0 nonsubmod+release sat d=14565 c=3175 p=2133014 r=17 l=1111106 m=841c12175d70";
        "pass 0 submod+rebid-attack sat d=14731 c=3187 p=2152577 r=17 l=1111908 m=775befd2004f";
        "pass 0 nonsubmod+rebid-attack sat d=16127 c=3406 p=2327028 r=19 l=1152667 m=dcfabf67d0cf";
        "pass 1 submod unsat d=16754 c=3444 p=2366321 r=19 l=1172475 core=3ab5458df643";
        "pass 1 submod+release sat d=16849 c=3480 p=2404983 r=19 l=1188034 m=5f265cfc43aa";
        "pass 1 nonsubmod sat d=17954 c=3584 p=2513582 r=20 l=1236836 m=7878b9f633aa";
        "pass 1 nonsubmod+release sat d=23620 c=5186 p=3663265 r=29 l=1978248 m=fd2a08746a00";
        "pass 1 submod+rebid-attack sat d=23706 c=5193 p=3678230 r=29 l=1978385 m=0c7bad1d602e";
        "pass 1 nonsubmod+rebid-attack sat d=23772 c=5203 p=3692197 r=29 l=1982402 m=fccbdbdfbb6d";
        "pass 2 submod unsat d=24145 c=5220 p=3717513 r=29 l=1985657 core=3ab5458df643";
        "pass 2 submod+release sat d=24326 c=5276 p=3782975 r=29 l=2009371 m=5f265cfc43aa";
        "pass 2 nonsubmod sat d=24511 c=5296 p=3808590 r=29 l=2020026 m=07ef72c5b96f";
        "pass 2 nonsubmod+release sat d=24708 c=5312 p=3838091 r=29 l=2031744 m=dd1b99db08e8";
        "pass 2 submod+rebid-attack sat d=25315 c=5448 p=3982599 r=30 l=2111581 m=96ba396e1635";
        "pass 2 nonsubmod+rebid-attack sat d=25431 c=5459 p=4000634 r=30 l=2115132 m=35e2ed0c5d9f";
        "pass 3 submod unsat d=25930 c=5472 p=4018622 r=30 l=2118462 core=3ab5458df643";
        "pass 3 submod+release sat d=26778 c=5608 p=4134397 r=31 l=2152675 m=e5644a0e83cd";
        "pass 3 nonsubmod sat d=26901 c=5624 p=4162904 r=31 l=2162238 m=57edaa811980";
        "pass 3 nonsubmod+release sat d=26964 c=5629 p=4174137 r=31 l=2163897 m=fa87853387dd";
        "pass 3 submod+rebid-attack sat d=27048 c=5638 p=4190230 r=31 l=2164388 m=54e0f1f2a76f";
        "pass 3 nonsubmod+rebid-attack sat d=27171 c=5638 p=4198800 r=31 l=2164388 m=fccbdbdfbb6d";
        "pass 4 submod unsat d=27383 c=5649 p=4208118 r=31 l=2165107 core=3ab5458df643";
        "pass 4 submod+release sat d=27587 c=5668 p=4233697 r=31 l=2166494 m=b3054f86e01f";
        "pass 4 nonsubmod sat d=27933 c=5749 p=4334955 r=31 l=2208447 m=ca275d5b7ad4";
        "pass 4 nonsubmod+release sat d=28034 c=5766 p=4359180 r=31 l=2210610 m=1eb7daf17ce9";
        "pass 4 submod+rebid-attack sat d=28180 c=5777 p=4381195 r=31 l=2212456 m=37adca9aba13";
        "pass 4 nonsubmod+rebid-attack sat d=28401 c=5805 p=4437145 r=31 l=2233101 m=7658f04b2f63";
        "pass 5 submod unsat d=28505 c=5814 p=4456158 r=31 l=2233194 core=3ab5458df643";
        "pass 5 submod+release sat d=28646 c=5833 p=4486995 r=31 l=2246117 m=5f265cfc43aa";
        "pass 5 nonsubmod sat d=28859 c=5857 p=4526589 r=31 l=2269949 m=a02ed50c2eaf";
        "pass 5 nonsubmod+release sat d=29202 c=5905 p=4595576 r=31 l=2300293 m=877182967500";
        "pass 5 submod+rebid-attack sat d=29726 c=6004 p=4713715 r=31 l=2364229 m=800b2bbef15b";
        "pass 5 nonsubmod+rebid-attack sat d=29944 c=6055 p=4772135 r=31 l=2392573 m=e53c51c0d178";
      ] );
  ]

let test_group name f () =
  Alcotest.(check (list string)) name (List.assoc name expected) (f ())

(* ---- the allocation gate ---- *)

(* Minor words allocated by the calling domain while [f] runs. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* A warm verdict allocates little beyond its answer and the clauses it
   learns: no per-propagation garbage (reasons are not boxed) and no
   per-clause garbage in the model check every Sat answer passes. The
   solver before the rework allocated about 650K minor words for a
   warm Sat verdict on this translation. The session warms up over two
   passes: the first warm pass still searches hard on one cell (1,602
   conflicts, and each conflict allocates its learnt clause), so the
   gate holds on the second and third warm passes. *)
let test_warm_verdict_allocation () =
  let sh = Lazy.force shared in
  let session = Relalg.Translate.session sh.Core.Mca_model.shared_translation in
  let cells = cell_assumptions sh in
  let solve assumptions =
    Relalg.Translate.solve_cell
      ~budget:(Netsim.Budget.create ~wall_s:300.0 ())
      session assumptions
  in
  for _warm_up = 1 to 2 do
    List.iter (fun (_, a) -> ignore (solve a)) cells
  done;
  for pass = 2 to 3 do
    List.iter
      (fun (label, a) ->
        let outcome, words = minor_words (fun () -> solve a) in
        (match outcome with
        | Relalg.Translate.Decided _ -> ()
        | Relalg.Translate.Unknown r ->
            Alcotest.failf "pass %d %s: unknown (%s)" pass label r);
        if words >= 50_000.0 then
          Alcotest.failf
            "pass %d %s: a warm verdict allocated %.0f minor words (gate 50K)"
            pass label words)
      cells
  done

let suite =
  List.map
    (fun (name, f) ->
      Alcotest.test_case ("search pin: " ^ name) `Quick (test_group name f))
    groups
  @ [
      Alcotest.test_case "warm verdict allocates < 50K minor words" `Quick
        test_warm_verdict_allocation;
    ]
