(* Search pins for the CDCL solver. Every solve below is fingerprinted
   by its verdict, the solver's lifetime counters (decisions, conflicts,
   propagations, restarts, learnt literals) and a digest of the model or
   of the failed-assumption core; certified verdicts add the DRUP trail
   length and the certificate. (The certified groups were recorded when
   certification was part of the solve call, and [certify] keeps every
   one of their fingerprints.) The expected lists were recorded from the
   solver before its hot path was reworked for allocation and inlining,
   and the 3sat-200 list from the solver before its clause store, when
   clauses were records: any change to the search itself — a decision,
   a propagation, a learnt literal's order, a reduce_db deletion —
   shows up here as a changed fingerprint, not just as a changed
   verdict.

   The allocation gate at the end holds the other half of that rework:
   a verdict on the 2p2v/4st shared translation, cold or warm,
   allocates almost nothing. A second gate holds the CNF's way from
   Tseitin into a session to a few allocations per problem, not
   several per clause. *)

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

(* [r] certified on [s] under [assumptions] *)
let certificate s ~assumptions r =
  let c = S.certify s ~assumptions r in
  Printf.sprintf "%s +%d -%d drup=%d"
    (match c.Sat.Proof.kind with `Model -> "model" | `Refutation -> "refutation")
    c.Sat.Proof.additions c.Sat.Proof.deletions
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
      let r = S.solve s in
      let c = certificate s ~assumptions:[] r in
      Printf.sprintf "%s %s %s" name (verdict s r) c)
    instances

(* Both verdicts print the counters and core as they stand after the
   second solve. *)
let fp_assuming_certified () =
  List.map
    (fun (name, p) ->
      let s = S.of_problem ~proof:true p in
      let a = assumptions_for p in
      let r1 = S.solve ~assumptions:a s in
      let c1 = certificate s ~assumptions:a r1 in
      (* the same session again, under the opposite first assumption *)
      let a2 = Sat.Cnf.neg 1 :: List.tl a in
      let r2 = S.solve ~assumptions:a2 s in
      let c2 = certificate s ~assumptions:a2 r2 in
      Printf.sprintf "%s %s %s / %s %s" name (verdict s r1) c1 (verdict s r2) c2)
    instances

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

(* One session long enough for [reduce_db] to run many times between
   assumption changes, so that the pins cover the clause store's
   compaction (the last test below checks that it happens): random
   3-SAT with 200 variables at the phase transition, solved under
   twelve assumption sets that give both verdicts. *)
let random_3sat_200 =
  Sat.Gen.random_ksat ~seed:7 ~k:3 ~num_vars:200 ~num_clauses:852

let assumption_sets =
  List.init 12 (fun i ->
      List.init 3 (fun j ->
          let v = 1 + (((i * 37) + (j * 61)) mod 200) in
          if (i + j) mod 2 = 0 then Sat.Cnf.pos v else Sat.Cnf.neg v))

let compaction_session =
  lazy
    (let s = S.of_problem random_3sat_200 in
     let lines =
       List.mapi
         (fun i assumptions ->
           Printf.sprintf "set %d %s" i (verdict s (S.solve ~assumptions s)))
         assumption_sets
     in
     (s, lines))

let fp_compaction () = snd (Lazy.force compaction_session)

let groups =
  [
    ("solve", fp_solve);
    ("solve_bounded with a conflict cap", fp_bounded);
    ("solve, then certify", fp_certified);
    ("solve under assumptions, then certify", fp_assuming_certified);
    ("2p2v/4st shared translation, one session", fp_shared);
    ("3sat-200 under twelve assumption sets, one session", fp_compaction);
  ]
(* ---- the pins, recorded from the solver before the rework (the last
   group: before the clause store) ---- *)

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
    ( "solve, then certify",
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
    ( "solve under assumptions, then certify",
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
    ( "3sat-200 under twelve assumption sets, one session",
      [
        "set 0 sat d=4133 c=3378 p=126695 r=16 l=39990 m=d9386aa93207";
        "set 1 sat d=4729 c=3851 p=144585 r=19 l=45132 m=6544eb8f8462";
        "set 2 unsat d=6805 c=5580 p=212646 r=30 l=64748 core=65fb81bd7dd1";
        "set 3 sat d=6926 c=5659 p=215945 r=30 l=65836 m=56b3e721fff8";
        "set 4 sat d=6957 c=5659 p=216145 r=30 l=65836 m=56b3e721fff8";
        "set 5 sat d=7552 c=6118 p=233933 r=33 l=71618 m=7c3a59b9943f";
        "set 6 unsat d=12807 c=10530 p=406911 r=54 l=124463 core=8586557833bf";
        "set 7 sat d=14748 c=12117 p=470866 r=63 l=145062 m=2b6f2a46d43d";
        "set 8 sat d=14865 c=12188 p=473947 r=63 l=145902 m=f186f81e871d";
        "set 9 unsat d=17713 c=14558 p=561000 r=76 l=173712 core=9520e96a0fde";
        "set 10 unsat d=21389 c=17593 p=672476 r=90 l=209028 core=27ed658904ca";
        "set 11 sat d=25123 c=20672 p=792130 r=104 l=247648 m=da8aa0ce9a85";
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

(* A verdict allocates little beyond its answer: no per-propagation
   garbage (reasons are clause references, not boxed), no per-clause
   garbage in the model check every Sat answer passes, no learnt-clause
   garbage (learnt clauses are written into the clause store) and no
   boxed counters in the budget poll. What is left is the two decayed
   activity increments of each conflict and, while a session is cold,
   watch lists outgrowing their arrays. The solver before the
   allocation rework took about 650K minor words for a warm Sat verdict
   on this translation; before the clause store, the cold submod cell
   took 271K and the first warm pass up to 172K. The gate covers every
   verdict of the session: the six cold cells, the first warm pass,
   which still searches hard on one cell, and two more warm passes. *)
let test_verdict_allocation () =
  let sh = Lazy.force shared in
  let session = Relalg.Translate.session sh.Core.Mca_model.shared_translation in
  let cells = cell_assumptions sh in
  let solve assumptions =
    Relalg.Translate.solve_cell
      ~budget:(Netsim.Budget.create ~wall_s:300.0 ())
      session assumptions
  in
  for pass = 0 to 3 do
    List.iter
      (fun (label, a) ->
        let outcome, words = minor_words (fun () -> solve a) in
        (match outcome with
        | Relalg.Translate.Decided _ -> ()
        | Relalg.Translate.Unknown r ->
            Alcotest.failf "pass %d %s: unknown (%s)" pass label r);
        if words >= 50_000.0 then
          Alcotest.failf
            "pass %d %s: a verdict allocated %.0f minor words (gate 50K)"
            pass label words)
      cells
  done

(* ---- the load allocation gate ---- *)

(* Words allocated by the calling domain while [f] runs: its minor
   words plus the words it allocated straight into the major heap
   (arrays too big for the minor heap), which [Gc.counters] counts as
   major words that were not promoted. (The minor count of
   [Gc.counters] can miss words, [Gc.minor_words] does not.) *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let alloc_words f =
  let minor0 = Gc.minor_words () and major0 = direct_major () in
  let r = f () in
  let minor1 = Gc.minor_words () and major1 = direct_major () in
  (r, minor1 -. minor0 +. (major1 -. major0))

(* Translating to CNF and loading the CNF into a session allocate
   little beyond what they keep: the problem's one exact-size copy, and
   the session's clause store, watch lists and per-variable arrays.
   Before the CNF was one flat buffer, each clause was allocated several
   times on its way to the store: a record, a list cell and an array in
   Tseitin, then a list cell, an array copy and a sort's closures in the
   loader. Measured then, in words: 357K for the Tseitin step of the
   listings' uniqueID translation, 560K for opening its session, and
   2.56M for opening a session on the 2p2v/4st shared translation; with
   the flat buffer, 69K (once the domain's builder has grown), 232K and
   938K. *)
let test_load_allocation () =
  let c, goal =
    List.assoc "check uniqueID" (Test_cnf_identity.listing_goals ())
  in
  let circuit, num_primary =
    Relalg.Translate.circuit c.Alloylite.Compile.bounds
      (Relalg.Ast.and_ [ c.Alloylite.Compile.facts; goal ])
  in
  (* the first translation on a domain grows the builder it keeps *)
  ignore (Sat.Formula.to_cnf ~num_primary circuit);
  let _, tseitin =
    alloc_words (fun () -> Sat.Formula.to_cnf ~num_primary circuit)
  in
  let listing = Alloylite.Compile.translation c goal in
  let _, listing_session =
    alloc_words (fun () -> Relalg.Translate.session listing)
  in
  let shared = (Lazy.force shared).Core.Mca_model.shared_translation in
  let _, shared_session =
    alloc_words (fun () -> Relalg.Translate.session shared)
  in
  List.iter
    (fun (what, words, gate) ->
      if words >= gate then
        Alcotest.failf "%s allocated %.0f words (gate %.0f)" what words gate)
    [
      ("the Tseitin step of uniqueID", tseitin, 100_000.0);
      ("opening uniqueID's session", listing_session, 300_000.0);
      ("opening a 2p2v/4st session", shared_session, 1_200_000.0);
    ]

(* The compaction pin above is only a pin of the store's compaction if
   its session compacts, several times. *)
let test_compaction_pin_compacts () =
  let s, _ = Lazy.force compaction_session in
  let n = (S.stats s).S.compactions in
  if n < 2 then
    Alcotest.failf "the 3sat-200 session compacted its store %d times" n

let suite =
  List.map
    (fun (name, f) ->
      Alcotest.test_case ("search pin: " ^ name) `Quick (test_group name f))
    groups
  @ [
      Alcotest.test_case
        "warm verdict allocates < 50K minor words, as do the cold ones" `Quick
        test_verdict_allocation;
      Alcotest.test_case "the 3sat-200 session compacts its clause store"
        `Quick test_compaction_pin_compacts;
      Alcotest.test_case
        "Tseitin and session loads allocate < 100K, 300K and 1.2M words" `Quick
        test_load_allocation;
    ]
