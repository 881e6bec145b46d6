(* CNF identity gate. Twelve translations are pinned by the MD5 of their
   DIMACS text (variable count, then every clause in order) plus the
   translation's primary-variable count, circuit size and constant fold.
   The pins were recorded before translation was reworked for speed, so
   any change to what the translator emits — a clause, its literal
   order, the order Tseitin allocates auxiliaries — fails here under the
   translation's name, and the solver pins, grids and E5 sizes that rest
   on these CNFs stay meaningful. Re-record a pin only in a change that
   means to alter the CNF, and from its parent commit.

   The cases: the shared policy-generic translations as
   [Mca_model.build_shared] builds them (symmetry breaking on); the E5
   [check consensus] translations of the three encodings; and every
   command of [examples/models/paper_listings.als]. *)

module M = Core.Mca_model

type pin = {
  name : string;
  digest : string;
  primary : int;
  circuit : int;
  vars : int;
  clauses : int;
}

let pins =
  [
    { name = "shared 2p2v/4st"; digest = "e9bb412b82d4664e1bef0381a3735bab";
      primary = 320; circuit = 10369; vars = 9818; clauses = 48226 };
    { name = "shared 3p2v/5st"; digest = "2f6ff0b04cdcb75ed188aae7d1c65790";
      primary = 667; circuit = 32200; vars = 30474; clauses = 192079 };
    { name = "E5 efficient 2p2v/5st"; digest = "065b1c25d0e90c483833dac512a3918e";
      primary = 409; circuit = 9731; vars = 9089; clauses = 55677 };
    { name = "E5 buffered 2p2v/5st"; digest = "13ce4264a5880cb316a02f07befa70f3";
      primary = 675; circuit = 43222; vars = 41793; clauses = 264719 };
    { name = "E5 naive 2p2v/5st"; digest = "dca16dc97cf373046b2912da59375044";
      primary = 619; circuit = 33821; vars = 27099; clauses = 105077 };
    { name = "E5 efficient 3p2v/5st"; digest = "9ab8a7d55424fdbda71ce897ad1e89cf";
      primary = 661; circuit = 23160; vars = 21752; clauses = 160821 };
    { name = "E5 buffered 3p2v/5st"; digest = "eecc73a9fb2c3c9e8157bcb4c5234fc3";
      primary = 1333; circuit = 158519; vars = 155143; clauses = 1233956 };
    { name = "E5 naive 3p2v/5st"; digest = "eac3ed9e2d95293c497a961a900d9a90";
      primary = 961; circuit = 72906; vars = 58475; clauses = 233766 };
    { name = "check uniqueID"; digest = "45a88c5549ef496fa508164a6361032b";
      primary = 255; circuit = 3156; vars = 2771; clauses = 9829 };
    { name = "check symmetricLinks"; digest = "f665fbec2633bef210225a0413c2a753";
      primary = 255; circuit = 3183; vars = 2798; clauses = 9913 };
    { name = "check everyoneBids"; digest = "841e1efce9338c98c5770058021c6da5";
      primary = 255; circuit = 3162; vars = 2774; clauses = 9976 };
    { name = "run {}"; digest = "289c7138af029d6b43b3847a21700fa8";
      primary = 255; circuit = 3154; vars = 2770; clauses = 9821 };
  ]

let scope_2_4 = { M.small_scope with M.states = 4 }
let scope_2_5 = { M.small_scope with M.states = 5 }
let scope_3_5 = { M.paper_scope with M.states = 5 }
let shared scope () = (M.build_shared M.Efficient scope).M.shared_translation

(* E5 measures [check consensus] of the honest submodular model *)
let e5 encoding scope () =
  let m = M.build encoding M.honest_submodular scope in
  Alloylite.Compile.translation m.M.compiled
    (Relalg.Ast.not_ m.M.consensus_pred)

(* [dune runtest] runs in _build/default/test, [dune exec] wherever it
   is started; the listing is a dependency of the test either way *)
let listing_path =
  let rel = Filename.concat "examples" (Filename.concat "models" "paper_listings.als") in
  List.find_opt Sys.file_exists [ rel; Filename.concat Filename.parent_dir_name rel ]

(* each command's compiled scope and goal, translated below exactly as
   [Elaborate.run_file] translates it *)
let listing_goals () =
  let open Alloylite in
  let path =
    match listing_path with
    | Some p -> p
    | None -> Alcotest.fail "examples/models/paper_listings.als not found"
  in
  let src = In_channel.with_open_bin path In_channel.input_all in
  let { Elaborate.model; commands } = Elaborate.file (Parser.parse src) in
  List.map
    (fun cmd ->
      let goal =
        match cmd with
        | Elaborate.Check (_, name, _) -> (
            match Model.find_assert model name with
            | Some f -> Relalg.Ast.not_ f
            | None -> Alcotest.failf "no assertion %s" name)
        | Elaborate.Run (_, None, f, _) -> Option.value f ~default:Relalg.Ast.tt
        | Elaborate.Run (_, Some _, _, _) ->
            Alcotest.fail "listing: unexpected run of a predicate"
      in
      let scope =
        match cmd with
        | Elaborate.Check (_, _, s) | Elaborate.Run (_, _, _, s) -> s
      in
      (Elaborate.command_label cmd, (Compile.prepare model scope, goal)))
    commands

let listing_commands () =
  List.map
    (fun (label, (c, goal)) -> (label, Alloylite.Compile.translation c goal))
    (listing_goals ())

let check_pin pin (tr : Relalg.Translate.translation) =
  let cnf = tr.Relalg.Translate.cnf in
  let problem = cnf.Sat.Formula.problem in
  let check_int what = Alcotest.(check int) (pin.name ^ ": " ^ what) in
  check_int "primary variables" pin.primary tr.Relalg.Translate.num_primary;
  check_int "circuit size" pin.circuit tr.Relalg.Translate.circuit_size;
  check_int "variables" pin.vars problem.Sat.Cnf.num_vars;
  check_int "clauses" pin.clauses (Sat.Cnf.num_clauses problem);
  Alcotest.(check (option bool)) (pin.name ^ ": constant") None
    cnf.Sat.Formula.constant;
  Alcotest.(check string) (pin.name ^ ": DIMACS digest") pin.digest
    (Digest.to_hex (Digest.string (Sat.Dimacs.to_string problem)))

let pin name = List.find (fun p -> p.name = name) pins

let case name build =
  Alcotest.test_case name `Quick (fun () -> check_pin (pin name) (build ()))

let listing label () =
  match List.assoc_opt label (listing_commands ()) with
  | Some tr -> tr
  | None -> Alcotest.failf "paper_listings.als has no command %s" label

let suite =
  [
    case "shared 2p2v/4st" (shared scope_2_4);
    case "shared 3p2v/5st" (shared scope_3_5);
    case "E5 efficient 2p2v/5st" (e5 M.Efficient scope_2_5);
    case "E5 buffered 2p2v/5st" (e5 M.Buffered scope_2_5);
    case "E5 naive 2p2v/5st" (e5 M.Naive scope_2_5);
    case "E5 efficient 3p2v/5st" (e5 M.Efficient scope_3_5);
    case "E5 buffered 3p2v/5st" (e5 M.Buffered scope_3_5);
    case "E5 naive 3p2v/5st" (e5 M.Naive scope_3_5);
    case "check uniqueID" (listing "check uniqueID");
    case "check symmetricLinks" (listing "check symmetricLinks");
    case "check everyoneBids" (listing "check everyoneBids");
    case "run {}" (listing "run {}");
  ]
