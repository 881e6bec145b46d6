(* Pipeline for tenant-submitted specs. Each stage either advances or
   returns a typed Alloylite.Diag — never a raw exception: parse and
   elaboration raise Diag already, compilation failures are converted
   at the command's span, and the solve runs under a Netsim.Budget so
   a hostile scope degrades to [Spec_unknown], not a hang. *)

module Diag = Alloylite.Diag
module Elaborate = Alloylite.Elaborate
module Compile = Alloylite.Compile

type caps = { max_bytes : int; max_atoms : int; max_tuples : int }

let default_caps = { max_bytes = 65536; max_atoms = 64; max_tuples = 100_000 }

let digest spec = Digest.to_hex (Digest.string spec)

type result = {
  command : string;
  verdict : Wire.spec_verdict;
  certified : bool;
  secs : float;
}

let cap_error ~span msg hint = Result.Error { Diag.stage = Cap; span; msg; hint }

let find_command commands = function
  | None -> (
      match commands with
      | c :: _ -> Ok c
      | [] ->
          Result.Error
            {
              Diag.stage = Elab;
              span = Diag.point ~line:1 ~col:1;
              msg = "spec has no check or run command";
              hint = Some "add e.g. `check a for 3` or `run {} for 3`";
            })
  | Some name -> (
      let matches = function
        | Elaborate.Check (_, n, _) -> n = name
        | Elaborate.Run (_, Some n, _, _) -> n = name
        | Elaborate.Run (_, None, _, _) -> false
      in
      match List.find_opt matches commands with
      | Some c -> Ok c
      | None ->
          Result.Error
            {
              Diag.stage = Elab;
              span = Diag.point ~line:1 ~col:1;
              msg = Printf.sprintf "no command named %s" name;
              hint =
                Some
                  (Printf.sprintf "spec defines: %s"
                     (String.concat ", "
                        (List.map Elaborate.command_label commands)));
            })

let span_of_command cmd =
  let p = Elaborate.command_pos cmd in
  Diag.point ~line:p.Alloylite.Surface.line ~col:p.Alloylite.Surface.col

(* run commands search for an instance of facts ∧ goal; expressed as a
   counterexample search against ¬goal so one translation (facts ∧
   ¬goal) serves both command kinds *)
let run_goal model name f =
  match (name, f) with
  | Some n, _ -> (
      match Alloylite.Model.find_pred model n with
      | Some p ->
          Relalg.Ast.exists
            (List.map
               (fun (x, s) -> (x, Relalg.Ast.rel s))
               p.Alloylite.Model.params)
            p.Alloylite.Model.body
      | None -> Relalg.Ast.tt)
  | None, Some f -> f
  | None, None -> Relalg.Ast.tt

let analyze ?(caps = default_caps) ?(certify = false) ?cmd ~budget spec =
  let ( let* ) = Result.bind in
  let* () =
    if String.length spec > caps.max_bytes then
      cap_error
        ~span:(Diag.point ~line:1 ~col:1)
        (Printf.sprintf "spec is %d bytes, cap is %d" (String.length spec)
           caps.max_bytes)
        (Some "split the model or inline fewer paragraphs")
    else Ok ()
  in
  let* { Elaborate.model; commands } =
    match Elaborate.file (Alloylite.Parser.parse spec) with
    | elaborated -> Ok elaborated
    | exception Diag.Error d -> Result.Error d
  in
  let* command = find_command commands cmd in
  let scope =
    match command with
    | Elaborate.Check (_, _, s) | Elaborate.Run (_, _, _, s) -> s
  in
  let atoms, tuples = Compile.universe_estimate model scope in
  let* () =
    if atoms > caps.max_atoms || tuples > caps.max_tuples then
      cap_error ~span:(span_of_command command)
        (Printf.sprintf
           "scope needs %s atoms / %s field tuples, caps are %d / %d"
           (if atoms = max_int then "overflowing" else string_of_int atoms)
           (if tuples = max_int then "overflowing" else string_of_int tuples)
           caps.max_atoms caps.max_tuples)
        (Some "reduce the scope (`for N`) or the Int bitwidth")
    else Ok ()
  in
  let* compiled =
    match Compile.prepare model scope with
    | c -> Ok c
    | exception Failure msg ->
        Result.Error
          { Diag.stage = Model; span = span_of_command command; msg; hint = None }
  in
  let goal =
    match command with
    | Elaborate.Check (_, name, _) -> (
        match Alloylite.Model.find_assert model name with
        | Some f -> f
        | None -> Relalg.Ast.tt (* unreachable: elaboration resolved it *))
    | Elaborate.Run (_, name, f, _) -> Relalg.Ast.not_ (run_goal model name f)
  in
  let started = Netsim.Clock.now () in
  (* one translation, one session, one solve under the budget; when
     asked, the verdict that solve found is then checked, and a
     rejected certificate leaves the verdict standing *)
  let session =
    Relalg.Translate.session ~certify
      (Compile.translation compiled (Relalg.Ast.not_ goal))
  in
  let bounded = Relalg.Translate.solve_cell ~budget session [] in
  let is_check =
    match command with Elaborate.Check _ -> true | Elaborate.Run _ -> false
  in
  let verdict =
    match (bounded, is_check) with
    | Relalg.Translate.Decided Relalg.Translate.Unsat, true -> Wire.Spec_holds
    | Relalg.Translate.Decided (Relalg.Translate.Sat _), true ->
        Wire.Spec_counterexample
    | Relalg.Translate.Decided Relalg.Translate.Unsat, false -> Wire.Spec_none
    | Relalg.Translate.Decided (Relalg.Translate.Sat _), false ->
        Wire.Spec_instance
    | Relalg.Translate.Unknown reason, _ -> Wire.Spec_unknown reason
  in
  let certified =
    match bounded with
    | Relalg.Translate.Unknown _ -> false
    | Relalg.Translate.Decided _ when not certify -> false
    | Relalg.Translate.Decided _ -> (
        match Relalg.Translate.certify session with
        | Some _ -> true
        | None -> false
        | exception Sat.Proof.Certification_failed _ -> false)
  in
  Ok
    {
      command = Elaborate.command_label command;
      verdict;
      certified;
      secs = Netsim.Clock.now () -. started;
    }

(* ---- journal codec ------------------------------------------------ *)

type record = {
  rec_digest : string;
  rec_req : string;  (** requested command name; [""] = the file's first *)
  rec_cmd : string;  (** executed command label *)
  rec_certify : bool;
  rec_verdict : Wire.spec_verdict;
  rec_secs : float;
}

module R = Parallel.Record

let fingerprint r =
  R.fingerprint
    [
      R.escape r.rec_digest; R.escape r.rec_req; R.escape r.rec_cmd;
      string_of_bool r.rec_certify;
      Wire.spec_verdict_to_wire r.rec_verdict;
    ]

let spec_record r =
  Printf.sprintf
    "spec|1|digest=%s|req=%s|cmd=%s|certify=%b|verdict=%s|secs=%.6f|fp=%s"
    (R.escape r.rec_digest) (R.escape r.rec_req) (R.escape r.rec_cmd)
    r.rec_certify
    (Wire.spec_verdict_to_wire r.rec_verdict)
    r.rec_secs (fingerprint r)

let spec_of_record line =
  match R.parse line with
  | Some ("spec", fields) ->
      let ( let* ) = Option.bind in
      let* rec_digest = R.str fields "digest" in
      let* rec_req = R.str fields "req" in
      let* rec_cmd = R.str fields "cmd" in
      let* rec_certify = R.bool fields "certify" in
      let* rec_verdict =
        Option.bind (R.raw fields "verdict") Wire.spec_verdict_of_wire
      in
      let* rec_secs = R.float fields "secs" in
      let* fp = R.raw fields "fp" in
      let r =
        { rec_digest; rec_req; rec_cmd; rec_certify; rec_verdict; rec_secs }
      in
      if fp = fingerprint r then Some r else None
  | _ -> None
