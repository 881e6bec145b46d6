(* The four workloads: their seeded inputs, the correctness gates on
   every reply, and the traced in-process replay of the same inputs. *)

module W = Service.Wire
module E = Core.Experiments
module M = Core.Mca_model
module Rng = Netsim.Rng

(* ---- outcomes ------------------------------------------------------ *)

type outcome =
  | Pass
  | Failed of string  (** no verdict: transport, refusal, Undecided *)
  | Wrong of string  (** a verdict that contradicts the pinned answer *)

type reply = {
  cls : string;  (** request class: check, cold, cert, hit or bad *)
  outcome : outcome;
  compute_s : float;  (** server-side work for this operation; 0 if none *)
  cdcl : bool;  (** the SAT column was decided by the CDCL engine *)
  verdict : string;  (** canonical verdict text, compared by the replay *)
}

let failed cls msg =
  { cls; outcome = Failed msg; compute_s = 0.0; cdcl = false; verdict = "" }

let verdict_text sat exh sim =
  Printf.sprintf "%s/%s/%b" (E.verdict_to_wire sat) (E.verdict_to_wire exh) sim

let decided = function E.Undecided _ -> false | E.Holds | E.Violated -> true

(* ---- check requests ------------------------------------------------- *)

(* The scope of every request of a check workload, and the policies its
   passes cycle through. *)
type scope = { agents : int; items : int; states : int; policies : string array }

(* The model scope the service builds for a request at [sc]. *)
let scope_spec sc =
  snd
    (W.scope_of_request
       (W.request ~agents:sc.agents ~items:sc.items ~states:sc.states "submod"))

let paper_policies = Array.of_list (List.map fst Mca.Policy.paper_grid)

(* Operation [i] belongs to pass [i / n], for [n] policies: each policy
   once, in the given order for the set-up pass and in a seeded order
   after it, under a cell seed no other pass or bench seed uses, so
   every request misses the verdict cache. *)
let check_request sc ~seed i =
  let n = Array.length sc.policies in
  let pass = i / n in
  let order =
    if pass = 0 then Array.init n Fun.id
    else Rng.permutation (Rng.create (Hashtbl.hash (seed, pass))) n
  in
  W.request ~id:(Printf.sprintf "c%d" i) ~agents:sc.agents ~items:sc.items
    ~states:sc.states ~seed:((seed * 100_000) + pass)
    sc.policies.(order.(i mod n))

(* The pinned 2p2v/4st grid (SAT / exhaustive / simulation), as in
   test_differential and the CI sweep jobs: at four states the SAT
   model proves consensus only for the honest submodular policy. *)
let pinned_2p2v_4st = function
  | "submod" -> "holds/holds/true"
  | "submod+release" | "nonsubmod" -> "violated/holds/true"
  | _ -> "violated/violated/false"

let send_check ~expect addr (req : W.request) =
  match Service.Client.check ~timeout_s:60.0 addr req with
  | Error e -> failed "check" ("transport: " ^ e)
  | Ok (W.Verdict v) ->
      let text = verdict_text v.W.sat v.W.exhaustive v.W.sim_ok in
      let outcome =
        if not (decided v.W.sat && decided v.W.exhaustive) then Failed text
        else if v.W.cached then Wrong (req.W.id ^ ": cache hit on a fresh seed")
        else
          match expect req with
          | Some want when want <> text ->
              Wrong (Printf.sprintf "%s %s: got %s, pinned %s" req.W.id
                       req.W.policy text want)
          | _ -> Pass
      in
      { cls = "check"; outcome; compute_s = v.W.secs; cdcl = v.W.rung = "cdcl";
        verdict = text }
  | Ok r -> failed "check" (W.render_response r)

(* ---- submit requests ------------------------------------------------ *)

type sub_class = Cold | Cert | Hit | Bad

type sub = {
  kind : sub_class;
  text : string;
  cmd : string option;
  certify : bool;
}

let commands = [| "uniqueID"; "symmetricLinks"; "everyoneBids" |]

let expected_spec = function
  | "everyoneBids" -> W.Spec_counterexample
  | _ -> W.Spec_holds

(* After the all-cold set-up pass (its last submit certified), every
   block of 20 operations holds 13 cold submits, 1 certified cold
   submit, 5 exact repeats and 1 malformed spec in a seeded order, so
   the mix is exact in every run whatever its length. *)
let block =
  Array.concat [ Array.make 13 Cold; [| Cert |]; Array.make 5 Hit; [| Bad |] ]

let sub_class ~seed ~setup i =
  if i < setup then if i = setup - 1 then Cert else Cold
  else
    let b = (i - setup) / Array.length block in
    let order =
      Rng.permutation
        (Rng.create (Hashtbl.hash (seed, "block", b)))
        (Array.length block)
    in
    block.(order.((i - setup) mod Array.length block))

(* A unique trailing comment gives every cold submit a fresh digest. *)
let cold_sub ~listings ~seed kind i =
  {
    kind;
    text = Printf.sprintf "%s\n// perf seed %d op %d\n" listings seed i;
    cmd = Some commands.(i mod Array.length commands);
    certify = kind = Cert;
  }

let rejected_by_frontend text =
  String.length text <= Service.Speccheck.default_caps.Service.Speccheck.max_bytes
  &&
  match Alloylite.Elaborate.file (Alloylite.Parser.parse text) with
  | _ -> false
  | exception Alloylite.Diag.Error _ -> true
  | exception _ -> false

(* [limit]: repeats only re-send cold submits below it, all answered
   before the current phase began, so a repeat is always a cache hit. *)
let submit_op ~listings ~seed ~setup ~limit i =
  let rng = Rng.create (Hashtbl.hash (seed, i)) in
  match sub_class ~seed ~setup i with
  | (Cold | Cert) as kind -> cold_sub ~listings ~seed kind i
  | Hit ->
      let rec pick () =
        let j = Rng.int rng limit in
        match sub_class ~seed ~setup j with
        | (Cold | Cert) as kind ->
            { (cold_sub ~listings ~seed kind j) with kind = Hit }
        | Hit | Bad -> pick ()
      in
      pick ()
  | Bad ->
      (* one fuzzer step, redrawn until the front end rejects it *)
      let rec mutate tries =
        let m = Alloylite.Fuzz.mutate rng listings in
        if rejected_by_frontend m then m
        else if tries = 0 then "sig {"
        else mutate (tries - 1)
      in
      { kind = Bad; text = mutate 200; cmd = None; certify = false }

let spec_text (r : W.spec_reply) =
  Printf.sprintf "%s/cert=%b" (W.spec_verdict_to_wire r.W.spec_verdict) r.W.certified

let send_submit addr (s : sub) =
  let cls =
    match s.kind with Cold -> "cold" | Cert -> "cert" | Hit -> "hit" | Bad -> "bad"
  in
  match
    Service.Client.submit ~timeout_s:60.0 ?cmd:s.cmd ~certify:s.certify addr
      s.text
  with
  | Error e -> failed cls ("transport: " ^ e)
  | Ok (W.Spec r) when s.kind <> Bad -> (
      let text = spec_text r in
      let cdcl, compute_s =
        match r.W.spec_verdict with
        | W.Spec_unknown _ -> (false, 0.0)
        | _ -> (true, if r.W.spec_cached then 0.0 else r.W.spec_secs)
      in
      let reply outcome = { cls; outcome; compute_s; cdcl; verdict = text } in
      let want = expected_spec (Option.get s.cmd) in
      match r.W.spec_verdict with
      | W.Spec_unknown why -> reply (Failed why)
      | v when v <> want ->
          reply (Wrong (Printf.sprintf "%s: got %s" (Option.get s.cmd) text))
      | _ when r.W.spec_cached <> (s.kind = Hit) ->
          reply (Wrong (Printf.sprintf "cached=%b on a %s submit" r.W.spec_cached
                          (if s.kind = Hit then "repeat" else "cold")))
      | _ when s.certify && not r.W.certified ->
          reply (Wrong "certification asked for but not given")
      | _ -> reply Pass)
  | Ok (W.Bad_spec _) when s.kind = Bad ->
      { cls; outcome = Pass; compute_s = 0.0; cdcl = false; verdict = "bad" }
  | Ok (W.Spec _ | W.Bad_spec _ as r) ->
      { (failed cls "") with
        outcome =
          Wrong
            (Printf.sprintf "%s submit answered %s" cls (W.render_response r)) }
  | Ok r -> failed cls (W.render_response r)

(* ---- the traced replay --------------------------------------------- *)

let note_translation tr =
  let st = Relalg.Translate.translation_stats tr in
  Spans.count "translate.vars" (float_of_int st.Relalg.Translate.vars);
  Spans.count "translate.clauses" (float_of_int st.Relalg.Translate.clauses)

(* Solver work of one solve: the delta of lifetime counters ([None]: no
   solver yet, or a constant-folded circuit). *)
let note_solver before after =
  let get f = function Some s -> float_of_int (f s) | None -> 0.0 in
  List.iter
    (fun (name, f) -> Spans.count name (get f after -. get f before))
    [
      ("sat.conflicts", fun (s : Sat.Solver.stats) -> s.conflicts);
      ("sat.propagations", fun s -> s.propagations);
      ("sat.learnt_literals", fun s -> s.learnt_literals);
    ]

let explore cfg =
  match Checker.Explore.run cfg with
  | Checker.Explore.Converges { states; _ } -> (E.Holds, states)
  | Checker.Explore.Nonconvergence { states; _ }
  | Checker.Explore.Bad_terminal { states; _ } -> (E.Violated, states)
  | Checker.Explore.Unknown { states; reason } -> (E.Undecided reason, states)

(* The three engines of one cell: the simulation, then [solve] (the SAT
   column's call) given the explicit checker as a run-once thunk, then
   the checker if [solve] did not run it. That is Server.compute_cell's
   order; a sweep's [solve] runs the checker first, as run_cell does. *)
let traced_cell ~seed ~label ~tag p scope solve =
  let cfg =
    Spans.time "sim" (fun () ->
        E.cell_config ~seed ~policy_label:label ~scope_tag:tag p scope)
  in
  let sim_ok =
    Spans.time "sim" (fun () ->
        match Mca.Protocol.run_sync ~max_rounds:200 cfg with
        | Mca.Protocol.Converged _ -> true
        | _ -> false)
  in
  let exhaustive =
    lazy
      (let v, states = Spans.time "checker" (fun () -> explore cfg) in
       Spans.count "checker.states" (float_of_int states);
       v)
  in
  let sat = solve (fun () -> Lazy.force exhaustive) in
  {
    E.policy_label = label;
    scope_tag = tag;
    sat_verdict = sat;
    sim_ok;
    exhaustive = Lazy.force exhaustive;
    cell_seconds = 0.0;
    origin = E.Computed;
  }

let shared_targets scope =
  List.sort_uniq compare
    (List.map (fun (_, mp) -> min mp.M.target scope.M.vnodes) M.paper_policies)

let build_shared scope target =
  let sh =
    Spans.time "translate" (fun () -> M.build_shared ~target M.Efficient scope)
  in
  note_translation sh.M.shared_translation;
  sh

(* [solve] under a "sat" span, noting the work it did on the calling
   domain's warm session for [sh]. *)
let session_solve sh solve =
  let sess = M.domain_session sh in
  let before = M.session_solver_stats sess in
  let r = Spans.time "sat" solve in
  note_solver before (M.session_solver_stats sess);
  r

let warm_solve sh mp =
  match
    session_solve sh (fun () ->
        M.check_consensus_incremental ~budget:Netsim.Budget.unlimited
          (M.domain_session sh) mp)
  with
  | Relalg.Translate.Decided Alloylite.Compile.Unsat -> E.Holds
  | Relalg.Translate.Decided (Alloylite.Compile.Sat _) -> E.Violated
  | Relalg.Translate.Unknown why -> E.Undecided why

(* A replayer for the service's [check] path: the shared translations
   are built eagerly (the server builds them on its first request), then
   each request runs codec → simulation → ladder → explicit checker →
   journal → codec. *)
let check_replayer ~journal sc =
  let scope = scope_spec sc in
  let shared = List.map (fun t -> (t, build_shared scope t)) (shared_targets scope) in
  let ladder = Service.Ladder.make () in
  let w = Parallel.Journal.open_append journal in
  let replay (req : W.request) =
    let req =
      Spans.time "codec" (fun () ->
          match W.parse_incoming (W.render_request req) with
          | Ok (W.Check r) -> r
          | _ -> failwith "check request did not round-trip")
    in
    let tag, scope = W.scope_of_request req in
    let p, mp = Option.get (E.lookup_policy req.W.policy) in
    let mp = { mp with M.target = min mp.M.target scope.M.vnodes } in
    let sh = List.assoc mp.M.target shared in
    let rung = ref "" in
    let cell =
      traced_cell ~seed:req.W.seed ~label:req.W.policy ~tag p scope (fun exh ->
          let a =
            session_solve sh (fun () ->
                Service.Ladder.check_consensus
                  ~budget_for:(fun _ -> Netsim.Budget.unlimited)
                  ~backend:(Service.Ladder.Shared_translation (sh, mp))
                  ~exhaustive:exh ladder)
          in
          rung := a.Service.Ladder.rung;
          a.Service.Ladder.verdict)
    in
    Spans.time "journal" (fun () ->
        Parallel.Journal.append w (E.cell_record ~seed:req.W.seed cell));
    Spans.time "codec" (fun () ->
        ignore
          (W.parse_response
             (W.render_response
                (W.Verdict
                   { W.req_id = req.W.id; sat = cell.E.sat_verdict;
                     exhaustive = cell.E.exhaustive; sim_ok = cell.E.sim_ok;
                     rung = !rung; cached = false; secs = 0.0 }))));
    verdict_text cell.E.sat_verdict cell.E.exhaustive cell.E.sim_ok
  in
  (replay, fun () -> Parallel.Journal.close w)

(* A replayer for the [submit] path, with Speccheck.analyze taken apart
   into its stages and the server's content-addressed verdict cache. *)
let submit_replayer ~journal =
  let cache = Hashtbl.create 256 in
  let w = Parallel.Journal.open_append journal in
  let module C = Alloylite.Compile in
  let analyze (h : W.submit_header) text =
    match
      Spans.time "frontend" (fun () ->
          let { Alloylite.Elaborate.model; commands } =
            Alloylite.Elaborate.file (Alloylite.Parser.parse text)
          in
          let command =
            match h.W.sub_cmd with
            | None -> List.hd commands
            | Some n ->
                List.find
                  (function
                    | Alloylite.Elaborate.Check (_, c, _) -> c = n
                    | Alloylite.Elaborate.Run _ -> false)
                  commands
          in
          match command with
          | Alloylite.Elaborate.Check (_, name, scope) ->
              ignore (C.universe_estimate model scope);
              (command, C.prepare model scope,
               Option.get (Alloylite.Model.find_assert model name))
          | Alloylite.Elaborate.Run _ ->
              failwith "the workload submits check commands")
    with
    | exception Alloylite.Diag.Error d -> Error d
    | command, compiled, goal ->
        let tr =
          Spans.time "translate" (fun () ->
              C.translation compiled (Relalg.Ast.not_ goal))
        in
        note_translation tr;
        let sess, outcome =
          Spans.time "sat" (fun () ->
              let sess = Relalg.Translate.session tr in
              ( sess,
                Relalg.Translate.solve_cell ~budget:Netsim.Budget.unlimited
                  sess [] ))
        in
        note_solver None (Relalg.Translate.session_stats sess);
        let verdict =
          match outcome with
          | Relalg.Translate.Decided Relalg.Translate.Unsat -> W.Spec_holds
          | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> W.Spec_counterexample
          | Relalg.Translate.Unknown why -> W.Spec_unknown why
        in
        let certified =
          h.W.certify
          && Spans.time "proof" (fun () ->
                 match C.check_formula_certified compiled goal with
                 | { Relalg.Translate.certification = Some _; _ } -> true
                 | { Relalg.Translate.certification = None; _ } -> false)
        in
        Ok (Alloylite.Elaborate.command_label command, verdict, certified)
  in
  let replay (s : sub) =
    let header =
      W.submit ?cmd:s.cmd ~certify:s.certify
        ~spec_bytes:(String.length s.text) ()
    in
    let h =
      Spans.time "codec" (fun () ->
          match W.parse_incoming (W.render_submit_header header) with
          | Ok (W.Submit h) -> h
          | _ -> failwith "submit header did not round-trip")
    in
    let req_cmd = Option.value h.W.sub_cmd ~default:"" in
    let digest, hit =
      Spans.time "cache" (fun () ->
          let digest = Service.Speccheck.digest s.text in
          (digest, Hashtbl.find_opt cache (digest, req_cmd, h.W.certify)))
    in
    let spec command verdict certified cached =
      W.Spec { W.spec_id = ""; digest; command; spec_verdict = verdict; certified;
               spec_cached = cached; spec_secs = 0.0 }
    in
    let reply =
      match hit with
      | Some (command, verdict, certified) -> spec command verdict certified true
      | None -> (
          match analyze h s.text with
          | Error d -> W.Bad_spec { req_id = ""; diag = d }
          | Ok ((command, verdict, certified) as r) ->
              Spans.time "journal" (fun () ->
                  Parallel.Journal.append w
                    (Service.Speccheck.spec_record
                       { Service.Speccheck.rec_digest = digest;
                         rec_req = req_cmd;
                         rec_cmd = command; rec_certify = certified;
                         rec_verdict = verdict; rec_secs = 0.0 }));
              Hashtbl.replace cache (digest, req_cmd, h.W.certify) r;
              spec command verdict certified false)
    in
    match
      Spans.time "codec" (fun () -> W.parse_response (W.render_response reply))
    with
    | Ok (W.Spec r) -> spec_text r
    | Ok (W.Bad_spec _) -> "bad"
    | _ -> failwith "submit reply did not round-trip"
  in
  (replay, fun () -> Parallel.Journal.close w)

(* ---- the sweep ------------------------------------------------------ *)

let sweep_scopes =
  [ ("2p2v/4st",
     { M.pnodes = 2; vnodes = 2; states = 4; values = 6; bitwidth = 4 }) ]

let sweep_jobs = 2

let run_sweep ~seed ~journal =
  E.run_sweep ~jobs:sweep_jobs ~seed ~scopes:sweep_scopes ~journal
    ~journal_flush_every:8 ()

(* One sweep in this domain with every layer timed: fresh shared
   translations and warm sessions, like a cold run_sweep. *)
let traced_sweep ~seed ~journal =
  let tasks = E.sweep_tasks ~scopes:sweep_scopes () in
  let shared = Hashtbl.create 2 in
  Array.iter
    (fun (_, _, mp, tag, scope) ->
      let t = min mp.M.target scope.M.vnodes in
      if not (Hashtbl.mem shared (tag, t)) then
        Hashtbl.add shared (tag, t) (build_shared scope t))
    tasks;
  let w = Parallel.Journal.open_append ~flush_every:8 journal in
  let cells =
    Array.to_list
      (Array.map
         (fun (label, p, mp, tag, scope) ->
           let mp = { mp with M.target = min mp.M.target scope.M.vnodes } in
           let cell =
             traced_cell ~seed ~label ~tag p scope (fun exhaustive ->
                 ignore (exhaustive ());
                 warm_solve (Hashtbl.find shared (tag, mp.M.target)) mp)
           in
           let record = Spans.time "codec" (fun () -> E.cell_record ~seed cell) in
           Spans.time "journal" (fun () -> Parallel.Journal.append w record);
           cell)
         tasks)
  in
  Spans.time "journal" (fun () -> Parallel.Journal.close w);
  Spans.time "codec" (fun () ->
      E.render_sweep
        { E.sweep_jobs = 1; sweep_seed = seed; cells; sweep_wall = 0.0;
          sweep_resumed = 0; sweep_partial = false })
