type rung = Cdcl | Explicit

let rung_name = function Cdcl -> "cdcl" | Explicit -> "explicit"

type t = { breakers : (rung * Breaker.t) list }

let make ?trip_after ?backoff ?(seed = 0) () =
  {
    breakers =
      List.map
        (fun r -> (r, Breaker.make ?trip_after ?backoff ~seed ~key:(rung_name r) ()))
        [ Cdcl; Explicit ];
  }

let breaker t rung = List.assoc rung t.breakers

type answer = {
  verdict : Core.Experiments.sweep_verdict;
  rung : string;
  degraded : bool;  (* answered below the top admitted rung *)
  trail : (string * string) list;
}

let cancelled = function
  | Core.Experiments.Undecided "cancelled" -> true
  | _ -> false

let guarded ?(now = Netsim.Clock.now) t rung run =
  let b = breaker t rung in
  if not (Breaker.admit b ~now:(now ())) then None
  else begin
    let v = (run () : Core.Experiments.sweep_verdict) in
    (match v with
    | Core.Experiments.Undecided _ when cancelled v ->
        (* a drain or request-deadline cancellation says nothing about
           the backend's health: no breaker transition. The probe slot
           must still be released: if this admit was the half-open
           probe, leaving [probing] set would wedge the breaker open
           forever. *)
        Breaker.cancel b
    | Core.Experiments.Undecided _ -> Breaker.timeout b ~now:(now ())
    | Core.Experiments.Holds | Core.Experiments.Violated -> Breaker.success b);
    Some v
  end

let decide ?(now = Netsim.Clock.now) t rungs =
  let trail = ref [] in
  let note rung what = trail := (rung_name rung, what) :: !trail in
  let finish verdict rung_label ~degraded =
    { verdict; rung = rung_label; degraded; trail = List.rev !trail }
  in
  let rec walk degraded = function
    | [] ->
        finish
          (Core.Experiments.Undecided
             ("degraded: "
             ^ String.concat "; "
                 (List.rev_map (fun (r, w) -> r ^ "=" ^ w) !trail)))
          "none" ~degraded:true
    | (rung, run) :: rest -> (
        match guarded ~now t rung run with
        | None ->
            note rung "open";
            walk true rest
        | Some (Core.Experiments.Undecided _ as v) when cancelled v ->
            (* no point trying cheaper rungs: the request is out of time *)
            note rung "cancelled";
            finish v "none" ~degraded
        | Some (Core.Experiments.Undecided reason) ->
            note rung reason;
            walk true rest
        | Some v ->
            note rung "decided";
            finish v (rung_name rung) ~degraded)
  in
  walk false rungs

(* ---- the standard consensus rungs -------------------------------- *)

type backend =
  | Shared_translation of Core.Mca_model.shared * Core.Mca_model.policy

let consensus_rungs ~budget_for ~backend ~exhaustive () =
  let (Shared_translation (sh, policy)) = backend in
  let cdcl () =
    (* the cached translation: no rebuild, no re-translation — and this
       worker domain's warm session solver, so learnt clauses amortize
       across every request that hits the same (scope, target). Service
       worker domains are long-lived, which is exactly when the
       per-domain session cache pays. *)
    Core.Experiments.verdict_of_sat
      (Core.Mca_model.check_consensus_incremental ~budget:(budget_for Cdcl)
         (Core.Mca_model.domain_session sh)
         policy)
  in
  [ (Cdcl, cdcl); (Explicit, exhaustive) ]

let check_consensus ?now ~budget_for ~backend ~exhaustive t =
  decide ?now t (consensus_rungs ~budget_for ~backend ~exhaustive ())
