(* DRUP proof trails and the independent certification pass.

   The checker shares no code with the solver: its unit propagation is
   a from-scratch implementation (per-clause watch indices, watcher
   lists keyed by the watched literal itself, a persistent root
   assignment with rollback for the per-step RUP tests), so the two
   sides can only agree on a wrong verdict if they contain the same bug
   independently. *)

type step = Add of Cnf.lit array | Delete of Cnf.lit array

type trail = { mutable rev_steps : step list }

exception Certification_failed of string

let create () = { rev_steps = [] }
let log_add t lits = t.rev_steps <- Add (Array.copy lits) :: t.rev_steps
let log_delete t lits = t.rev_steps <- Delete (Array.copy lits) :: t.rev_steps
let steps t = List.rev t.rev_steps

let pp_clause ppf c =
  if Array.length c = 0 then Format.pp_print_string ppf "<empty>"
  else
    Array.iteri
      (fun i l ->
        if i > 0 then Format.pp_print_char ppf ' ';
        Cnf.pp_lit ppf l)
      c

(* ---- strict model certification ---- *)

let check_model (p : Cnf.problem) ~units (m : Cnf.model) =
  if Array.length m < p.num_vars + 1 then
    Error
      (Printf.sprintf "model covers %d variables but the problem has %d"
         (max 0 (Array.length m - 1))
         p.num_vars)
  else begin
    let satisfied l =
      let v = Cnf.var_of l in
      v < Array.length m && if Cnf.is_pos l then m.(v) else not m.(v)
    in
    let falsified i =
      let j = ref (Cnf.clause_start p i) in
      while !j < p.ends.(i) && not (satisfied p.lits.(!j)) do
        incr j
      done;
      !j = p.ends.(i)
    in
    let n = Cnf.num_clauses p and i = ref 0 in
    while !i < n && not (falsified !i) do
      incr i
    done;
    if !i < n then
      Error
        (Format.asprintf "clause %d (%a) is falsified by the model" !i
           pp_clause (Cnf.clause p !i))
    else
      match List.find_opt (fun l -> not (satisfied l)) units with
      | None -> Ok ()
      | Some l ->
          Error (Format.asprintf "unit %a is falsified by the model" Cnf.pp_lit l)
  end

(* ---- DRUP refutation checking (reverse unit propagation) ----

   Unit propagation here uses per-clause watch *indices* with
   watcher lists keyed by the watched literal itself — a layout chosen
   to be deliberately different from the solver's position-0/1 watching
   under negated keys, while staying fast enough to re-check the proofs
   of full paper runs. *)

type db_clause = {
  lits : Cnf.lit array;
  mutable active : bool;
  mutable w0 : int; (* watched indices into [lits]; equal for units *)
  mutable w1 : int;
}

exception Conflict

let clause_key lits = List.sort_uniq compare (Array.to_list lits)

(* Drop duplicate literal occurrences (Tseitin translation can emit
   them). A clause is a set of literals, and the two-watch completeness
   argument below needs the two watches on *distinct* literals: with
   both watches on copies of the same literal, every other literal can
   be falsified without a single watcher visit, and a unit clause goes
   unnoticed. *)
let dedup_lits lits =
  let n = Array.length lits in
  if n <= 1 then lits
  else begin
    let out = ref [] in
    let kept = ref 0 in
    for j = 0 to n - 1 do
      let l = lits.(j) in
      if not (List.mem l !out) then begin
        out := l :: !out;
        incr kept
      end
    done;
    if !kept = n then lits else Array.of_list (List.rev !out)
  end

(* Checks [proof] against [p] plus one unit clause per literal of
   [units]; on success, the trail's addition and deletion counts. *)
let refute (p : Cnf.problem) ~units (proof : step list) =
  let over_clause acc c = Array.fold_left (fun a l -> max a (Cnf.var_of l)) acc c in
  (* one pass over the trail: its largest variable, and its counts *)
  let max_var, n_adds, n_dels =
    List.fold_left
      (fun (mv, a, d) -> function
        | Add c -> (over_clause mv c, a + 1, d)
        | Delete c -> (over_clause mv c, a, d + 1))
      (over_clause (over_clause p.num_vars p.lits) (Array.of_list units), 0, 0)
      proof
  in
  let cap = max 1 (Cnf.num_clauses p + List.length units + n_adds) in
  let dummy = { lits = [||]; active = false; w0 = 0; w1 = 0 } in
  let db = Array.make cap dummy in
  let n_db = ref 0 in
  (* watchers.(l) holds ids of clauses currently watching literal [l] *)
  let watchers = Array.make ((2 * (max_var + 1)) + 2) [] in
  (* sorted-literal key -> ids, for deletion lookups *)
  let index : (Cnf.lit list, int list) Hashtbl.t = Hashtbl.create 1024 in
  let assign = Array.make (max_var + 1) Cnf.Unknown in
  let root_conflict = ref false in
  let dirty = ref false in
  let value_of l =
    let v = assign.(Cnf.var_of l) in
    if Cnf.is_pos l then v else Cnf.value_negate v
  in
  let watch l id = watchers.(l) <- id :: watchers.(l) in
  let add_db lits =
    let key = clause_key lits in
    let lits = dedup_lits lits in
    let id = !n_db in
    let n = Array.length lits in
    (* pick watches on non-false literals where possible, so the watch
       invariant holds under the current persistent assignment *)
    let a = ref (-1) and b = ref (-1) in
    for j = 0 to n - 1 do
      if !b < 0 && value_of lits.(j) <> Cnf.False then
        if !a < 0 then a := j else b := j
    done;
    let w0 = if !a >= 0 then !a else 0 in
    let w1 = if !b >= 0 then !b else if !a >= 0 then !a else min 1 (n - 1) in
    let w1 = if n <= 1 then w0 else if w1 = w0 then (w0 + 1) mod n else w1 in
    db.(id) <- { lits; active = true; w0; w1 };
    incr n_db;
    if n > 0 then begin
      watch lits.(w0) id;
      if w1 <> w0 then watch lits.(w1) id
    end;
    let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
    Hashtbl.replace index key (id :: prev)
  in
  (* make [l] true; true on a fresh assignment, Conflict on a clash *)
  let set undo l =
    match value_of l with
    | Cnf.True -> false
    | Cnf.False -> raise Conflict
    | Cnf.Unknown ->
        assign.(Cnf.var_of l) <- (if Cnf.is_pos l then Cnf.True else Cnf.False);
        (match undo with Some u -> u := Cnf.var_of l :: !u | None -> ());
        true
  in
  (* saturate unit propagation from a queue of literals to make true *)
  let propagate undo initial =
    let queue = ref initial in
    while !queue <> [] do
      let l = List.hd !queue in
      queue := List.tl !queue;
      if set undo l then begin
        let falsified = Cnf.negate l in
        let pending = ref watchers.(falsified) in
        watchers.(falsified) <- [];
        let keep = ref [] in
        let conflict = ref false in
        while !pending <> [] do
          let id = List.hd !pending in
          pending := List.tl !pending;
          let c = db.(id) in
          if !conflict then keep := id :: !keep
          else if c.active then begin
            (* normalize: make w0 the watch sitting on [falsified] *)
            if c.lits.(c.w0) <> falsified then begin
              let t = c.w0 in
              c.w0 <- c.w1;
              c.w1 <- t
            end;
            let other = c.lits.(c.w1) in
            if c.w1 <> c.w0 && value_of other = Cnf.True then
              keep := id :: !keep
            else begin
              (* look for a replacement watch *)
              let n = Array.length c.lits in
              let found = ref (-1) in
              let j = ref 0 in
              while !found < 0 && !j < n do
                if
                  !j <> c.w0 && !j <> c.w1
                  && value_of c.lits.(!j) <> Cnf.False
                then found := !j;
                incr j
              done;
              if !found >= 0 then begin
                c.w0 <- !found;
                watch c.lits.(!found) id
              end
              else begin
                keep := id :: !keep;
                if c.w1 = c.w0 || value_of other = Cnf.False then
                  conflict := true
                else queue := other :: !queue
              end
            end
          end
        done;
        watchers.(falsified) <- !keep @ watchers.(falsified);
        if !conflict then raise Conflict
      end
    done
  in
  (* (re)derive the persistent root assignment from the active clauses *)
  let repropagate () =
    Array.fill assign 0 (Array.length assign) Cnf.Unknown;
    root_conflict := false;
    dirty := false;
    try
      let units = ref [] in
      for id = 0 to !n_db - 1 do
        let c = db.(id) in
        if c.active then
          match Array.length c.lits with
          | 0 -> raise Conflict
          | 1 -> units := c.lits.(0) :: !units
          | _ -> ()
      done;
      propagate None !units
    with Conflict -> root_conflict := true
  in
  (* fold a just-added clause into the persistent assignment *)
  let integrate lits =
    if not !root_conflict then
      try
        if Array.length lits = 0 then root_conflict := true
        else begin
          let satisfied = ref false in
          let unassigned = ref [] in
          Array.iter
            (fun m ->
              match value_of m with
              | Cnf.True -> satisfied := true
              | Cnf.Unknown ->
                  if not (List.mem m !unassigned) then
                    unassigned := m :: !unassigned
              | Cnf.False -> ())
            lits;
          if not !satisfied then
            match !unassigned with
            | [] -> root_conflict := true
            | [ u ] -> propagate None [ u ]
            | _ -> ()
        end
      with Conflict -> root_conflict := true
  in
  (* the RUP test: negating the clause must propagate to a conflict *)
  let rup lits =
    if !dirty then repropagate ();
    !root_conflict
    ||
    let undo = ref [] in
    let derived =
      try
        propagate (Some undo) (Array.to_list (Array.map Cnf.negate lits));
        false
      with Conflict -> true
    in
    List.iter (fun v -> assign.(v) <- Cnf.Unknown) !undo;
    derived
  in
  let delete lits =
    let key = clause_key lits in
    match Hashtbl.find_opt index key with
    | None | Some [] -> () (* unknown deletion: ignored, as in drup-trim *)
    | Some (id :: rest) ->
        let c = db.(id) in
        c.active <- false;
        Hashtbl.replace index key rest;
        (* The root closure only has to be recomputed if this clause can
           have fed it a propagation, i.e. it is antecedent-shaped under
           the current assignment: exactly one true literal and all
           others false. Any unassigned literal means the clause never
           fired as a unit, so the closure stands. *)
        if not !dirty then begin
          let trues = ref 0 and unknowns = ref 0 in
          Array.iter
            (fun l ->
              match value_of l with
              | Cnf.True -> incr trues
              | Cnf.Unknown -> incr unknowns
              | Cnf.False -> ())
            c.lits;
          if !root_conflict || (!trues <= 1 && !unknowns = 0) then
            dirty := true
        end
  in
  for i = 0 to Cnf.num_clauses p - 1 do
    add_db (Cnf.clause p i)
  done;
  List.iter (fun l -> add_db [| l |]) units;
  repropagate ();
  let verdict = ref None in
  let step_no = ref 0 in
  List.iter
    (fun s ->
      incr step_no;
      if !verdict = None then
        match s with
        | Delete lits -> delete lits
        | Add lits ->
            if rup lits then begin
              add_db (Array.copy lits);
              integrate lits;
              if Array.length lits = 0 then verdict := Some (Ok ())
            end
            else
              verdict :=
                Some
                  (Error
                     (Format.asprintf
                        "step %d: clause (%a) has no reverse-unit-propagation \
                         derivation"
                        !step_no pp_clause lits))
    )
    proof;
  match !verdict with
  | Some r -> Result.map (fun () -> (n_adds, n_dels)) r
  | None -> Error "proof ends without deriving the empty clause"

let check_refutation p ~units proof = Result.map ignore (refute p ~units proof)

(* ---- certification entry point ---- *)

type certificate = Model of Cnf.model | Refutation of step list

type report = {
  kind : [ `Model | `Refutation ];
  additions : int;
  deletions : int;
  check_time : float;
}

let certify p ~units cert =
  let t0 = Sys.time () in
  let report kind (additions, deletions) =
    { kind; additions; deletions; check_time = Sys.time () -. t0 }
  in
  match cert with
  | Model m -> Result.map (fun () -> report `Model (0, 0)) (check_model p ~units m)
  | Refutation steps -> Result.map (report `Refutation) (refute p ~units steps)

let pp_report ppf r =
  match r.kind with
  | `Model ->
      Format.fprintf ppf "model satisfies every original clause (checked in %.3fs)"
        r.check_time
  | `Refutation ->
      Format.fprintf ppf
        "DRUP refutation: %d additions, %d deletions, checked in %.3fs"
        r.additions r.deletions r.check_time
