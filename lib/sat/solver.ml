(* CDCL solver, MiniSat lineage.

   Watching convention: a clause watches its first two literals
   [lits.(0)] and [lits.(1)]; the clause is registered in the watcher
   list of the *negation* of each watched literal, so when a literal [p]
   is enqueued (made true) we visit [watches.(p)] — exactly the clauses
   in which a watched literal just became false. *)

type clause = {
  mutable lits : Cnf.lit array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

type result = Sat of Cnf.model | Unsat

type bounded_result =
  | Decided of result
  | Unknown of { reason : string; conflicts : int; propagations : int }

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  max_vars : int;
  clauses_added : int;
}

type config = {
  restart_base : float;
  invert_polarity : bool;
  seed : int;
}

let default_config = { restart_base = 100.0; invert_polarity = false; seed = 0 }

let diversified k =
  if k <= 0 then default_config
  else
    {
      restart_base = [| 100.0; 50.0; 200.0; 70.0; 150.0 |].(k mod 5);
      invert_polarity = k land 1 = 1;
      seed = k;
    }

(* Fills unused vector slots, and in [reason] means "no reason": a
   decision, an assumption, or a root-level or learnt unit. *)
let dummy_clause = { lits = [||]; activity = 0.0; learnt = false; deleted = false }

type t = {
  mutable nvars : int;
  mutable clauses : clause Vec.t; (* problem clauses *)
  learnts : clause Vec.t; (* learnt clauses *)
  mutable watches : clause Vec.t array; (* lit-indexed *)
  mutable assigns : Cnf.value array; (* var-indexed *)
  mutable level : int array; (* var-indexed *)
  mutable reason : clause array; (* var-indexed, [dummy_clause] = none *)
  mutable polarity : bool array; (* var-indexed saved phase *)
  mutable seen : bool array; (* var-indexed scratch *)
  trail : Cnf.lit Vec.t;
  trail_lim : int Vec.t;
  (* conflict analysis scratch: the literals met below the conflict
     level, in discovery order, then the learnt clause itself *)
  seen_lits : Cnf.lit Vec.t;
  learnt : Cnf.lit Vec.t;
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once root-level unsat *)
  (* certification *)
  mutable proof : Proof.trail option; (* DRUP trail, when logging is on *)
  mutable originals : Cnf.clause list; (* pre-simplification clauses, reversed *)
  mutable last_certification : Proof.report option;
  (* failed-assumption core of the most recent Unsat-under-assumptions *)
  mutable conflict_core : Cnf.lit list;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_lits : int;
  mutable n_clauses_added : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let create () =
  {
    nvars = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    watches = Array.make 2 (Vec.create ~dummy:dummy_clause ());
    assigns = Array.make 1 Cnf.Unknown;
    level = Array.make 1 (-1);
    reason = Array.make 1 dummy_clause;
    polarity = Array.make 1 false;
    seen = Array.make 1 false;
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    seen_lits = Vec.create ~dummy:0 ();
    learnt = Vec.create ~dummy:0 ();
    qhead = 0;
    order = Heap.create 16;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    proof = None;
    originals = [];
    last_certification = None;
    conflict_core = [];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learnt_lits = 0;
    n_clauses_added = 0;
  }

let num_vars s = s.nvars

let enable_proof s =
  if s.proof = None then begin
    if s.n_clauses_added > 0 then
      invalid_arg "Solver.enable_proof: clauses were already added";
    s.proof <- Some (Proof.create ())
  end

let proof_enabled s = s.proof <> None
let proof_steps s = match s.proof with Some t -> Proof.steps t | None -> []
let last_certification s = s.last_certification

let original_problem s =
  if s.proof = None then
    invalid_arg "Solver.original_problem: proof logging is not enabled";
  { Cnf.num_vars = s.nvars; clauses = s.originals }

(* Record the derivation of the empty clause (root-level unsat). Only
   meaningful for assumption-free refutations; callers guard. *)
let log_empty s =
  match s.proof with Some t -> Proof.log_add t [||] | None -> ()

let resize_arrays s n =
  let grow a fill =
    let old = Array.length a in
    if n + 1 > old then begin
      let b = Array.make (max (n + 1) (2 * old)) fill in
      Array.blit a 0 b 0 old;
      b
    end
    else a
  in
  s.assigns <- grow s.assigns Cnf.Unknown;
  s.level <- grow s.level (-1);
  s.reason <- grow s.reason dummy_clause;
  s.polarity <- grow s.polarity false;
  s.seen <- grow s.seen false;
  let oldw = Array.length s.watches in
  if (2 * n) + 2 > oldw then begin
    let w = Array.make (max ((2 * n) + 2) (2 * oldw)) (Vec.create ~dummy:dummy_clause ()) in
    Array.blit s.watches 0 w 0 oldw;
    for i = oldw to Array.length w - 1 do
      w.(i) <- Vec.create ~dummy:dummy_clause ()
    done;
    s.watches <- w
  end;
  Heap.grow_to s.order n

let ensure_vars s n =
  if n > s.nvars then begin
    resize_arrays s n;
    for v = s.nvars + 1 to n do
      Heap.insert s.order v
    done;
    s.nvars <- n
  end

let new_var s =
  ensure_vars s (s.nvars + 1);
  s.nvars

(* ---- the hot path ----

   Dune's default profile compiles with -opaque, so no call into another
   module is ever inlined: a [Cnf.var_of] or a [Vec.get] in the
   propagation loop is an out-of-line call. The literal arithmetic of
   {!Cnf} and the few {!Vec} operations the search loops need are
   therefore restated here, where they are inlined. They must mean
   exactly what the originals mean — above all, [push_clause] and
   [swap_remove] keep Vec's order, which fixes the order watchers are
   visited in, and with it the whole search. The pushes come one per
   element type so that each compiles to its own store: a plain one for
   ints, the write barrier for clauses. *)

let[@inline] var_of l = l lsr 1
let[@inline] negate l = l lxor 1
let[@inline] is_pos l = l land 1 = 0

let[@inline] push_int (v : int Vec.t) x =
  if v.Vec.sz = Array.length v.Vec.data then Vec.push v x
  else begin
    Array.unsafe_set v.Vec.data v.Vec.sz x;
    v.Vec.sz <- v.Vec.sz + 1
  end

let[@inline] push_clause (v : clause Vec.t) c =
  if v.Vec.sz = Array.length v.Vec.data then Vec.push v c
  else begin
    Array.unsafe_set v.Vec.data v.Vec.sz c;
    v.Vec.sz <- v.Vec.sz + 1
  end

let[@inline] swap_remove (v : clause Vec.t) i =
  let last = v.Vec.sz - 1 in
  v.Vec.sz <- last;
  v.Vec.data.(i) <- v.Vec.data.(last);
  v.Vec.data.(last) <- v.Vec.dummy

let[@inline] value_lit s l =
  let v = s.assigns.(var_of l) in
  if is_pos l then v
  else match v with Cnf.True -> Cnf.False | Cnf.False -> Cnf.True | Cnf.Unknown -> v

let[@inline] decision_level s = s.trail_lim.Vec.sz

(* Enqueue a literal as true, recording its reason. *)
let[@inline] enqueue s l reason =
  let v = var_of l in
  s.assigns.(v) <- (if is_pos l then Cnf.True else Cnf.False);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  push_int s.trail l

let[@inline] watch s l c = push_clause s.watches.(l) c

(* Boolean constraint propagation. Returns the conflicting clause, or
   [dummy_clause] when there is none. Allocates nothing. *)
let propagate s =
  let conflict = ref dummy_clause in
  let trail = s.trail in
  while !conflict == dummy_clause && s.qhead < trail.Vec.sz do
    let p = trail.Vec.data.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let ws = s.watches.(p) in
    let false_lit = negate p in
    let i = ref 0 in
    while !i < ws.Vec.sz do
      let c = ws.Vec.data.(!i) in
      if c.deleted then swap_remove ws !i
      else begin
        let lits = c.lits in
        (* normalize: put the falsified watcher at position 1 *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if value_lit s lits.(0) = Cnf.True then incr i
        else begin
          (* look for a replacement watch *)
          let n = Array.length lits in
          let k = ref 2 in
          while !k < n && value_lit s lits.(!k) = Cnf.False do
            incr k
          done;
          if !k < n then begin
            let k = !k in
            lits.(1) <- lits.(k);
            lits.(k) <- false_lit;
            watch s (negate lits.(1)) c;
            swap_remove ws !i
          end
          else if value_lit s lits.(0) = Cnf.False then begin
            (* conflict: drain queue *)
            conflict := c;
            s.qhead <- trail.Vec.sz;
            i := ws.Vec.sz
          end
          else begin
            enqueue s lits.(0) c;
            incr i
          end
        end
      end
    done
  done;
  !conflict

let var_bump s v =
  Heap.bump s.order v s.var_inc;
  if s.order.Heap.act.(v) > 1e100 then begin
    Heap.rescale s.order 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let clause_bump s c =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun c -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* A literal of a learnt clause is redundant when its reason's other
   literals are all in the clause already or fixed at the root. *)
let is_redundant s q =
  let c = s.reason.(var_of q) in
  c != dummy_clause
  &&
  let lits = c.lits and nq = negate q in
  let n = Array.length lits in
  let i = ref 0 in
  while
    !i < n
    &&
    let l = lits.(!i) in
    l = nq || s.seen.(var_of l) || s.level.(var_of l) = 0
  do
    incr i
  done;
  !i = n

(* First-UIP conflict analysis. Leaves the learnt clause in [s.learnt],
   asserting literal first, then the other literals in reverse order of
   discovery, and returns the backjump level. *)
let analyze s confl =
  let seen = s.seen in
  let found = s.seen_lits in
  found.Vec.sz <- 0;
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (s.trail.Vec.sz - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c != dummy_clause then begin
      if c.learnt then clause_bump s c;
      let start = if !p = -1 then 0 else 1 in
      for j = start to Array.length c.lits - 1 do
        let q = c.lits.(j) in
        let v = var_of q in
        if (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= decision_level s then incr counter
          else push_int found q
        end
      done
    end;
    (* walk the trail back to the next marked literal *)
    let v = ref (var_of s.trail.Vec.data.(!trail_idx)) in
    while not seen.(!v) do
      decr trail_idx;
      v := var_of s.trail.Vec.data.(!trail_idx)
    done;
    p := s.trail.Vec.data.(!trail_idx);
    decr trail_idx;
    seen.(!v) <- false;
    confl := s.reason.(!v);
    decr counter;
    if !counter <= 0 then continue := false
  done;
  (* local clause minimization: drop literals implied by others, which
     [is_redundant] judges by the marks of every literal found *)
  for j = 0 to found.Vec.sz - 1 do
    seen.(var_of found.Vec.data.(j)) <- true
  done;
  let learnt = s.learnt in
  learnt.Vec.sz <- 0;
  push_int learnt (negate !p);
  let btlevel = ref 0 in
  for j = found.Vec.sz - 1 downto 0 do
    let q = found.Vec.data.(j) in
    if not (is_redundant s q) then begin
      push_int learnt q;
      btlevel := Int.max !btlevel s.level.(var_of q)
    end
  done;
  for j = 0 to found.Vec.sz - 1 do
    seen.(var_of found.Vec.data.(j)) <- false
  done;
  !btlevel

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.Vec.data.(lvl) in
    for i = s.trail.Vec.sz - 1 downto bound do
      let l = s.trail.Vec.data.(i) in
      let v = var_of l in
      s.assigns.(v) <- Cnf.Unknown;
      s.polarity.(v) <- is_pos l;
      s.reason.(v) <- dummy_clause;
      s.level.(v) <- -1;
      if s.order.Heap.index.(v) < 0 then Heap.insert s.order v
    done;
    s.trail.Vec.sz <- bound;
    s.trail_lim.Vec.sz <- lvl;
    s.qhead <- bound
  end

(* Assumption-aware final conflict analysis (MiniSat's [analyzeFinal]):
   starting from the literals of a conflicting clause, resolve back
   through the implication graph until only assumption pseudo-decisions
   remain. The result is the subset of the assumptions that actually
   drove the conflict — a core: the formula is already unsatisfiable
   under just these literals. Must run before the trail is cancelled. *)
let analyze_final s confl_lits =
  if decision_level s = 0 then []
  else begin
    let seen = s.seen in
    let marked = ref [] in
    let mark q =
      let v = var_of q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        marked := v :: !marked
      end
    in
    Array.iter mark confl_lits;
    let core = ref [] in
    let bound = s.trail_lim.Vec.data.(0) in
    (* Only literals sitting at a level boundary are pseudo-decisions
       (here: assumptions — every remaining level is an assumption
       level when this runs). A reason-less literal in mid-level is a
       learnt UNIT parked at the assumption level by [record_learnt]:
       learnt clauses are consequences of the clause set alone, so such
       a literal needs no assumption behind it and stays out of the
       core (nor is there a reason clause to resolve through). *)
    let is_boundary i =
      let n = decision_level s in
      let rec go k = k < n && (s.trail_lim.Vec.data.(k) = i || go (k + 1)) in
      go 0
    in
    for i = s.trail.Vec.sz - 1 downto bound do
      let l = s.trail.Vec.data.(i) in
      let v = var_of l in
      if seen.(v) then begin
        let c = s.reason.(v) in
        if c == dummy_clause then begin
          if is_boundary i then core := l :: !core
        end
        else Array.iter mark c.lits
      end
    done;
    List.iter (fun v -> seen.(v) <- false) !marked;
    !core
  end

(* Attach a clause of >= 2 literals to the watch lists. *)
let attach s c =
  watch s (negate c.lits.(0)) c;
  watch s (negate c.lits.(1)) c

(* Record the clause [analyze] left in [s.learnt]. *)
let record_learnt s =
  let n = s.learnt.Vec.sz in
  let arr = Array.sub s.learnt.Vec.data 0 n in
  (match s.proof with
  | Some t -> Proof.log_add t arr
  | None -> ());
  if n = 1 then
    (* asserting unit: enqueue at the backjumped (root) level *)
    enqueue s arr.(0) dummy_clause
  else begin
    (* watch the asserting literal and a literal from the backjump level *)
    let max_i = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(var_of arr.(i)) > s.level.(var_of arr.(!max_i)) then max_i := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!max_i);
    arr.(!max_i) <- tmp;
    let c = { lits = arr; activity = 0.0; learnt = true; deleted = false } in
    push_clause s.learnts c;
    attach s c;
    clause_bump s c;
    s.n_learnt_lits <- s.n_learnt_lits + n;
    enqueue s arr.(0) c
  end

let max_var lits = List.fold_left (fun m l -> Int.max m (var_of l)) 0 lits

let add_clause s lits =
  if s.ok then begin
    s.n_clauses_added <- s.n_clauses_added + 1;
    ensure_vars s (max_var lits);
    if s.proof <> None then s.originals <- Array.of_list lits :: s.originals;
    (* root-level simplification: drop false lits, detect tautology —
       once sorted, a literal and its negation sit side by side *)
    let lits = List.sort_uniq Int.compare lits in
    let rec complementary = function
      | a :: (b :: _ as rest) -> b = negate a || complementary rest
      | [ _ ] | [] -> false
    in
    let tauto =
      complementary lits || List.exists (fun l -> value_lit s l = Cnf.True) lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> value_lit s l <> Cnf.False) lits in
      match lits with
      | [] ->
          s.ok <- false;
          log_empty s
      | [ l ] ->
          enqueue s l dummy_clause;
          if propagate s != dummy_clause then begin
            s.ok <- false;
            log_empty s
          end
      | _ ->
          let arr = Array.of_list lits in
          let c = { lits = arr; activity = 0.0; learnt = false; deleted = false } in
          push_clause s.clauses c;
          attach s c
    end
  end

(* Reduce the learnt-clause database: drop the less active half, keeping
   clauses that are the current reason of an assignment. *)
let reduce_db s =
  let locked c =
    Array.length c.lits > 0 && s.reason.(var_of c.lits.(0)) == c
  in
  let learnts = s.learnts in
  Vec.sort (fun a b -> compare a.activity b.activity) learnts;
  let n = learnts.Vec.sz in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = learnts.Vec.data.(i) in
    if i < n / 2 && (not (locked c)) && Array.length c.lits > 2 then begin
      c.deleted <- true;
      match s.proof with
      | Some t -> Proof.log_delete t c.lits
      | None -> ()
    end
    else begin
      learnts.Vec.data.(!kept) <- c;
      incr kept
    end
  done;
  Vec.shrink learnts !kept

(* The next decision literal, or -1 once every variable is assigned. *)
let pick_branch_lit s =
  let lit = ref (-1) in
  while !lit < 0 && not (Heap.is_empty s.order) do
    let v = Heap.remove_max s.order in
    if s.assigns.(v) = Cnf.Unknown then
      lit := if s.polarity.(v) then v lsl 1 else (v lsl 1) lor 1
  done;
  !lit

(* The model check every Sat answer passes: a loop, so that it
   allocates nothing. *)
let satisfies_clauses m (cs : clause Vec.t) =
  let i = ref 0 in
  while !i < cs.Vec.sz && Cnf.satisfies m cs.Vec.data.(!i).lits do
    incr i
  done;
  !i = cs.Vec.sz

let extract_model s =
  let m = Array.make (s.nvars + 1) false in
  for v = 1 to s.nvars do
    m.(v) <- s.assigns.(v) = Cnf.True
  done;
  m

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec expand sz seq = if sz < i + 1 then expand ((2 * sz) + 1) (seq + 1) else (sz, seq) in
  let rec reduce x sz seq =
    if sz - 1 = x then float_of_int (1 lsl seq)
    else
      let sz = (sz - 1) / 2 in
      reduce (x mod sz) sz (seq - 1)
  in
  let sz, seq = expand 1 0 in
  reduce i sz seq

(* Portfolio diversification: nudge the VSIDS tie-breaking order with
   tiny seeded activity offsets (real conflict bumps dwarf them within a
   few conflicts) and scramble the initial saved phases. Distinct seeds
   steer otherwise-identical solvers into different parts of the search
   tree, which is what makes racing them worthwhile. *)
let diversify s (config : config) =
  if config.invert_polarity then
    for v = 1 to s.nvars do
      s.polarity.(v) <- true
    done;
  if config.seed <> 0 then begin
    let rng = Netsim.Rng.create config.seed in
    for v = 1 to s.nvars do
      Heap.bump s.order v (1e-6 *. Netsim.Rng.float rng 1.0);
      if Netsim.Rng.bool rng then s.polarity.(v) <- not s.polarity.(v)
    done
  end

let solve_core ~assumptions ~budget ~config ~stop s =
  s.conflict_core <- [];
  if not s.ok then Decided Unsat
  else begin
    (* make sure assumption variables exist *)
    ensure_vars s (max_var assumptions);
    cancel_until s 0;
    if config <> default_config then diversify s config;
    if propagate s != dummy_clause then begin
      s.ok <- false;
      log_empty s;
      Decided Unsat
    end
    else begin
      let result = ref None in
      let restart_num = ref 0 in
      let restart_limit = ref (config.restart_base *. luby 0) in
      let conflicts_since_restart = ref 0 in
      let max_learnts = ref (max 1000 (s.clauses.Vec.sz / 3)) in
      (* budget accounting is per solve call, not per solver lifetime *)
      let conflicts0 = s.n_conflicts and propagations0 = s.n_propagations in
      (* push assumptions as pseudo-decisions; [Some core] on failure *)
      let rec push_assumptions = function
        | [] -> None
        | l :: rest -> (
            match value_lit s l with
            | Cnf.True -> push_assumptions rest
            | Cnf.False ->
                (* l is refuted by root facts and earlier assumptions:
                   the core is l plus whatever implied its negation *)
                Some (l :: analyze_final s [| l |])
            | Cnf.Unknown ->
                push_int s.trail_lim s.trail.Vec.sz;
                enqueue s l dummy_clause;
                let c = propagate s in
                if c != dummy_clause then Some (analyze_final s c.lits)
                else push_assumptions rest)
      in
      match push_assumptions assumptions with
      | Some core ->
          cancel_until s 0;
          s.conflict_core <- core;
          Decided Unsat
      | None ->
        begin
        let assumption_level = decision_level s in
        (* the budget AND the cancellation hook are polled here, at every
           conflict/decision boundary — not just at restarts — so a
           portfolio loser stops within one conflict of the winner's
           verdict *)
        while Option.is_none !result do
          let conflicts = s.n_conflicts - conflicts0 in
          let propagations = s.n_propagations - propagations0 in
          let status =
            if stop () then Netsim.Budget.Expired "cancelled"
            else Netsim.Budget.check ~conflicts ~propagations budget
          in
          match status with
          | Netsim.Budget.Expired reason ->
              cancel_until s 0;
              result := Some (Unknown { reason; conflicts; propagations })
          | Netsim.Budget.Within ->
              let confl = propagate s in
              if confl != dummy_clause then begin
                s.n_conflicts <- s.n_conflicts + 1;
                incr conflicts_since_restart;
                if decision_level s <= assumption_level then begin
                  (* conflict at the assumption level or below: unsat.
                     At level 0 the clause set itself is refuted — no
                     assumption was even involved — so the solver is
                     dead for good: close the DRUP trail AND mark it
                     unsatisfiable, or a later warm reuse would skip
                     the (already fully propagated) conflict and
                     fabricate a model. Above level 0 only the
                     assumptions are refuted: compute the failed core
                     (before the trail is cancelled) and stay
                     reusable. *)
                  if decision_level s = 0 then begin
                    s.ok <- false;
                    log_empty s
                  end
                  else s.conflict_core <- analyze_final s confl.lits;
                  cancel_until s 0;
                  result := Some (Decided Unsat)
                end
                else begin
                  let btlevel = analyze s confl in
                  cancel_until s (Int.max btlevel assumption_level);
                  record_learnt s;
                  s.var_inc <- s.var_inc *. var_decay;
                  s.cla_inc <- s.cla_inc *. clause_decay
                end
              end
              else if
                float_of_int !conflicts_since_restart >= !restart_limit
                && decision_level s > assumption_level
              then begin
                s.n_restarts <- s.n_restarts + 1;
                incr restart_num;
                restart_limit := config.restart_base *. luby !restart_num;
                conflicts_since_restart := 0;
                cancel_until s assumption_level
              end
              else begin
                if s.learnts.Vec.sz >= !max_learnts then begin
                  reduce_db s;
                  max_learnts := !max_learnts + (!max_learnts / 10)
                end;
                let l = pick_branch_lit s in
                if l < 0 then begin
                  let m = extract_model s in
                  cancel_until s 0;
                  assert (satisfies_clauses m s.clauses);
                  result := Some (Decided (Sat m))
                end
                else begin
                  s.n_decisions <- s.n_decisions + 1;
                  push_int s.trail_lim s.trail.Vec.sz;
                  enqueue s l dummy_clause
                end
              end
        done;
        match !result with Some r -> r | None -> assert false
      end
    end
  end

let never_stop () = false

let solve_bounded ?(assumptions = []) ?(config = default_config)
    ?(stop = never_stop) ~budget s =
  solve_core ~assumptions ~budget ~config ~stop s

let failed_assumptions s = s.conflict_core

let solve ?(assumptions = []) ?(certify = false) s =
  if certify && assumptions <> [] then
    invalid_arg "Solver.solve: ~certify does not support assumptions";
  if certify && s.proof = None then
    invalid_arg
      "Solver.solve: ~certify requires proof logging (enable_proof or \
       of_problem ~proof:true)";
  let r =
    match
      solve_core ~assumptions ~budget:Netsim.Budget.unlimited
        ~config:default_config ~stop:never_stop s
    with
    | Decided r -> r
    | Unknown _ -> assert false (* unlimited budgets never expire *)
  in
  if certify then begin
    let p = original_problem s in
    let cert =
      match r with
      | Sat m -> Proof.Model m
      | Unsat -> Proof.Refutation (proof_steps s)
    in
    match Proof.certify p cert with
    | Ok report -> s.last_certification <- Some report
    | Error msg -> raise (Proof.Certification_failed msg)
  end;
  r

(* Certified solve under assumptions, for warm (session) solvers.

   [solve ~certify] rejects assumptions because a DRUP trail under
   assumptions does not refute the clause set alone. Here the assumed
   problem — original clauses plus one unit clause per assumption — is
   what gets certified, and the session trail needs no rewriting: every
   clause the solver learns is derived by resolution from the clause
   database only (assumption pseudo-decisions have no reason clause, so
   they surface as negated literals *inside* learnt clauses, never as
   premises), hence each logged Add is RUP against the originals plus
   earlier Adds, with or without the assumption units. An Unsat-under-
   assumptions verdict ends in a conflict reached by unit propagation
   from root facts and the assumption units, so the per-cell trail
   slice is closed by appending one empty-clause Add, which is RUP once
   the assumption units are axioms. A Sat verdict is certified as a
   model of the assumed problem (assumptions were on the trail when the
   model was extracted). The solver is NOT mutated beyond the normal
   warm-solve effects: no unit clauses are added, so the session stays
   reusable under different assumptions. *)
let solve_assuming_certified ~assumptions s =
  if s.proof = None then
    invalid_arg
      "Solver.solve_assuming_certified: requires proof logging \
       (enable_proof or of_problem ~proof:true)";
  let r =
    match
      solve_core ~assumptions ~budget:Netsim.Budget.unlimited
        ~config:default_config ~stop:never_stop s
    with
    | Decided r -> r
    | Unknown _ -> assert false (* unlimited budgets never expire *)
  in
  let p = original_problem s in
  let assumed =
    List.fold_left (fun p l -> Cnf.add_clause p [ l ]) p assumptions
  in
  let cert =
    match r with
    | Sat m -> Proof.Model m
    | Unsat -> Proof.Refutation (proof_steps s @ [ Proof.Add [||] ])
  in
  (match Proof.certify assumed cert with
  | Ok report -> s.last_certification <- Some report
  | Error msg -> raise (Proof.Certification_failed msg));
  r

let of_problem ?(proof = false) (p : Cnf.problem) =
  let s = create () in
  if proof then enable_proof s;
  ensure_vars s p.num_vars;
  List.iter (fun c -> add_clause s (Array.to_list c)) (List.rev p.clauses);
  s

let solve_problem ?(certify = false) p =
  solve ~certify (of_problem ~proof:certify p)

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_lits;
    max_vars = s.nvars;
    clauses_added = s.n_clauses_added;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d decisions=%d propagations=%d conflicts=%d restarts=%d"
    st.max_vars st.clauses_added st.decisions st.propagations st.conflicts
    st.restarts
