(* CDCL solver, MiniSat lineage.

   Watching convention: a clause watches its first two literals; the
   clause is registered in the watcher list of the *negation* of each
   watched literal, so when a literal [p] is enqueued (made true) we
   visit [watches.(p)] — exactly the clauses in which a watched literal
   just became false. *)

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
  compactions : int;
}

(* ---- the clause store ----

   Clauses live in a few large int arrays, the segments, and a clause
   is named by an int reference: its segment's index shifted left by
   [seg_bits], plus the offset of its block in the segment. A block is
   a header word (the size, shifted left by two, then the learnt and
   deleted bits), an activity slot (an index into [act]; learnt clauses
   only), then the literals. Reference -1 is "no clause", and reference
   0 is a permanent deleted clause, the sentinel.

   Segment 0 holds the sentinel and the problem [of_problem] loaded; no
   clause enters, leaves or is deleted from it afterwards. Every later
   clause (learnt, or added one by one) goes into the last segment, and
   a new segment opens when it is full: its size doubles with the
   clauses outside segment 0, up to [seg_words], and a longer clause
   gets a segment of its own. *)

let seg_bits = 32
let off_mask = (1 lsl seg_bits) - 1
let seg_words = 65536
let hdr_words = 2
let learnt_bit = 2
let deleted_bit = 1
let sentinel = 0

(* literal values, in a literal-indexed byte string *)
let l_undef = '\000'
let l_true = '\001'
let l_false = '\002'

type t = {
  mutable nvars : int;
  (* the clause store *)
  mutable segs : int array array;
  mutable nsegs : int;
  mutable fill : int; (* words used in the last segment *)
  mutable late_words : int; (* words allocated outside segment 0 *)
  mutable wasted : int; (* words of deleted clauses *)
  mutable act : float array; (* learnt-clause activities, by slot *)
  mutable n_slots : int;
  free_slots : int Vec.t;
  clauses : int Vec.t; (* problem clauses *)
  learnts : int Vec.t; (* learnt clauses *)
  mutable watches : int Vec.t array; (* lit-indexed *)
  mutable vals : Bytes.t; (* lit-indexed *)
  mutable level : int array; (* var-indexed *)
  mutable reason : int array; (* var-indexed, -1 = none *)
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
  (* with logging on, the clauses before simplification: the problem
     [of_problem] loaded, then, once a clause is added one by one, a
     builder holding those and every later one *)
  mutable originals : Cnf.problem;
  mutable added : Cnf.builder option;
  mutable tmp : Cnf.lit array; (* the clause being loaded *)
  (* failed-assumption core of the most recent Unsat-under-assumptions *)
  mutable conflict_core : Cnf.lit list;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_lits : int;
  mutable n_clauses_added : int;
  mutable n_compactions : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

(* A solver whose segment 0 has room for [words] words of clauses after
   the sentinel. *)
let create_sized words =
  let segs = Array.make 8 [||] in
  segs.(0) <- Array.make (hdr_words + words) 0;
  segs.(0).(0) <- deleted_bit;
  {
    nvars = 0;
    segs;
    nsegs = 1;
    fill = hdr_words;
    late_words = 0;
    wasted = 0;
    act = Array.make 16 0.0;
    n_slots = 0;
    free_slots = Vec.create ~dummy:0 ();
    clauses = Vec.create ~dummy:0 ();
    learnts = Vec.create ~dummy:0 ();
    watches = Array.make 2 (Vec.create ~dummy:0 ());
    vals = Bytes.make 2 l_undef;
    level = Array.make 1 (-1);
    reason = Array.make 1 (-1);
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
    originals = Cnf.empty;
    added = None;
    tmp = Array.make 16 0;
    conflict_core = [];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learnt_lits = 0;
    n_clauses_added = 0;
    n_compactions = 0;
  }

let create () = create_sized 0
let num_vars s = s.nvars

let enable_proof s =
  if s.proof = None then begin
    if s.n_clauses_added > 0 then
      invalid_arg "Solver.enable_proof: clauses were already added";
    s.proof <- Some (Proof.create ())
  end

let proof_steps s = match s.proof with Some t -> Proof.steps t | None -> []

let original_problem s =
  if s.proof = None then
    invalid_arg "Solver.original_problem: proof logging is not enabled";
  match s.added with Some b -> Cnf.freeze b | None -> s.originals

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
  s.level <- grow s.level (-1);
  s.reason <- grow s.reason (-1);
  s.polarity <- grow s.polarity false;
  s.seen <- grow s.seen false;
  let oldv = Bytes.length s.vals in
  if (2 * n) + 2 > oldv then begin
    let b = Bytes.make (max ((2 * n) + 2) (2 * oldv)) l_undef in
    Bytes.blit s.vals 0 b 0 oldv;
    s.vals <- b
  end;
  let oldw = Array.length s.watches in
  if (2 * n) + 2 > oldw then begin
    let w = Array.make (max ((2 * n) + 2) (2 * oldw)) (Vec.create ~dummy:0 ()) in
    Array.blit s.watches 0 w 0 oldw;
    for i = oldw to Array.length w - 1 do
      w.(i) <- Vec.create ~dummy:0 ()
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

(* ---- the hot path ----

   Dune's default profile compiles with -opaque, so no call into another
   module is ever inlined: a [Cnf.var_of] or a [Vec.push] in the
   propagation loop is an out-of-line call. The literal arithmetic of
   {!Cnf} and the few vector operations the search loops need are
   therefore written here, on {!Vec}'s fields, where they are inlined.
   Their order is part of the search: [push_int] appends and
   [swap_remove] moves the last element into the gap, which fixes the
   order watchers are visited in, and with it the whole search. Every vector the search
   writes holds ints, so none of these stores calls the write
   barrier. *)

let[@inline] var_of l = l lsr 1
let[@inline] negate l = l lxor 1
let[@inline] is_pos l = l land 1 = 0

let[@inline] push_int (v : int Vec.t) x =
  if v.Vec.sz = Array.length v.Vec.data then Vec.push v x
  else begin
    Array.unsafe_set v.Vec.data v.Vec.sz x;
    v.Vec.sz <- v.Vec.sz + 1
  end

let[@inline] swap_remove (v : int Vec.t) i =
  let last = v.Vec.sz - 1 in
  v.Vec.sz <- last;
  v.Vec.data.(i) <- v.Vec.data.(last)

let[@inline] value_lit s l = Bytes.get s.vals l
let[@inline] decision_level s = s.trail_lim.Vec.sz

(* A clause reference's segment and the offset of its block. *)
let[@inline] seg_of s c = s.segs.(c lsr seg_bits)
let[@inline] off_of c = c land off_mask
let[@inline] size_of hdr = hdr lsr 2

(* Enqueue a literal as true, recording its reason. *)
let[@inline] enqueue s l reason =
  let v = var_of l in
  Bytes.set s.vals l l_true;
  Bytes.set s.vals (negate l) l_false;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  push_int s.trail l

(* Boolean constraint propagation. Returns the conflicting clause, or
   -1 when there is none. Allocates nothing. *)
let propagate s =
  let conflict = ref (-1) in
  let trail = s.trail and vals = s.vals and segs = s.segs in
  let watches = s.watches in
  while !conflict < 0 && s.qhead < trail.Vec.sz do
    let p = trail.Vec.data.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let ws = watches.(p) in
    let false_lit = negate p in
    let i = ref 0 in
    while !i < ws.Vec.sz do
      let c = ws.Vec.data.(!i) in
      let seg = segs.(c lsr seg_bits) in
      let o = off_of c in
      let hdr = seg.(o) in
      if hdr land deleted_bit <> 0 then swap_remove ws !i
      else begin
        let o0 = o + hdr_words in
        (* normalize: put the falsified watcher at position 1 *)
        if seg.(o0) = false_lit then begin
          seg.(o0) <- seg.(o0 + 1);
          seg.(o0 + 1) <- false_lit
        end;
        let first = seg.(o0) in
        let first_val = Bytes.get vals first in
        if first_val = l_true then incr i
        else begin
          (* look for a replacement watch *)
          let stop = o0 + size_of hdr in
          let k = ref (o0 + 2) in
          while !k < stop && Bytes.get vals seg.(!k) = l_false do
            incr k
          done;
          if !k < stop then begin
            let k = !k in
            let w = seg.(k) in
            seg.(o0 + 1) <- w;
            seg.(k) <- false_lit;
            push_int watches.(negate w) c;
            swap_remove ws !i
          end
          else if first_val = l_false then begin
            (* conflict: drain queue *)
            conflict := c;
            s.qhead <- trail.Vec.sz;
            i := ws.Vec.sz
          end
          else begin
            enqueue s first c;
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

(* Bumps a learnt clause's activity; [slot] is its activity slot. The
   rescale runs over every slot, free ones too, which is harmless. *)
let clause_bump s slot =
  let act = s.act in
  act.(slot) <- act.(slot) +. s.cla_inc;
  if act.(slot) > 1e20 then begin
    for i = 0 to s.n_slots - 1 do
      act.(i) <- act.(i) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* A literal of a learnt clause is redundant when its reason's other
   literals are all in the clause already or fixed at the root. *)
let is_redundant s q =
  let c = s.reason.(var_of q) in
  c >= 0
  &&
  let seg = seg_of s c and o0 = off_of c + hdr_words in
  let stop = o0 + size_of seg.(o0 - hdr_words) and nq = negate q in
  let i = ref o0 in
  while
    !i < stop
    &&
    let l = seg.(!i) in
    l = nq || s.seen.(var_of l) || s.level.(var_of l) = 0
  do
    incr i
  done;
  !i = stop

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
    if c >= 0 then begin
      let seg = seg_of s c and o = off_of c in
      let hdr = seg.(o) in
      if hdr land learnt_bit <> 0 then clause_bump s seg.(o + 1);
      let o0 = o + hdr_words in
      let start = if !p = -1 then o0 else o0 + 1 in
      for j = start to o0 + size_of hdr - 1 do
        let q = seg.(j) in
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
      Bytes.set s.vals l l_undef;
      Bytes.set s.vals (negate l) l_undef;
      s.polarity.(v) <- is_pos l;
      s.reason.(v) <- -1;
      s.level.(v) <- -1;
      if s.order.Heap.index.(v) < 0 then Heap.insert s.order v
    done;
    s.trail.Vec.sz <- bound;
    s.trail_lim.Vec.sz <- lvl;
    s.qhead <- bound
  end

(* Marks [q]'s variable for [analyze_final], remembering it in
   [seen_lits] so that the marks can be cleared. *)
let mark_final s q =
  let v = var_of q in
  if (not s.seen.(v)) && s.level.(v) > 0 then begin
    s.seen.(v) <- true;
    push_int s.seen_lits v
  end

let mark_clause_final s c =
  let seg = seg_of s c and o0 = off_of c + hdr_words in
  for j = o0 to o0 + size_of seg.(o0 - hdr_words) - 1 do
    mark_final s seg.(j)
  done

(* Whether trail position [i] opens a decision level. *)
let is_boundary s i =
  let n = decision_level s in
  let k = ref 0 in
  while !k < n && s.trail_lim.Vec.data.(!k) <> i do
    incr k
  done;
  !k < n

(* Assumption-aware final conflict analysis (MiniSat's [analyzeFinal]):
   starting from the literals of a conflicting clause [confl] (or, when
   [confl] is -1, from the one literal [l]), resolve back through the
   implication graph until only assumption pseudo-decisions remain. The
   result is the subset of the assumptions that actually drove the
   conflict — a core: the formula is already unsatisfiable under just
   these literals. Must run before the trail is cancelled. *)
let analyze_final s confl l =
  if decision_level s = 0 then []
  else begin
    let seen = s.seen and marked = s.seen_lits in
    marked.Vec.sz <- 0;
    if confl >= 0 then mark_clause_final s confl else mark_final s l;
    let core = ref [] in
    let bound = s.trail_lim.Vec.data.(0) in
    (* Only literals sitting at a level boundary are pseudo-decisions
       (here: assumptions — every remaining level is an assumption
       level when this runs). A reason-less literal in mid-level is a
       learnt UNIT parked at the assumption level by [record_learnt]:
       learnt clauses are consequences of the clause set alone, so such
       a literal needs no assumption behind it and stays out of the
       core (nor is there a reason clause to resolve through). *)
    for i = s.trail.Vec.sz - 1 downto bound do
      let l = s.trail.Vec.data.(i) in
      let v = var_of l in
      if seen.(v) then begin
        let c = s.reason.(v) in
        if c < 0 then begin
          if is_boundary s i then core := l :: !core
        end
        else mark_clause_final s c
      end
    done;
    for j = 0 to marked.Vec.sz - 1 do
      seen.(marked.Vec.data.(j)) <- false
    done;
    !core
  end

(* ---- growing and compacting the store ---- *)

let new_segment s need =
  let size = max need (min seg_words (max 1024 s.late_words)) in
  if s.nsegs = Array.length s.segs then begin
    let segs = Array.make (2 * s.nsegs) [||] in
    Array.blit s.segs 0 segs 0 s.nsegs;
    s.segs <- segs
  end;
  s.segs.(s.nsegs) <- Array.make size 0;
  s.nsegs <- s.nsegs + 1;
  s.fill <- 0

(* A block of [n] literals in the last segment, its header written and
   its activity slot (a fresh one, at activity 0, for a learnt clause)
   assigned; the caller writes the literals. *)
let alloc s n ~learnt =
  let need = n + hdr_words in
  if s.fill + need > Array.length s.segs.(s.nsegs - 1) then new_segment s need;
  let si = s.nsegs - 1 in
  let seg = s.segs.(si) and o = s.fill in
  s.fill <- o + need;
  if si > 0 then s.late_words <- s.late_words + need;
  seg.(o) <- (n lsl 2) lor if learnt then learnt_bit else 0;
  if learnt then begin
    let slot =
      if s.free_slots.Vec.sz > 0 then begin
        s.free_slots.Vec.sz <- s.free_slots.Vec.sz - 1;
        s.free_slots.Vec.data.(s.free_slots.Vec.sz)
      end
      else begin
        if s.n_slots = Array.length s.act then begin
          let act = Array.make (2 * s.n_slots) 0.0 in
          Array.blit s.act 0 act 0 s.n_slots;
          s.act <- act
        end;
        s.n_slots <- s.n_slots + 1;
        s.n_slots - 1
      end
    in
    s.act.(slot) <- 0.0;
    seg.(o + 1) <- slot
  end;
  (si lsl seg_bits) lor o

(* Load [data.(0 .. n-1)] as a new clause and watch its first two
   literals. *)
let store_clause s data n ~learnt =
  let c = alloc s n ~learnt in
  let seg = seg_of s c and o0 = off_of c + hdr_words in
  for j = 0 to n - 1 do
    seg.(o0 + j) <- data.(j)
  done;
  push_int s.watches.(negate data.(0)) c;
  push_int s.watches.(negate data.(1)) c;
  c

(* Moves every clause outside segment 0 into fresh segments, leaving
   the deleted ones behind. A live clause's old block keeps its new
   reference in its activity slot word, and the watch lists, reasons
   and clause vectors are rewritten in place: a live clause keeps its
   place in each, and a deleted clause still sitting in a watch list
   becomes the sentinel, which [propagate] drops at the same visit it
   would have dropped the clause. Literal order, activities and every
   vector's order are kept, so the search is unchanged. *)
let compact s =
  let old = s.segs in
  s.segs <- Array.make (Array.length old) [||];
  s.segs.(0) <- old.(0);
  s.nsegs <- 1;
  s.fill <- Array.length old.(0);
  s.late_words <- 0;
  s.wasted <- 0;
  let relocate (v : int Vec.t) =
    for i = 0 to v.Vec.sz - 1 do
      let c = v.Vec.data.(i) in
      if c lsr seg_bits > 0 then begin
        let seg = old.(c lsr seg_bits) and o = off_of c in
        let hdr = seg.(o) in
        let n = size_of hdr in
        let c' = alloc s n ~learnt:false in
        let seg' = seg_of s c' and o' = off_of c' in
        seg'.(o') <- hdr;
        seg'.(o' + 1) <- seg.(o + 1);
        for j = hdr_words to hdr_words + n - 1 do
          seg'.(o' + j) <- seg.(o + j)
        done;
        seg.(o + 1) <- c';
        v.Vec.data.(i) <- c'
      end
    done
  in
  relocate s.clauses;
  relocate s.learnts;
  let forward c =
    let seg = old.(c lsr seg_bits) and o = off_of c in
    if seg.(o) land deleted_bit <> 0 then sentinel
    else if c lsr seg_bits = 0 then c
    else seg.(o + 1)
  in
  for l = 0 to (2 * s.nvars) + 1 do
    let ws = s.watches.(l) in
    for i = 0 to ws.Vec.sz - 1 do
      ws.Vec.data.(i) <- forward ws.Vec.data.(i)
    done
  done;
  for v = 1 to s.nvars do
    let c = s.reason.(v) in
    if c >= 0 then s.reason.(v) <- forward c
  done;
  s.n_compactions <- s.n_compactions + 1

(* Record the clause [analyze] left in [s.learnt]. *)
let record_learnt s =
  let learnt = s.learnt in
  let n = learnt.Vec.sz and data = learnt.Vec.data in
  (match s.proof with
  | Some t -> Proof.log_add t (Array.sub data 0 n)
  | None -> ());
  if n = 1 then
    (* asserting unit: enqueue at the backjumped (root) level *)
    enqueue s data.(0) (-1)
  else begin
    (* watch the asserting literal and a literal from the backjump level *)
    let max_i = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(var_of data.(i)) > s.level.(var_of data.(!max_i)) then
        max_i := i
    done;
    let tmp = data.(1) in
    data.(1) <- data.(!max_i);
    data.(!max_i) <- tmp;
    let c = store_clause s data n ~learnt:true in
    push_int s.learnts c;
    clause_bump s (seg_of s c).(off_of c + 1);
    s.n_learnt_lits <- s.n_learnt_lits + n;
    enqueue s data.(0) c
  end

(* Sorts [a.(0 .. n-1)] ascending without allocating: insertion sort
   for the short clauses that make up nearly every problem, heap sort
   for the rest. The literals are ints, so any sort leaves the same
   array. *)
let rec sift (a : int array) n i x =
  let c = (2 * i) + 1 in
  if c >= n then a.(i) <- x
  else begin
    let c = if c + 1 < n && a.(c + 1) > a.(c) then c + 1 else c in
    if a.(c) > x then begin
      a.(i) <- a.(c);
      sift a n c x
    end
    else a.(i) <- x
  end

let sort_lits (a : int array) n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a n i a.(i)
    done;
    for last = n - 1 downto 1 do
      let x = a.(last) in
      a.(last) <- a.(0);
      sift a last 0 x
    done
  end

let ensure_tmp s n =
  if n > Array.length s.tmp then s.tmp <- Array.make (max n (2 * Array.length s.tmp)) 0

(* Adds the clause in [s.tmp.(0 .. n-1)], whose variables exist, with
   root-level simplification: merge duplicates, detect a tautology —
   once sorted, a literal and its negation sit side by side — or a
   literal already true, and drop false literals. What is left ends the
   instance when empty, is enqueued and propagated at once when a unit,
   and is stored otherwise, sorted, watching its first two literals. *)
let add_tmp s n =
  s.n_clauses_added <- s.n_clauses_added + 1;
  let a = s.tmp in
  sort_lits a n;
  let m = ref 0 and tauto = ref false in
  for j = 0 to n - 1 do
    let l = a.(j) in
    if !m = 0 || a.(!m - 1) <> l then begin
      if (!m > 0 && a.(!m - 1) = negate l) || value_lit s l = l_true then
        tauto := true;
      a.(!m) <- l;
      incr m
    end
  done;
  if not !tauto then begin
    let kept = ref 0 in
    for j = 0 to !m - 1 do
      if value_lit s a.(j) <> l_false then begin
        a.(!kept) <- a.(j);
        incr kept
      end
    done;
    match !kept with
    | 0 ->
        s.ok <- false;
        log_empty s
    | 1 ->
        enqueue s a.(0) (-1);
        if propagate s >= 0 then begin
          s.ok <- false;
          log_empty s
        end
    | n -> push_int s.clauses (store_clause s a n ~learnt:false)
  end

let max_var lits = List.fold_left (fun m l -> Int.max m (var_of l)) 0 lits

let add_clause s lits =
  List.iter
    (fun l -> if l < 2 then invalid_arg "Solver.add_clause: a literal over variable 0")
    lits;
  if s.ok then begin
    ensure_vars s (max_var lits);
    if s.proof <> None then begin
      let b =
        match s.added with
        | Some b -> b
        | None ->
            let b = Cnf.builder () in
            Cnf.add_problem b s.originals;
            s.added <- Some b;
            b
      in
      Cnf.add_clause b lits
    end;
    let n = List.length lits in
    ensure_tmp s n;
    List.iteri (fun i l -> s.tmp.(i) <- l) lits;
    add_tmp s n
  end

(* [Array.sort]'s ternary heap sort, restated for the learnt vector
   ordered by activity so that it stores ints only: the same
   comparisons in the same order give the same permutation, ties
   included, as sorting the vector with [compare] on activities. *)
let sort_learnts s =
  let a = s.learnts.Vec.data and l = s.learnts.Vec.sz in
  let key c = s.act.((seg_of s c).(off_of c + 1)) in
  (* the largest of [i]'s sons below [l], or -1 when it has none *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if key a.(i31) < key a.(i31 + 1) then i31 + 1 else i31 in
      if key a.(x) < key a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && key a.(i31) < key a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && key a.(j) > key e then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key a.(father) < key e then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Reduce the learnt-clause database: drop the less active half, keeping
   clauses that are the current reason of an assignment; then compact
   the store once deleted clauses fill half of it outside segment 0. *)
let reduce_db s =
  let learnts = s.learnts in
  sort_learnts s;
  let n = learnts.Vec.sz in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = learnts.Vec.data.(i) in
    let seg = seg_of s c and o = off_of c in
    let hdr = seg.(o) in
    let size = size_of hdr in
    let locked = s.reason.(var_of seg.(o + hdr_words)) = c in
    if i < n / 2 && (not locked) && size > 2 then begin
      seg.(o) <- hdr lor deleted_bit;
      s.wasted <- s.wasted + size + hdr_words;
      push_int s.free_slots seg.(o + 1);
      match s.proof with
      | Some t -> Proof.log_delete t (Array.sub seg (o + hdr_words) size)
      | None -> ()
    end
    else begin
      learnts.Vec.data.(!kept) <- c;
      incr kept
    end
  done;
  learnts.Vec.sz <- !kept;
  if 2 * s.wasted > s.late_words then compact s

(* The next decision literal, or -1 once every variable is assigned. *)
let pick_branch_lit s =
  let lit = ref (-1) in
  while !lit < 0 && not (Heap.is_empty s.order) do
    let v = Heap.remove_max s.order in
    if Bytes.get s.vals (v lsl 1) = l_undef then
      lit := if s.polarity.(v) then v lsl 1 else (v lsl 1) lor 1
  done;
  !lit

(* The model check every Sat answer passes: loops, so that it
   allocates nothing. *)
let satisfies_clauses s (m : Cnf.model) =
  let satisfied c =
    let seg = seg_of s c and o0 = off_of c + hdr_words in
    let stop = o0 + size_of seg.(o0 - hdr_words) in
    let j = ref o0 in
    while
      !j < stop
      &&
      let l = seg.(!j) in
      m.(var_of l) <> is_pos l
    do
      incr j
    done;
    !j < stop
  in
  let cs = s.clauses in
  let i = ref 0 in
  while !i < cs.Vec.sz && satisfied cs.Vec.data.(!i) do
    incr i
  done;
  !i = cs.Vec.sz

let extract_model s =
  let m = Array.make (s.nvars + 1) false in
  for v = 1 to s.nvars do
    m.(v) <- Bytes.get s.vals (v lsl 1) = l_true
  done;
  m

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., in units
   of [restart_base] conflicts *)
let restart_base = 100.0

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

let solve_core ~assumptions ~budget s =
  s.conflict_core <- [];
  if not s.ok then Decided Unsat
  else begin
    (* make sure assumption variables exist *)
    ensure_vars s (max_var assumptions);
    cancel_until s 0;
    if propagate s >= 0 then begin
      s.ok <- false;
      log_empty s;
      Decided Unsat
    end
    else begin
      let result = ref None in
      let restart_num = ref 0 in
      let restart_limit = ref (restart_base *. luby 0) in
      let conflicts_since_restart = ref 0 in
      let max_learnts = ref (max 1000 (s.clauses.Vec.sz / 3)) in
      (* budget accounting is per solve call, not per solver lifetime *)
      let conflicts0 = s.n_conflicts and propagations0 = s.n_propagations in
      (* push assumptions as pseudo-decisions; [Some core] on failure *)
      let rec push_assumptions = function
        | [] -> None
        | l :: rest ->
            let v = value_lit s l in
            if v = l_true then push_assumptions rest
            else if v = l_false then
              (* l is refuted by root facts and earlier assumptions:
                 the core is l plus whatever implied its negation *)
              Some (l :: analyze_final s (-1) l)
            else begin
              push_int s.trail_lim s.trail.Vec.sz;
              enqueue s l (-1);
              let c = propagate s in
              if c >= 0 then Some (analyze_final s c l)
              else push_assumptions rest
            end
      in
      match push_assumptions assumptions with
      | Some core ->
          cancel_until s 0;
          s.conflict_core <- core;
          Decided Unsat
      | None ->
        begin
        let assumption_level = decision_level s in
        (* the budget, and with it its cancellation hook, is polled here,
           at every conflict/decision boundary — not just at restarts —
           so a cancelled solve (a drained sweep, a request past its
           deadline) stops within one conflict *)
        while Option.is_none !result do
          let conflicts = s.n_conflicts - conflicts0 in
          let propagations = s.n_propagations - propagations0 in
          match
            Netsim.Budget.check ~steps:0 ~conflicts ~propagations budget
          with
          | Netsim.Budget.Expired reason ->
              cancel_until s 0;
              result := Some (Unknown { reason; conflicts; propagations })
          | Netsim.Budget.Within ->
              let confl = propagate s in
              if confl >= 0 then begin
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
                  else s.conflict_core <- analyze_final s confl (-1);
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
                restart_limit := restart_base *. luby !restart_num;
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
                  assert (satisfies_clauses s m);
                  result := Some (Decided (Sat m))
                end
                else begin
                  s.n_decisions <- s.n_decisions + 1;
                  push_int s.trail_lim s.trail.Vec.sz;
                  enqueue s l (-1)
                end
              end
        done;
        match !result with Some r -> r | None -> assert false
      end
    end
  end

let solve_bounded ?(assumptions = []) ~budget s =
  solve_core ~assumptions ~budget s

let failed_assumptions s = s.conflict_core

let solve ?(assumptions = []) s =
  match
    solve_core ~assumptions ~budget:Netsim.Budget.unlimited s
  with
  | Decided r -> r
  | Unknown _ -> assert false (* unlimited budgets never expire *)

(* Certifies a verdict [solve] or [solve_bounded] returned under
   [assumptions], against the original clauses plus one unit per
   assumption — axioms of the checker only: the solver's clause set is
   never touched, so the session stays reusable under other
   assumptions. A [Sat] model was extracted with the assumptions on the
   trail, so it must satisfy those units too. An [Unsat] is checked
   with the DRUP trail logged so far, which needs no rewriting: every
   clause the solver learns is derived by resolution from the clause
   database alone (assumption pseudo-decisions have no reason clause,
   so they surface as negated literals inside learnt clauses, never as
   premises), hence each logged Add is RUP against the originals plus
   earlier Adds, with or without the units. Without assumptions the
   refutation is complete already: an assumption-free Unsat always ends
   in a level-0 conflict, which [log_empty] logged. Under assumptions
   the verdict ends in a conflict reached by unit propagation from the
   root facts and the assumption units, so one empty-clause Add closes
   the trail, RUP once the units are axioms. Nothing is searched and
   nothing is logged: the trail stays as the solver left it. *)
let certify s ~assumptions r =
  match s.proof with
  | None -> invalid_arg "Solver.certify: proof logging is not enabled"
  | Some t -> (
      let cert =
        match r with
        | Sat m -> Proof.Model m
        | Unsat when assumptions = [] -> Proof.Refutation (Proof.steps t)
        | Unsat -> Proof.Refutation (Proof.steps t @ [ Proof.Add [||] ])
      in
      match Proof.certify (original_problem s) ~units:assumptions cert with
      | Ok report -> report
      | Error msg -> raise (Proof.Certification_failed msg))

(* Segment 0 is sized to the problem's clauses, with no room spared for
   the ones simplification drops; once they are loaded it is sealed, so
   that every later clause goes into a later segment. Each clause is
   copied into [s.tmp] and loaded there as [add_clause] loads one, in
   order, so the store, the trail and the DRUP trail are what adding
   the clauses one by one would give. *)
let of_problem ?(proof = false) (p : Cnf.problem) =
  let n = Cnf.num_clauses p in
  let s = create_sized (Array.length p.lits + (hdr_words * n)) in
  if proof then begin
    enable_proof s;
    s.originals <- p
  end;
  ensure_vars s p.num_vars;
  let lits = p.lits and ends = p.ends in
  let i = ref 0 in
  while s.ok && !i < n do
    let start = if !i = 0 then 0 else ends.(!i - 1) in
    let len = ends.(!i) - start in
    ensure_tmp s len;
    let tmp = s.tmp in
    for j = 0 to len - 1 do
      tmp.(j) <- lits.(start + j)
    done;
    add_tmp s len;
    incr i
  done;
  s.fill <- Array.length s.segs.(0);
  s

let solve_problem p = solve (of_problem p)

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_lits;
    max_vars = s.nvars;
    clauses_added = s.n_clauses_added;
    compactions = s.n_compactions;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d decisions=%d propagations=%d conflicts=%d restarts=%d"
    st.max_vars st.clauses_added st.decisions st.propagations st.conflicts
    st.restarts
