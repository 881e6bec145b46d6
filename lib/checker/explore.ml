type verdict =
  | Converges of { states : int; terminals : int }
  | Nonconvergence of { trace : State.transition list; states : int }
  | Bad_terminal of { trace : State.transition list; states : int }
  | Unknown of { states : int; reason : string }

(* The visited set: every key a search has met, stored exactly, with
   its DFS colour inline. Keys sit back to back in one byte arena, each
   behind an 8-byte header (key length lsl 1, lor 1 while gray) and
   zero-padded to whole 8-byte words, as {!State.pack} leaves them. An
   open-addressing table of arena offsets finds them: the key's hash
   picks the slot where probing starts, and a slot matches only when its
   key bytes equal the probe's. *)
module Visited = struct
  type t = {
    mutable slots : int array;  (* arena offset of a key, or -1 *)
    mutable hashes : int array;  (* the hash of each slot's key *)
    mutable arena : Bytes.t;
    mutable used : int;  (* arena bytes in use *)
    mutable count : int;  (* keys stored *)
  }

  (* Room for 2048 keys of up to 56 bytes before anything grows: a
     served 3p1v/3st cell explores 1480 states. *)
  let create () =
    {
      slots = Array.make 4096 (-1);
      hashes = Array.make 4096 0;
      arena = Bytes.create 131072;
      used = 0;
      count = 0;
    }

  let header v off = Int64.to_int (Bytes.get_int64_le v.arena off)
  let set_header v off h = Bytes.set_int64_le v.arena off (Int64.of_int h)

  (* Whether the key at arena offset [off] is [p]'s: the same length,
     then the same padded words. *)
  let holds v off (p : State.packed) =
    let arena = v.arena and key = p.State.bytes and len = p.State.len in
    header v off lsr 1 = len
    &&
    let i = ref 0 and padded = (len + 7) land lnot 7 in
    while
      !i < padded
      && (Bytes.get_int64_le arena (off + 8 + !i) : int64) = Bytes.get_int64_le key !i
    do
      i := !i + 8
    done;
    !i >= padded

  (* The slot holding [p]'s key, or the empty slot where it belongs. *)
  let rec probe v (p : State.packed) mask i =
    let off = v.slots.(i) in
    if off < 0 || (v.hashes.(i) = p.State.hash && holds v off p) then i
    else probe v p mask ((i + 1) land mask)

  (* Doubles the slot table, reinserting by the stored hashes. *)
  let grow v =
    let slots = v.slots and hashes = v.hashes in
    let size = 2 * Array.length slots in
    let mask = size - 1 in
    v.slots <- Array.make size (-1);
    v.hashes <- Array.make size 0;
    Array.iteri
      (fun i off ->
        if off >= 0 then begin
          let j = ref (hashes.(i) land mask) in
          while v.slots.(!j) >= 0 do
            j := (!j + 1) land mask
          done;
          v.slots.(!j) <- off;
          v.hashes.(!j) <- hashes.(i)
        end)
      slots

  let black = -1
  let gray = -2

  (* Looks [p]'s key up: [black] or [gray] when it is known, else the
     key is stored gray and its arena offset returned. *)
  let visit v (p : State.packed) =
    let i = probe v p (Array.length v.slots - 1) (p.State.hash land (Array.length v.slots - 1)) in
    let off = v.slots.(i) in
    if off >= 0 then if header v off land 1 = 1 then gray else black
    else begin
      let padded = (p.State.len + 7) land lnot 7 in
      let off = v.used in
      if Bytes.length v.arena < off + 8 + padded then begin
        let arena = Bytes.create (2 * (off + 8 + padded)) in
        Bytes.blit v.arena 0 arena 0 off;
        v.arena <- arena
      end;
      set_header v off ((p.State.len lsl 1) lor 1);
      Bytes.blit p.State.bytes 0 v.arena (off + 8) padded;
      v.used <- off + 8 + padded;
      v.slots.(i) <- off;
      v.hashes.(i) <- p.State.hash;
      v.count <- v.count + 1;
      if 2 * v.count > Array.length v.slots then grow v;
      off
    end

  let blacken v off = set_header v off (header v off land lnot 1)

  (* Each domain keeps an emptied table between searches, so a served
     cell's search allocates none. A search nested in another on the
     same domain makes its own, and a table grown past [kept] slots or
     an arena of [kept] words is not kept. *)
  let kept = 1 lsl 16
  let spare = Domain.DLS.new_key (fun () -> ref None)

  let take () =
    let r = Domain.DLS.get spare in
    match !r with
    | Some v ->
        r := None;
        v
    | None -> create ()

  let give_back v =
    if Array.length v.slots <= kept && Bytes.length v.arena <= 8 * kept then begin
      Array.fill v.slots 0 (Array.length v.slots) (-1);
      v.used <- 0;
      v.count <- 0;
      Domain.DLS.get spare := Some v
    end
end

(* Iterative DFS over the reachable configuration graph. A back edge to
   a gray (on-stack) state is an oscillation witness: the cycle is
   reachable and can be taken forever. With an armed adversary budget
   the graph additionally branches on Drop/Duplicate transitions, so a
   [Converges] answer decides drop/duplicate tolerance for the scope. *)
let run ?(max_states = 200_000) ?(max_drops = 0) ?(max_dups = 0)
    ?(budget = Netsim.Budget.unlimited) cfg =
  let exception Found of verdict in
  let visited = Visited.take () in
  let states = ref 0 in
  let terminals = ref 0 in
  (* [path] is the reversed transition list from the initial state *)
  let rec dfs path state =
    let entry = Visited.visit visited (State.pack state) in
    if entry = Visited.gray then
      raise (Found (Nonconvergence { trace = List.rev path; states = !states }))
    else if entry <> Visited.black then begin
      incr states;
      if !states > max_states then
        raise
          (Found
             (Unknown
                {
                  states = !states;
                  reason = Printf.sprintf "state cap %d" max_states;
                }));
      (* the budget, with its cancellation hook, is polled per expanded
         state, mirroring the solver's conflict-boundary poll *)
      (match
         Netsim.Budget.check ~steps:!states ~conflicts:0 ~propagations:0 budget
       with
      | Netsim.Budget.Expired reason ->
          raise (Found (Unknown { states = !states; reason }))
      | Netsim.Budget.Within -> ());
      (match State.enabled state with
      | [] ->
          incr terminals;
          if not (State.conflict_free state) then
            raise
              (Found (Bad_terminal { trace = List.rev path; states = !states }))
      | trs -> expand path state trs);
      Visited.blacken visited entry
    end
  and expand path state = function
    | [] -> ()
    | tr :: rest ->
        dfs (tr :: path) (State.apply cfg state tr);
        expand path state rest
  in
  let verdict =
    try
      dfs [] (State.initial ~drops:max_drops ~dups:max_dups cfg);
      Converges { states = !states; terminals = !terminals }
    with Found v -> v
  in
  Visited.give_back visited;
  verdict

let replay ?(max_drops = 0) ?(max_dups = 0) cfg trace =
  let rec go state acc = function
    | [] -> List.rev (state :: acc)
    | tr :: rest -> go (State.apply cfg state tr) (state :: acc) rest
  in
  go (State.initial ~drops:max_drops ~dups:max_dups cfg) [] trace

let faults_used trace =
  List.fold_left
    (fun (drops, dups) tr ->
      match tr with
      | State.Drop _ -> (drops + 1, dups)
      | State.Duplicate _ -> (drops, dups + 1)
      | State.Deliver _ | State.Quiesce -> (drops, dups))
    (0, 0) trace

let pp_transition ppf = function
  | State.Deliver i -> Format.fprintf ppf "deliver#%d" i
  | State.Drop i -> Format.fprintf ppf "drop#%d" i
  | State.Duplicate i -> Format.fprintf ppf "dup#%d" i
  | State.Quiesce -> Format.pp_print_string ppf "quiesce"

let pp_faults_used ppf trace =
  match faults_used trace with
  | 0, 0 -> ()
  | drops, dups ->
      Format.fprintf ppf " (adversary spent %d drop(s), %d duplication(s))"
        drops dups

let pp_verdict ppf = function
  | Converges { states; terminals } ->
      Format.fprintf ppf
        "consensus holds: every interleaving converges (%d states, %d terminal)"
        states terminals
  | Nonconvergence { trace; states } ->
      Format.fprintf ppf
        "NONCONVERGENCE: oscillation after %d steps (%d states explored)%a"
        (List.length trace) states pp_faults_used trace
  | Bad_terminal { trace; states } ->
      Format.fprintf ppf
        "CONFLICTING terminal allocation after %d steps (%d states explored)%a"
        (List.length trace) states pp_faults_used trace
  | Unknown { states; reason } ->
      Format.fprintf ppf "unknown: budget exhausted (%s, %d states explored)"
        reason states
