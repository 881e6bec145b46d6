type verdict =
  | Converges of { states : int; terminals : int }
  | Nonconvergence of { trace : State.transition list; states : int }
  | Bad_terminal of { trace : State.transition list; states : int }
  | Unknown of { states : int; reason : string }

module Visited = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* A visited state's DFS colour: gray while on the stack, then black.
   Mutable, so a new state costs one lookup and one insert. *)
type node = { mutable gray : bool }

(* Iterative DFS over the reachable configuration graph. A back edge to
   a gray (on-stack) state is an oscillation witness: the cycle is
   reachable and can be taken forever. With an armed adversary budget
   the graph additionally branches on Drop/Duplicate transitions, so a
   [Converges] answer decides drop/duplicate tolerance for the scope. *)
let run ?(max_states = 200_000) ?(max_drops = 0) ?(max_dups = 0)
    ?(budget = Netsim.Budget.unlimited) ?(stop = fun () -> false) cfg =
  let exception Found of verdict in
  let visited : node Visited.t = Visited.create 4096 in
  let states = ref 0 in
  let terminals = ref 0 in
  (* [path] is the reversed transition list from the initial state *)
  let rec dfs path state =
    let key = State.canonical_key state in
    match Visited.find_opt visited key with
    | Some { gray = true } ->
        raise (Found (Nonconvergence { trace = List.rev path; states = !states }))
    | Some { gray = false } -> ()
    | None ->
        incr states;
        if !states > max_states then
          raise
            (Found
               (Unknown
                  {
                    states = !states;
                    reason = Printf.sprintf "state cap %d" max_states;
                  }));
        (* the budget and the cancellation hook are both polled per
           expanded state, mirroring the solver's conflict-boundary poll *)
        let status =
          if stop () then Netsim.Budget.Expired "cancelled"
          else Netsim.Budget.check ~steps:!states ~conflicts:0 ~propagations:0 budget
        in
        (match status with
        | Netsim.Budget.Expired reason ->
            raise (Found (Unknown { states = !states; reason }))
        | Netsim.Budget.Within -> ());
        let node = { gray = true } in
        Visited.add visited key node;
        (match State.enabled state with
        | [] ->
            incr terminals;
            if not (State.conflict_free state) then
              raise
                (Found (Bad_terminal { trace = List.rev path; states = !states }))
        | trs ->
            List.iter
              (fun tr -> dfs (tr :: path) (State.apply cfg state tr))
              trs);
        node.gray <- false
  in
  try
    dfs [] (State.initial ~drops:max_drops ~dups:max_dups cfg);
    Converges { states = !states; terminals = !terminals }
  with Found v -> v

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
