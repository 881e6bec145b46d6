open Types

type t = {
  agent_id : agent_id;
  num_items : int;
  base_utility : int array;
  policy : Policy.t;
  view : entry array;
  mutable bundle : item_id list; (* order of addition *)
  mutable lost : bool array; (* never written in place: clones share it *)
  mutable clock : int;
}

let create ~id ~num_items ~base_utility ~policy =
  if Array.length base_utility <> num_items then
    invalid_arg "Agent.create: base_utility length mismatch";
  {
    agent_id = id;
    num_items;
    base_utility;
    policy;
    view = Array.make num_items no_entry;
    bundle = [];
    lost = Array.make num_items false;
    clock = 0;
  }

let id t = t.agent_id
let view t = t.view
let snapshot t = copy_view t.view
let bundle t = t.bundle

let has_lost t j = t.lost.(j)

let lost_items t =
  List.filter (fun j -> t.lost.(j)) (List.init t.num_items Fun.id)

let clock t = t.clock

(* Would this agent's bid [u] beat the current entry for the item?
   Ties break toward the smaller agent id, deterministically. *)
let beats t u entry =
  u > 0
  &&
  match entry.winner with
  | Nobody -> true
  | Agent w -> u > entry.bid || (u = entry.bid && t.agent_id < w)

(* The item of the next bid of the bidding mechanism, its bid left in
   [bid], or -1 when the bundle is full or no candidate remains.
   Candidate items: not already held and — for honest agents — the
   marginal utility must beat the highest bid known for the item. That
   beat-check IS Remark 1: while someone's higher bid stands, the agent
   cannot bid again on the item. A rebidding attacker drops the check
   and resurrects its claim regardless. *)
let next_bid t bid =
  if List.length t.bundle >= t.policy.Policy.target_items then -1
  else begin
    let best = ref (-1) in
    for j = 0 to t.num_items - 1 do
      let held = List.mem j t.bundle in
      if not held then begin
        let u =
          Policy.marginal t.policy ~item:j ~base:t.base_utility.(j)
            ~bundle:t.bundle
        in
        if
          (if t.policy.Policy.rebid_lost then u > 0
           else beats t u t.view.(j))
          && (!best < 0 || u > !bid)
        then begin
          best := j;
          bid := u
        end
      end
    done;
    !best
  end

let would_bid t = next_bid t (ref 0) >= 0

let bid_phase t =
  let changed = ref false in
  let bid = ref 0 in
  let j = ref (next_bid t bid) in
  while !j >= 0 do
    t.clock <- t.clock + 1;
    t.view.(!j) <- { winner = Agent t.agent_id; bid = !bid; time = t.clock };
    t.bundle <- t.bundle @ [ !j ];
    changed := true;
    j := next_bid t bid
  done;
  !changed

(* Conflict-resolution outcome for one item. *)
type action = Update | Leave | Reset

(* CBBA-style decision table. [s] is the sender's entry, [r] the
   receiver's, [k] the sender id, [i] the receiver id. *)
let resolve ~k ~i (s : entry) (r : entry) : action =
  let newer = s.time > r.time in
  let stronger =
    s.bid > r.bid
    ||
    (s.bid = r.bid
    &&
    match (s.winner, r.winner) with
    | Agent ws, Agent wr -> ws < wr
    | _ -> false)
  in
  (* Timestamps are local clocks, so they are only comparable along one
     authority chain: both entries describing the SAME winner (the chain
     rooted at that winner's clock), or a winner versus its own reset.
     Across different claimed winners only bid strength (value, then
     smaller id) decides — otherwise a stale weak bid with a large
     foreign clock ping-pongs against a standing stronger bid forever. *)
  match (s.winner, r.winner) with
  | Nobody, Nobody -> Leave
  | Nobody, Agent wr ->
      if wr = i then Leave (* receiver trusts its own live bid *)
      else if wr = k then Update (* sender is authoritative about itself *)
      else if newer then Update (* a propagated release of wr's bid *)
      else Leave
  | Agent ws, Nobody -> if ws = i then Leave else Update
  | Agent ws, Agent wr ->
      if ws = k then begin
        (* sender claims to win *)
        if wr = k then if newer then Update else Leave
        else if stronger then Update
        else Leave
      end
      else if ws = i then begin
        (* sender thinks the receiver wins; the receiver knows better.
           Only the mutual confusion (receiver thinks the sender wins)
           needs a reset — anything else resolves by ordinary gossip. *)
        if wr = k then Reset
        else Leave
      end
      else begin
        (* sender reports a third party *)
        if wr = k then Update (* receiver's info about sender is stale *)
        else if wr = ws then if newer then Update else Leave
        else if stronger then Update
        else Leave
      end

(* Drop [j] from the bundle; with release_outbid also drop everything
   added after it, resetting entries the agent itself holds. Released
   items are rebiddable (Remark 2); the outbid item is marked lost. *)
let handle_outbid t j =
  let rec split acc = function
    | [] -> (List.rev acc, [])
    | x :: rest when x = j -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
  in
  let before, after = split [] t.bundle in
  (* only a genuine overbid by another agent counts as "lost" (Remark 1);
     a reset (winner back to Nobody) leaves the item rebiddable *)
  (match t.view.(j).winner with
  | Agent w when w <> t.agent_id && not t.lost.(j) ->
      let lost = Array.copy t.lost in
      lost.(j) <- true;
      t.lost <- lost
  | Agent _ | Nobody -> ());
  if t.policy.Policy.release_outbid then begin
    t.bundle <- before;
    List.iter
      (fun j' ->
        match t.view.(j').winner with
        | Agent w when w = t.agent_id ->
            t.clock <- t.clock + 1;
            t.view.(j') <- { no_entry with time = t.clock }
        | _ -> ())
      after
  end
  else t.bundle <- before @ after

(* The first item of [bundle] the agent no longer wins, or -1. *)
let rec first_outbid t = function
  | [] -> -1
  | j :: rest -> (
      match t.view.(j).winner with
      | Agent w when w = t.agent_id -> first_outbid t rest
      | Agent _ | Nobody -> j)

let receive t (msg : message) =
  if Array.length msg.view <> t.num_items then
    invalid_arg "Agent.receive: view length mismatch";
  t.clock <- max t.clock (Array.fold_left (fun a e -> max a e.time) 0 msg.view);
  let changed = ref false in
  for j = 0 to t.num_items - 1 do
    let s = msg.view.(j) and r = t.view.(j) in
    match resolve ~k:msg.sender ~i:t.agent_id s r with
    | Leave -> ()
    | Update ->
        if not (entry_equal s r) then begin
          t.view.(j) <- s;
          changed := true
        end
    | Reset ->
        if not (entry_equal no_entry r) then begin
          t.clock <- t.clock + 1;
          t.view.(j) <- { no_entry with time = t.clock };
          changed := true
        end
  done;
  (* outbid detection: drop every bundle item we no longer win,
     earliest-added first (release_outbid may drop later ones with it) *)
  let j = ref (first_outbid t t.bundle) in
  while !j >= 0 do
    handle_outbid t !j;
    changed := true;
    j := first_outbid t t.bundle
  done;
  !changed

let pp ppf t =
  Format.fprintf ppf "agent %d: view=%a bundle=[%a] lost=[%a]" t.agent_id
    pp_view t.view
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    t.bundle
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (lost_items t)

let clone t = { t with view = Array.copy t.view }
