(* Tests for the explicit-state bounded model checker: state transitions,
   canonicalization, exhaustive verdicts on the paper's policy matrix and
   trace replay. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contended policy =
  Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
    ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |] |]
    ~policy

let test_initial_state () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let s = Checker.State.initial cfg in
  check_int "two agents" 2 (Array.length s.Checker.State.agents);
  (* both agents broadcast their initial row to their only neighbor *)
  check_int "two initial messages" 2 (List.length s.Checker.State.buffer);
  check "not yet terminal" false (Checker.State.is_terminal cfg s)

(* The checker's original string key, verbatim: every field printed in
   decimal, timestamps replaced by their rank, pending messages printed
   and sorted as strings. Slow but plainly exact, it is the oracle the
   packed [State.canonical_key] is checked against. *)
let reference_key (s : Checker.State.t) =
  let open Checker.State in
  let times = Hashtbl.create 64 in
  let note t = Hashtbl.replace times t () in
  Array.iter
    (fun a ->
      note (Mca.Agent.clock a);
      Array.iter (fun (e : Mca.Types.entry) -> note e.Mca.Types.time) (Mca.Agent.view a))
    s.agents;
  List.iter
    (fun m -> Array.iter (fun (e : Mca.Types.entry) -> note e.Mca.Types.time) m.view)
    s.buffer;
  let sorted = List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) times []) in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i t -> Hashtbl.replace rank t i) sorted;
  let r t = Hashtbl.find rank t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (string_of_int s.drops_left);
  Buffer.add_char buf '/';
  Buffer.add_string buf (string_of_int s.dups_left);
  Buffer.add_char buf '!';
  let add_view view =
    Array.iter
      (fun (e : Mca.Types.entry) ->
        (match e.Mca.Types.winner with
        | Mca.Types.Nobody -> Buffer.add_char buf '-'
        | Mca.Types.Agent i -> Buffer.add_string buf (string_of_int i));
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int e.Mca.Types.bid);
        Buffer.add_char buf '@';
        Buffer.add_string buf (string_of_int (r e.Mca.Types.time));
        Buffer.add_char buf ' ')
      view
  in
  Array.iter
    (fun a ->
      add_view (Mca.Agent.view a);
      Buffer.add_char buf '|';
      List.iter
        (fun j ->
          Buffer.add_string buf (string_of_int j);
          Buffer.add_char buf ',')
        (Mca.Agent.bundle a);
      Buffer.add_char buf '|';
      List.iter
        (fun j ->
          Buffer.add_string buf (string_of_int j);
          Buffer.add_char buf ',')
        (Mca.Agent.lost_items a);
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int (r (Mca.Agent.clock a)));
      Buffer.add_char buf ';')
    s.agents;
  (* buffer as a sorted multiset *)
  let pend_strs =
    List.map
      (fun m ->
        let b = Buffer.create 64 in
        Buffer.add_string b (string_of_int m.src);
        Buffer.add_char b '>';
        Buffer.add_string b (string_of_int m.dst);
        Buffer.add_char b '=';
        Array.iter
          (fun (e : Mca.Types.entry) ->
            (match e.Mca.Types.winner with
            | Mca.Types.Nobody -> Buffer.add_char b '-'
            | Mca.Types.Agent i -> Buffer.add_string b (string_of_int i));
            Buffer.add_char b ':';
            Buffer.add_string b (string_of_int e.Mca.Types.bid);
            Buffer.add_char b '@';
            Buffer.add_string b (string_of_int (r e.Mca.Types.time));
            Buffer.add_char b ' ')
          m.view;
        Buffer.contents b)
      s.buffer
  in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '#')
    (List.sort compare pend_strs);
  Buffer.contents buf

(* The packed key as it was built before it moved into per-domain
   scratch, frozen verbatim: a fresh array of times, a fresh byte string
   written field by field, buffer records sorted by swapping bytes.
   [State.canonical_key] must return exactly these bytes. *)
module Frozen = struct
  open Checker.State

  let sort_prefix (a : int array) len =
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

  let dedup_prefix (a : int array) len =
    if len = 0 then 0
    else begin
      let k = ref 1 in
      for i = 1 to len - 1 do
        if a.(i) <> a.(!k - 1) then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      !k
    end

  let rank (a : int array) k t =
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo

  let swap_if_after b a size =
    let i = ref 0 in
    while !i < size && Bytes.get b (a + !i) = Bytes.get b (a + size + !i) do
      incr i
    done;
    !i < size
    && Bytes.get b (a + !i) > Bytes.get b (a + size + !i)
    && begin
         for j = !i to size - 1 do
           let c = Bytes.get b (a + j) in
           Bytes.set b (a + j) (Bytes.get b (a + size + j));
           Bytes.set b (a + size + j) c
         done;
         true
       end

  let sort_records b start size count =
    for i = 1 to count - 1 do
      let j = ref (i - 1) in
      while !j >= 0 && swap_if_after b (start + (!j * size)) size do
        decr j
      done
    done

  let winner_code = function Mca.Types.Nobody -> 0 | Mca.Types.Agent i -> i + 1

  let note_times times nt (view : Mca.Types.view) =
    for j = 0 to Array.length view - 1 do
      times.(nt + j) <- view.(j).Mca.Types.time
    done;
    nt + Array.length view

  let view_bits bits (view : Mca.Types.view) =
    Array.fold_left
      (fun bits (e : Mca.Types.entry) ->
        bits lor winner_code e.Mca.Types.winner lor e.Mca.Types.bid)
      bits view

  let put b w pos v =
    (match w with
    | 1 -> Bytes.set_uint8 b pos v
    | 2 -> Bytes.set_uint16_le b pos v
    | _ -> Bytes.set_int64_le b pos (Int64.of_int v));
    pos + w

  let put_view b w times k pos (view : Mca.Types.view) =
    let pos = ref pos in
    for j = 0 to Array.length view - 1 do
      let e = view.(j) in
      pos := put b w !pos (winner_code e.Mca.Types.winner);
      pos := put b w !pos e.Mca.Types.bid;
      pos := put b w !pos (rank times k e.Mca.Types.time)
    done;
    !pos

  let key s =
    let agents = s.agents in
    let n = Array.length agents in
    let items = if n = 0 then 0 else Array.length (Mca.Agent.view agents.(0)) in
    let pending = List.length s.buffer in
    let times = Array.make ((n * (items + 1)) + (pending * items)) 0 in
    let nt = ref 0 and bundled = ref 0 in
    let bits = ref (n lor items lor s.drops_left lor s.dups_left) in
    for i = 0 to n - 1 do
      let a = agents.(i) in
      let view = Mca.Agent.view a and bundle = Mca.Agent.bundle a in
      nt := note_times times !nt view;
      times.(!nt) <- Mca.Agent.clock a;
      incr nt;
      let len = List.length bundle in
      bundled := !bundled + len;
      bits := List.fold_left ( lor ) (view_bits (!bits lor len) view) bundle
    done;
    let nt = List.fold_left (fun nt m -> note_times times nt m.view) !nt s.buffer in
    let bits =
      List.fold_left
        (fun bits m -> view_bits (bits lor m.src lor m.dst) m.view)
        !bits s.buffer
    in
    sort_prefix times nt;
    let k = dedup_prefix times nt in
    let bits = bits lor k in
    let w =
      if bits < 0 then 8 else if bits < 0x100 then 1 else if bits < 0x10000 then 2 else 8
    in
    let record = 2 + (3 * items) in
    let fields = 4 + (n * ((4 * items) + 2)) + !bundled + (pending * record) in
    let b = Bytes.create (1 + (fields * w)) in
    Bytes.set_uint8 b 0 w;
    let pos = ref (put b w (put b w (put b w (put b w 1 n) items) s.drops_left) s.dups_left) in
    for i = 0 to n - 1 do
      let a = agents.(i) in
      pos := put_view b w times k !pos (Mca.Agent.view a);
      let bundle = Mca.Agent.bundle a in
      pos := put b w !pos (List.length bundle);
      pos := List.fold_left (put b w) !pos bundle;
      for j = 0 to items - 1 do
        pos := put b w !pos (Bool.to_int (Mca.Agent.has_lost a j))
      done;
      pos := put b w !pos (rank times k (Mca.Agent.clock a))
    done;
    let start = !pos in
    ignore
      (List.fold_left
         (fun pos m -> put_view b w times k (put b w (put b w pos m.src) m.dst) m.view)
         start s.buffer);
    sort_records b start (record * w) pending;
    Bytes.unsafe_to_string b
end

let test_enabled_and_apply () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let s = Checker.State.initial ~drops:1 ~dups:1 cfg in
  (match Checker.State.enabled { s with Checker.State.drops_left = 0; dups_left = 0 } with
  | [ Checker.State.Deliver 0; Checker.State.Deliver 1 ] -> ()
  | _ -> Alcotest.fail "expected two deliveries");
  let key = Checker.State.canonical_key s in
  let unchanged what parent key =
    check (what ^ " leaves its input's key unchanged") true
      (Checker.State.canonical_key parent = key)
  in
  let s1 = Checker.State.apply cfg s (Checker.State.Deliver 0) in
  (* the input state is not mutated *)
  check_int "original buffer intact" 2 (List.length s.Checker.State.buffer);
  check "delivery consumed" true
    (List.length s1.Checker.State.buffer <= 1 + List.length s.Checker.State.buffer);
  unchanged "deliver" s key;
  ignore (Checker.State.apply cfg s (Checker.State.Drop 1));
  unchanged "drop" s key;
  ignore (Checker.State.apply cfg s (Checker.State.Duplicate 0));
  unchanged "duplicate" s key;
  (* an empty buffer whose agents still disagree: quiesce rebroadcasts *)
  let quiet = { s with Checker.State.buffer = [] } in
  let quiet_key = Checker.State.canonical_key quiet in
  check "quiesce enabled" true (Checker.State.enabled quiet = [ Checker.State.Quiesce ]);
  ignore (Checker.State.apply cfg quiet Checker.State.Quiesce);
  unchanged "anti-entropy quiesce" quiet quiet_key;
  (* agents that have not bid yet: quiesce makes them bid *)
  let fresh =
    { quiet with
      Checker.State.agents =
        Array.init 2 (fun i ->
            Mca.Agent.create ~id:i ~num_items:2
              ~base_utility:cfg.Mca.Protocol.base_utilities.(i)
              ~policy:cfg.Mca.Protocol.policies.(i)) }
  in
  let fresh_key = Checker.State.canonical_key fresh in
  let bid = Checker.State.apply cfg fresh Checker.State.Quiesce in
  check "the successor's agents bid" true
    (Array.for_all (fun a -> Mca.Agent.bundle a <> []) bid.Checker.State.agents);
  unchanged "bidding quiesce" fresh fresh_key

let test_canonical_key_time_rank () =
  (* two states differing only by a uniform time shift canonicalize
     identically: build the same configuration twice, once after extra
     clock churn *)
  let mk extra_churn =
    let a =
      Mca.Agent.create ~id:0 ~num_items:1 ~base_utility:[| 5 |]
        ~policy:(Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ())
    in
    (* churn the clock by receiving a high-timestamp no-op message *)
    if extra_churn then
      ignore
        (Mca.Agent.receive a
           { Mca.Types.sender = 1;
             view = [| { Mca.Types.winner = Mca.Types.Nobody; bid = 0; time = 50 } |] });
    ignore (Mca.Agent.bid_phase a);
    { Checker.State.agents = [| a |]; buffer = []; drops_left = 0; dups_left = 0 }
  in
  check "time ranks equalize shifted clocks" true
    (Checker.State.canonical_key (mk false) = Checker.State.canonical_key (mk true))

let test_canonical_key_buffer_order_insensitive () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let s = Checker.State.initial cfg in
  let flipped = { s with Checker.State.buffer = List.rev s.Checker.State.buffer } in
  check "buffer is a multiset" true
    (Checker.State.canonical_key s = Checker.State.canonical_key flipped)

let test_explore_policy_matrix () =
  let expected = [ true; true; true; false; false; false ] in
  List.iter2
    (fun (name, p) conv ->
      let cfg = contended p in
      match (Checker.Explore.run cfg, conv) with
      | Checker.Explore.Converges _, true -> ()
      | Checker.Explore.Nonconvergence _, false -> ()
      | v, _ ->
          Alcotest.failf "%s: unexpected verdict %a" name
            Checker.Explore.pp_verdict v)
    Mca.Policy.paper_grid expected

let test_explore_three_agents () =
  let cfg =
    Mca.Protocol.uniform_config ~graph:(Netsim.Topology.line 3) ~num_items:2
      ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |]; [| 9; 9 |] |]
      ~policy:(Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ())
  in
  match Checker.Explore.run cfg with
  | Checker.Explore.Converges { states; terminals } ->
      check "explored some states" true (states > 1);
      check "at least one terminal" true (terminals >= 1)
  | v -> Alcotest.failf "line-3 submodular converges: %a" Checker.Explore.pp_verdict v

let test_explore_budget () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  match Checker.Explore.run ~max_states:1 cfg with
  | Checker.Explore.Unknown { states; _ } ->
      check "budget respected" true (states >= 1)
  | v -> Alcotest.failf "tiny budget must exhaust: %a" Checker.Explore.pp_verdict v

let test_replay_produces_witness () =
  let p = List.assoc "nonsubmod+release" Mca.Policy.paper_grid in
  let cfg = contended p in
  match Checker.Explore.run cfg with
  | Checker.Explore.Nonconvergence { trace; _ } ->
      let states = Checker.Explore.replay cfg trace in
      check_int "replay length" (List.length trace + 1) (List.length states);
      (* the witness revisits a canonical state: the last state's key
         appears earlier in the replay *)
      let keys = List.map Checker.State.canonical_key states in
      let rec last = function [ x ] -> x | _ :: r -> last r | [] -> assert false in
      let final = last keys in
      let earlier = List.filteri (fun i _ -> i < List.length keys - 1) keys in
      check "lasso closes" true (List.mem final earlier)
  | v -> Alcotest.failf "expected nonconvergence: %a" Checker.Explore.pp_verdict v

let test_replay_states_consistent () =
  (* the Figure-2 nonconvergence witness, step by step: every transition
     in the trace must be enabled in its predecessor state, replaying it
     must give exactly the next state of [replay], and the final state
     must revisit an earlier canonical configuration *)
  let p = List.assoc "nonsubmod+release" Mca.Policy.paper_grid in
  let cfg = contended p in
  match Checker.Explore.run cfg with
  | Checker.Explore.Nonconvergence { trace; _ } ->
      let states = Checker.Explore.replay cfg trace in
      check_int "one state per step plus initial" (List.length trace + 1)
        (List.length states);
      let states_prefix =
        List.filteri (fun i _ -> i < List.length states - 1) states
      in
      let rec walk i states trace =
        match (states, trace) with
        | s :: (s' :: _ as rest), t :: ts ->
            check
              (Printf.sprintf "step %d transition enabled" i)
              true
              (List.mem t (Checker.State.enabled s));
            check
              (Printf.sprintf "step %d state matches apply" i)
              true
              (Checker.State.canonical_key (Checker.State.apply cfg s t)
              = Checker.State.canonical_key s');
            check
              (Printf.sprintf "step %d not terminal mid-trace" i)
              false
              (Checker.State.is_terminal cfg s);
            walk (i + 1) rest ts
        | [ final ], [] ->
            let keys = List.map Checker.State.canonical_key states_prefix in
            check "final state revisits an earlier configuration" true
              (List.mem (Checker.State.canonical_key final) keys)
        | _ -> Alcotest.fail "replay and trace lengths disagree"
      in
      walk 0 states trace
  | v -> Alcotest.failf "expected nonconvergence: %a" Checker.Explore.pp_verdict v

let test_terminal_states_conflict_free () =
  (* walk a converging exploration manually and validate terminals *)
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ()) in
  let rec walk s depth =
    if depth > 30 then Alcotest.fail "no terminal reached"
    else
      match Checker.State.enabled s with
      | [] ->
          check "terminal consensus" true (Checker.State.consensus s);
          check "terminal conflict-free" true (Checker.State.conflict_free s)
      | tr :: _ -> walk (Checker.State.apply cfg s tr) (depth + 1)
  in
  walk (Checker.State.initial cfg) 0

let qcheck_explicit_matches_simulation =
  QCheck.Test.make ~count:15
    ~name:"explicit checker agrees with sync simulation on contended 2x2"
    QCheck.(pair (int_range 1 100_000) (bool))
    (fun (seed, release) ->
      let rng = Netsim.Rng.create seed in
      let u1 = 5 + Netsim.Rng.int rng 10 and u2 = 5 + Netsim.Rng.int rng 10 in
      let policy =
        Mca.Policy.make ~utility:(Mca.Policy.Submodular (Netsim.Rng.int rng 3))
          ~release_outbid:release ~target_items:2 ()
      in
      let cfg =
        Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
          ~base_utilities:[| [| u1; u2 |]; [| u2; u1 |] |]
          ~policy
      in
      (* sub-modular: both must converge *)
      let explicit =
        match Checker.Explore.run cfg with
        | Checker.Explore.Converges _ -> true
        | _ -> false
      in
      let sim =
        match Mca.Protocol.run_sync ~max_rounds:200 cfg with
        | Mca.Protocol.Converged _ -> true
        | _ -> false
      in
      explicit && sim)

(* ---- bounded message adversary ---- *)

let test_adversary_enabled_transitions () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let s = Checker.State.initial ~drops:1 ~dups:1 cfg in
  let trs = Checker.State.enabled s in
  check "drop enabled" true (List.mem (Checker.State.Drop 0) trs);
  check "duplicate enabled" true (List.mem (Checker.State.Duplicate 0) trs);
  let dropped = Checker.State.apply cfg s (Checker.State.Drop 0) in
  check_int "drop consumes message" 1 (List.length dropped.Checker.State.buffer);
  check_int "drop spends budget" 0 dropped.Checker.State.drops_left;
  let duped = Checker.State.apply cfg s (Checker.State.Duplicate 1) in
  check_int "duplicate adds a copy" 3 (List.length duped.Checker.State.buffer);
  check_int "duplicate spends budget" 0 duped.Checker.State.dups_left;
  (* spent budgets: the transitions disappear and forcing them raises *)
  check "no drop when spent" false
    (List.exists (function Checker.State.Drop _ -> true | _ -> false)
       (Checker.State.enabled dropped));
  Alcotest.check_raises "apply past budget raises"
    (Invalid_argument "State.apply: drop budget spent") (fun () ->
      ignore (Checker.State.apply cfg dropped (Checker.State.Drop 0)))

let test_adversary_budget_in_canonical_key () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let s0 = Checker.State.initial cfg in
  let s1 = Checker.State.initial ~drops:1 cfg in
  check "budget distinguishes states" false
    (Checker.State.canonical_key s0 = Checker.State.canonical_key s1)

let test_adversary_decides_2x2 () =
  (* sub-modular 2x2 survives any 2 drops + 1 duplication: the verdict
     is a decision over every adversarial schedule, not a sample *)
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ()) in
  let plain =
    match Checker.Explore.run cfg with
    | Checker.Explore.Converges { states; _ } -> states
    | v -> Alcotest.failf "plain: %a" Checker.Explore.pp_verdict v
  in
  match Checker.Explore.run ~max_drops:2 ~max_dups:1 cfg with
  | Checker.Explore.Converges { states; _ } ->
      check "adversary strictly enlarges the state space" true (states > plain)
  | v -> Alcotest.failf "adversarial: %a" Checker.Explore.pp_verdict v

let test_adversary_replay () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ()) in
  let trace = [ Checker.State.Drop 0; Checker.State.Duplicate 0 ] in
  let states = Checker.Explore.replay ~max_drops:1 ~max_dups:1 cfg trace in
  check_int "replay length" 3 (List.length states);
  check "faults_used counts the spend" true
    (Checker.Explore.faults_used trace = (1, 1))

let test_unknown_reason_deadline () =
  let cfg = contended (Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ()) in
  let budget = Netsim.Budget.create ~wall_s:0.0 () in
  match Checker.Explore.run ~budget cfg with
  | Checker.Explore.Unknown { reason; _ } ->
      check "reason names the deadline" true
        (String.length reason > 0
        && String.sub reason 0 8 = "deadline")
  | v -> Alcotest.failf "zero deadline must exhaust: %a" Checker.Explore.pp_verdict v

(* ---- packed key: exactness, exploration identity, copy-on-write ---- *)

(* The 3p1v/3st cell the service builds for a check request. *)
let cell ~seed name =
  let p = List.assoc name Mca.Policy.paper_grid in
  Core.Experiments.cell_config ~seed ~policy_label:name ~scope_tag:"3p1v/3st" p
    { Core.Mca_model.pnodes = 3; vnodes = 1; states = 3; values = 6; bitwidth = 4 }

let explored_policies = [ "submod"; "submod+release"; "nonsubmod"; "nonsubmod+release" ]

(* The budget is polled once per explored state, its hook first: a
   hook that fires on its k-th poll stops the search at state k. *)
let test_explore_cancelled () =
  let cfg = cell ~seed:1 "submod" in
  List.iter
    (fun k ->
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls >= k
      in
      match Checker.Explore.run ~budget:(Netsim.Budget.create ~stop ()) cfg with
      | Checker.Explore.Unknown { reason; states } ->
          Alcotest.(check string) "reason" "cancelled" reason;
          check_int (Printf.sprintf "cancelled at poll %d" k) k states
      | v -> Alcotest.failf "k = %d: %a" k Checker.Explore.pp_verdict v)
    [ 1; 17; 1_000 ]

let line3 policy =
  Mca.Protocol.uniform_config ~graph:(Netsim.Topology.line 3) ~num_items:2
    ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |]; [| 9; 9 |] |]
    ~policy

(* Depth-first walk over the states reachable from [cfg], each expanded
   once (at most [cap]); [visit] sees every generated state, repeats
   included. *)
let walk ?(drops = 0) ?(dups = 0) ?(cap = 5_000) cfg visit =
  let expanded = Hashtbl.create 1024 in
  let rec go s =
    visit s;
    let key = Checker.State.canonical_key s in
    if Hashtbl.length expanded < cap && not (Hashtbl.mem expanded key) then begin
      Hashtbl.add expanded key ();
      List.iter
        (fun tr -> go (Checker.State.apply cfg s tr))
        (Checker.State.enabled s)
    end
  in
  go (Checker.State.initial ~drops ~dups cfg)

(* Packed and reference keys induce the same equality on every state of
   a run: each key determines the other. *)
let keys_agree ?drops ?dups label cfg =
  let ref_of_packed = Hashtbl.create 1024 and packed_of_ref = Hashtbl.create 1024 in
  let generated = ref 0 in
  let bind tbl k v what =
    match Hashtbl.find_opt tbl k with
    | None -> Hashtbl.add tbl k v
    | Some v' -> if v' <> v then Alcotest.failf "%s: the packed key %s" label what
  in
  walk ?drops ?dups cfg (fun s ->
      incr generated;
      let packed = Checker.State.canonical_key s and reference = reference_key s in
      bind ref_of_packed packed reference "merges two distinct states";
      bind packed_of_ref reference packed "splits one state");
  (* revisits happened, so equal keys were actually compared *)
  check (label ^ ": states revisited") true (!generated > Hashtbl.length packed_of_ref)

let test_key_equivalence () =
  List.iter
    (fun (name, p) ->
      keys_agree ("2p2v " ^ name) (contended p);
      keys_agree ~drops:2 ~dups:1 ("2p2v adversary " ^ name) (contended p);
      keys_agree ("line-3 " ^ name) (line3 p))
    Mca.Policy.paper_grid;
  List.iter
    (fun seed ->
      List.iter
        (fun name -> keys_agree (Printf.sprintf "3p1v/3st seed %d %s" seed name) (cell ~seed name))
        explored_policies)
    (List.init 10 succ);
  keys_agree ~drops:2 ~dups:1 "3p1v/3st adversary" (cell ~seed:1 "submod")

(* [State.canonical_key] returns the frozen key's bytes on every state
   generated from [cfg]; returns how many states were compared. *)
let bytes_agree ?drops ?dups ?cap label cfg =
  let compared = ref 0 in
  walk ?drops ?dups ?cap cfg (fun s ->
      incr compared;
      let key = Checker.State.canonical_key s and frozen = Frozen.key s in
      if key <> frozen then
        Alcotest.failf "%s: %S is not the frozen key %S" label key frozen);
  !compared

(* The same states as the key-equivalence test, then four 3p2v cells
   (two items, 8-byte records), states whose bids need two-byte and
   eight-byte fields, and states whose times spread over many values. *)
let test_key_bytes_frozen () =
  List.iter
    (fun (name, p) ->
      ignore (bytes_agree ("2p2v " ^ name) (contended p));
      ignore (bytes_agree ~drops:2 ~dups:1 ("2p2v adversary " ^ name) (contended p));
      ignore (bytes_agree ("line-3 " ^ name) (line3 p)))
    Mca.Policy.paper_grid;
  List.iter
    (fun seed ->
      List.iter
        (fun name ->
          ignore (bytes_agree (Printf.sprintf "3p1v/3st seed %d %s" seed name) (cell ~seed name)))
        explored_policies)
    (List.init 10 succ);
  ignore (bytes_agree ~drops:2 ~dups:1 "3p1v/3st adversary" (cell ~seed:1 "submod"));
  let p3v2 name =
    Core.Experiments.cell_config ~seed:1 ~policy_label:name ~scope_tag:"3p2v/3st"
      (List.assoc name Mca.Policy.paper_grid)
      { Core.Mca_model.pnodes = 3; vnodes = 2; states = 3; values = 6; bitwidth = 4 }
  in
  List.iter
    (fun name ->
      let compared = bytes_agree ~cap:2_000 ("3p2v/3st " ^ name) (p3v2 name) in
      check (name ^ ": 3p2v states compared") true (compared > 2_000))
    explored_policies;
  List.iter
    (fun (base, width) ->
      let cfg =
        Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
          ~base_utilities:[| [| base; base + 1 |]; [| base + 1; base |] |]
          ~policy:(Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ())
      in
      let s = Checker.State.initial cfg in
      check_int (Printf.sprintf "bids near %d: field width" base) width
        (Char.code (Checker.State.canonical_key s).[0]);
      ignore (bytes_agree ~drops:1 (Printf.sprintf "bids near %d" base) cfg))
    [ (300, 2); (70_000, 8) ];
  (* times spread over a few dozen values, and over thousands: agent 0's
     clock is pushed ahead by a message from the future *)
  let cfg = contended (List.assoc "submod" Mca.Policy.paper_grid) in
  List.iter
    (fun ahead ->
      let s0 = Checker.State.initial cfg in
      let a = Mca.Agent.clone s0.Checker.State.agents.(0) in
      ignore
        (Mca.Agent.receive a
           { Mca.Types.sender = 1;
             view = Array.make 2 { Mca.Types.winner = Mca.Types.Nobody; bid = 0; time = ahead } });
      let agents = Array.copy s0.Checker.State.agents in
      agents.(0) <- a;
      let seen = Hashtbl.create 256 in
      let rec go s =
        let key = Checker.State.canonical_key s in
        if key <> Frozen.key s then
          Alcotest.failf "clock %d ahead: %S is not the frozen key" ahead key;
        if Hashtbl.length seen < 500 && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          List.iter (fun tr -> go (Checker.State.apply cfg s tr)) (Checker.State.enabled s)
        end
      in
      go { s0 with Checker.State.agents })
    [ 40; 5_000 ]

(* Allocation per explored state on the four 3p1v/3st seed-1 cells: the
   key is built in per-domain scratch, the visited table stores keys in
   a byte arena, transition lists are shared, and a successor copies
   only what its transition changes. The key built afresh for every
   successor, with a string-keyed table, took about 600 minor words per
   state; this takes about 170. *)
let test_explore_allocation () =
  List.iter
    (fun name ->
      let cfg = cell ~seed:1 name in
      let w0 = Gc.minor_words () in
      let v = Checker.Explore.run cfg in
      let words = Gc.minor_words () -. w0 in
      match v with
      | Checker.Explore.Converges { states; _ } ->
          let per_state = words /. float_of_int states in
          if per_state >= 300.0 then
            Alcotest.failf "%s: %.0f minor words per explored state (gate 300)"
              name per_state
      | v -> Alcotest.failf "%s: %a" name Checker.Explore.pp_verdict v)
    explored_policies

(* One line per verdict: counts, and the witness as pp_transition
   renders it. *)
let summary v =
  let steps t =
    String.concat " " (List.map (Format.asprintf "%a" Checker.Explore.pp_transition) t)
  in
  match v with
  | Checker.Explore.Converges { states; terminals } ->
      Printf.sprintf "converges %d/%d" states terminals
  | Checker.Explore.Nonconvergence { trace; states } ->
      Printf.sprintf "nonconvergence %d: %s" states (steps trace)
  | Checker.Explore.Bad_terminal { trace; states } ->
      Printf.sprintf "bad terminal %d: %s" states (steps trace)
  | Checker.Explore.Unknown { states; reason } ->
      Printf.sprintf "unknown %d: %s" states reason

let delivers k = String.concat " " (List.init k (fun _ -> "deliver#0"))

(* Pinned from the checker as it was before its key was packed: the
   packed key must explore exactly the same states in the same order. *)
let test_pinned_2p2v () =
  List.iter2
    (fun (name, p) (plain, adversary) ->
      Alcotest.(check string) name plain (summary (Checker.Explore.run (contended p)));
      Alcotest.(check string) (name ^ " with 2 drops, 1 dup") adversary
        (summary (Checker.Explore.run ~max_drops:2 ~max_dups:1 (contended p))))
    Mca.Policy.paper_grid
    [
      ("converges 11/1", "converges 166/6");
      ("converges 11/1", "converges 166/6");
      ("converges 22/3", "converges 441/18");
      ("nonconvergence 10: " ^ delivers 10, "nonconvergence 10: " ^ delivers 10);
      ("nonconvergence 4: " ^ delivers 4, "nonconvergence 4: " ^ delivers 4);
      ("nonconvergence 6: " ^ delivers 6, "nonconvergence 6: " ^ delivers 6);
    ]

let test_pinned_3p1v () =
  List.iter
    (fun seed ->
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d %s" seed name)
            "converges 1480/1"
            (summary (Checker.Explore.run (cell ~seed name))))
        explored_policies)
    [ 1; 2; 3 ];
  Alcotest.(check string) "seed 1 rebid attack"
    ("nonconvergence 22: " ^ delivers 14 ^ " quiesce " ^ delivers 7)
    (summary (Checker.Explore.run (cell ~seed:1 "submod+rebid-attack")));
  Alcotest.(check string) "line-3 nonsubmod+release"
    ("nonconvergence 44859: " ^ delivers 26 ^ " deliver#1 " ^ delivers 4)
    (summary (Checker.Explore.run (line3 (List.assoc "nonsubmod+release" Mca.Policy.paper_grid))))

(* Successors share agents with their parent, so a transition that
   mutated a shared agent would change a state already visited: keep
   every state of a search and check that no key moved. *)
let test_copy_on_write () =
  let retained cfg ?drops ?dups () =
    let seen = ref [] in
    walk ?drops ?dups cfg (fun s -> seen := (s, Checker.State.canonical_key s) :: !seen);
    List.iter
      (fun (s, key) ->
        if Checker.State.canonical_key s <> key then
          Alcotest.fail "a successor mutated a state it shares agents with")
      !seen;
    check "explored" true (List.length !seen > 1)
  in
  retained (cell ~seed:1 "nonsubmod+release") ();
  retained (contended (List.assoc "nonsubmod" Mca.Policy.paper_grid)) ~drops:2 ~dups:1 ();
  retained (line3 (List.assoc "submod+release" Mca.Policy.paper_grid)) ~drops:1 ()

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "enabled and apply" `Quick test_enabled_and_apply;
    Alcotest.test_case "canonical key time ranks" `Quick test_canonical_key_time_rank;
    Alcotest.test_case "canonical key buffer multiset" `Quick test_canonical_key_buffer_order_insensitive;
    Alcotest.test_case "explore policy matrix" `Quick test_explore_policy_matrix;
    Alcotest.test_case "explore three agents" `Quick test_explore_three_agents;
    Alcotest.test_case "explore budget" `Quick test_explore_budget;
    Alcotest.test_case "replay closes the lasso" `Quick test_replay_produces_witness;
    Alcotest.test_case "replay states consistent" `Quick test_replay_states_consistent;
    Alcotest.test_case "terminals conflict-free" `Quick test_terminal_states_conflict_free;
    Alcotest.test_case "adversary transitions" `Quick test_adversary_enabled_transitions;
    Alcotest.test_case "adversary budget in canonical key" `Quick test_adversary_budget_in_canonical_key;
    Alcotest.test_case "adversary decides 2x2" `Quick test_adversary_decides_2x2;
    Alcotest.test_case "adversary replay" `Quick test_adversary_replay;
    Alcotest.test_case "unknown carries deadline reason" `Quick test_unknown_reason_deadline;
    QCheck_alcotest.to_alcotest qcheck_explicit_matches_simulation;
    Alcotest.test_case "packed key equals reference key" `Quick test_key_equivalence;
    Alcotest.test_case "pinned exploration 2p2v" `Quick test_pinned_2p2v;
    Alcotest.test_case "pinned exploration 3p1v and line-3" `Quick test_pinned_3p1v;
    Alcotest.test_case "copy-on-write successors" `Quick test_copy_on_write;
    Alcotest.test_case "packed key bytes equal the frozen key" `Quick test_key_bytes_frozen;
    Alcotest.test_case "exploring allocates < 300 minor words per state" `Quick
      test_explore_allocation;
    Alcotest.test_case "explore cancelled by the budget's hook" `Quick
      test_explore_cancelled;
  ]
