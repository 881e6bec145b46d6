open Relalg.Ast
module Model = Alloylite.Model
module Scope = Alloylite.Scope
module Compile = Alloylite.Compile

type encoding = Naive | Efficient | Buffered

type policy = {
  submodular : bool;
  release_outbid : bool;
  rebid_attack : bool;
  target : int;
}

let honest_submodular =
  { submodular = true; release_outbid = false; rebid_attack = false; target = 2 }

let paper_policies =
  [
    ("submod", honest_submodular);
    ("submod+release", { honest_submodular with release_outbid = true });
    ("nonsubmod", { honest_submodular with submodular = false });
    ( "nonsubmod+release",
      { honest_submodular with submodular = false; release_outbid = true } );
    ("submod+rebid-attack", { honest_submodular with rebid_attack = true });
    ( "nonsubmod+rebid-attack",
      { honest_submodular with submodular = false; rebid_attack = true } );
  ]

type scope_spec = {
  pnodes : int;
  vnodes : int;
  states : int;
  values : int;
  bitwidth : int;
}

let paper_scope = { pnodes = 3; vnodes = 2; states = 6; values = 6; bitwidth = 4 }
let small_scope = { pnodes = 2; vnodes = 2; states = 6; values = 6; bitwidth = 4 }

type t = {
  compiled : Compile.t;
  encoding : encoding;
  policy : policy;
  scope : scope_spec;
  consensus_pred : Relalg.Ast.formula;
}

(* ------------------------------------------------------------------ *)
(* Encoding-dependent accessors: how a state's (winner, bid, time)
   information and the bid ordering are expressed relationally.        *)

type accessors = {
  w : expr -> expr -> expr -> expr;  (* state -> agent -> item -> powner *)
  b : expr -> expr -> expr -> expr;  (* state -> agent -> item -> bid   *)
  t : expr -> expr -> expr -> expr;  (* state -> agent -> item -> netState *)
  blt : expr -> expr -> formula;  (* strict order on bids *)
  beq : expr -> expr -> formula;
  bzero : expr;  (* the "no bid yet" value *)
  u : int -> expr -> expr -> expr;  (* level (0|1) -> agent -> item -> bid *)
  row_wellformed : formula;  (* per-encoding functionality facts *)
}

(* An integer constant as a singleton set of the matching Int atom. *)
let int_const n = compr [ ("n!", rel "Int") ] (sum_over (v "n!") =! i n)

let naive_accessors =
  let w s a j = join j (join a (join s (rel "st_w"))) in
  let b s a j = join j (join a (join s (rel "st_b"))) in
  let t s a j = join j (join a (join s (rel "st_t"))) in
  let u level a j = join j (join a (rel (if level = 0 then "pu1" else "pu2"))) in
  let row_wellformed =
    for_all
      [ ("s", rel "netState"); ("a", rel "pnode"); ("j", rel "vnode") ]
      (and_
         [
           one (w (v "s") (v "a") (v "j"));
           one (b (v "s") (v "a") (v "j"));
           one (t (v "s") (v "a") (v "j"));
         ])
  in
  {
    w;
    b;
    t;
    blt = (fun x y -> sum_over x <! sum_over y);
    beq = (fun x y -> x =: y);
    bzero = int_const 0;
    u;
    row_wellformed;
  }

let efficient_accessors =
  (* the bidVector atom owned by agent [a] in state [s] *)
  let bv s a =
    join s (transpose (rel "bv_state")) & join a (transpose (rel "bv_owner"))
  in
  let w s a j = join j (join (bv s a) (rel "bv_w")) in
  let b s a j = join j (join (bv s a) (rel "bv_b")) in
  let t s a j = join j (join (bv s a) (rel "bv_t")) in
  let u level a j = join j (join a (rel (if level = 0 then "pu1" else "pu2"))) in
  let row_wellformed =
    and_
      [
        (* states and owners index bid vectors bijectively *)
        for_all
          [ ("s", rel "netState"); ("a", rel "pnode") ]
          (one (bv (v "s") (v "a")));
        for_all
          [ ("x", rel "bidVector"); ("j", rel "vnode") ]
          (and_
             [
               one (join (v "j") (join (v "x") (rel "bv_w")));
               one (join (v "j") (join (v "x") (rel "bv_b")));
               one (join (v "j") (join (v "x") (rel "bv_t")));
             ]);
      ]
  in
  {
    w;
    b;
    t;
    (* the [value] signature is ordered: x < y iff y is reachable from x
       through value_next — an exactly-bounded (constant) relation *)
    blt = (fun x y -> y <=: join x (closure (rel "value_next")));
    beq = (fun x y -> x =: y);
    bzero = rel "value_first";
    u;
    row_wellformed;
  }

(* ------------------------------------------------------------------ *)

(* [selectors = true] builds the policy-generic model for the
   shared-translation path: instead of specializing the formula to the
   three policy booleans at build time, each boolean is reified as a
   selector relation ([cfg_submod]/[cfg_release]/[cfg_attack] on the
   always-present MCAConf config atom) whose single primary SAT variable
   is fixed per cell via solver assumptions. One translation then serves
   all policy cells of a scope. [policy.target] stays a build-time
   parameter — it shapes quantifier unrollings, not a boolean guard. *)
let build_with ~selectors encoding policy scope =
  if policy.target < 1 || policy.target > scope.vnodes then
    invalid_arg "Mca_model.build: target outside 1..vnodes";
  if scope.pnodes < 2 || scope.vnodes < 1 || scope.states < 2 then
    invalid_arg "Mca_model.build: degenerate scope";
  let ac =
    match encoding with
    | Naive -> naive_accessors
    | Efficient | Buffered -> efficient_accessors
  in
  let bid_col = match encoding with Naive -> "Int" | Efficient | Buffered -> "value" in
  (* ---- signatures ---- *)
  let m = Model.empty in
  let m = Model.sig_ "powner" ~abstract:true ~fields:[] m in
  let m =
    Model.sig_ "pnode" ~extends:"powner"
      ~fields:
        [
          ("pconnections", Model.Set, [ "pnode" ]);
          ("pu1", Model.One, [ "vnode"; bid_col ]);
          ("pu2", Model.One, [ "vnode"; bid_col ]);
          (* the item the agent's initial greedy pass claims first *)
          ("pfirst", Model.One, [ "vnode" ]);
        ]
      m
  in
  let m = Model.sig_ "NULL" ~mult:Model.One ~extends:"powner" ~fields:[] m in
  let m = Model.sig_ "vnode" ~fields:[] m in
  let state_fields =
    match encoding with
    | Naive ->
        (* the paper's first model: per-state information in wide
           relations over the built-in Int *)
        [
          ("st_w", Model.Set, [ "pnode"; "vnode"; "powner" ]);
          ("st_b", Model.Set, [ "pnode"; "vnode"; "Int" ]);
          ("st_t", Model.Set, [ "pnode"; "vnode"; "netState" ]);
        ]
    | Efficient -> []
    | Buffered ->
        (* the paper's buffMsgs relation: unprocessed messages per state *)
        [ ("buffMsgs", Model.Set, [ "message" ]) ]
  in
  let m = Model.sig_ "netState" ~fields:state_fields m in
  let m = Model.ordering "netState" m in
  let m =
    match encoding with
    | Naive -> m
    | Efficient | Buffered ->
        (* the paper's optimized model: reify per-(state, agent) rows as
           bidVector atoms and draw bids from the ordered value sig *)
        let m = Model.sig_ "value" ~fields:[] m in
        let m = Model.ordering "value" m in
        Model.sig_ "bidVector"
          ~fields:
            [
              ("bv_state", Model.One, [ "netState" ]);
              ("bv_owner", Model.One, [ "pnode" ]);
              ("bv_w", Model.Set, [ "vnode"; "powner" ]);
              ("bv_b", Model.Set, [ "vnode"; "value" ]);
              ("bv_t", Model.Set, [ "vnode"; "netState" ]);
            ]
          m
  in
  (* the paper's message signature and per-state buffer (Buffered only) *)
  let m =
    match encoding with
    | Buffered ->
        let m =
          Model.sig_ "message"
            ~fields:
              [
                ("msgSender", Model.One, [ "pnode" ]);
                ("msgReceiver", Model.One, [ "pnode" ]);
                ("msgWinners", Model.Set, [ "vnode"; "powner" ]);
                ("msgBids", Model.Set, [ "vnode"; "value" ]);
                ("msgBidTimes", Model.Set, [ "vnode"; "netState" ]);
              ]
            m
        in
        m
    | Naive | Efficient -> m
  in
  (* attacker marker (Result 2): the solver picks a nonempty set.
     In selector mode MCAConf is always present and additionally carries
     one single-tuple selector relation per policy boolean; each
     selector costs exactly one primary SAT variable, assumed true or
     false per cell. *)
  let m =
    if selectors then
      Model.sig_ "MCAConf" ~mult:Model.One
        ~fields:
          [
            ("attacker", Model.Set, [ "pnode" ]);
            ("cfg_submod", Model.Set, [ "MCAConf" ]);
            ("cfg_release", Model.Set, [ "MCAConf" ]);
            ("cfg_attack", Model.Set, [ "MCAConf" ]);
          ]
        m
    else if policy.rebid_attack then
      Model.sig_ "MCAConf" ~mult:Model.One
        ~fields:[ ("attacker", Model.Set, [ "pnode" ]) ]
        m
    else m
  in
  (* selector truth value: the single-tuple relation is nonempty *)
  let sel_on name = some (rel name) in
  (* ---- shorthand ---- *)
  let s = v "s" and s' = v "s'" and a = v "a" and k = v "k" and j = v "j" in
  let first = rel "netState_first" and next = rel "netState_next" in
  let pnode = rel "pnode" and vnode = rel "vnode" and null = rel "NULL" in
  let w = ac.w and b = ac.b and t = ac.t in
  let blt = ac.blt and beq = ac.beq in
  let ble x y = or_ [ blt x y; beq x y ] in
  let state_after x y = x <=: join y (closure next) in
  let is_attacker ag =
    if selectors then
      and_ [ sel_on "cfg_attack"; ag <=: join (rel "MCAConf") (rel "attacker") ]
    else if policy.rebid_attack then
      ag <=: join (rel "MCAConf") (rel "attacker")
    else ff
  in
  (* ---- static facts ---- *)
  let m = Model.fact "row_wellformed" ac.row_wellformed m in
  let m =
    Model.fact "pconnectivity"
      (for_all
         [ ("a", pnode); ("k", pnode) ]
         (and_
            [
              (k <=: join a (rel "pconnections"))
              <=> (a <=: join k (rel "pconnections"));
              not_ (a <=: join a (rel "pconnections"));
              k <=: join a (rclosure (rel "pconnections"));
            ]))
      m
  in
  let m =
    Model.fact "positive_utilities"
      (for_all
         [ ("a", pnode); ("j", vnode) ]
         (and_ [ blt ac.bzero (ac.u 0 a j); blt ac.bzero (ac.u 1 a j) ]))
      m
  in
  (* per-item distinct utility levels across agents: no max-consensus
     ties to reason about *)
  let m =
    Model.fact "distinct_utilities"
      (for_all
         [ ("j", vnode); ("a", pnode); ("k", pnode) ]
         (and_
            [
              not_ (ac.u 0 a j =: ac.u 1 a j);
              not_ (a =: k)
              ==> and_
                    [
                      not_ (ac.u 0 a j =: ac.u 0 k j);
                      not_ (ac.u 0 a j =: ac.u 1 k j);
                      not_ (ac.u 1 a j =: ac.u 1 k j);
                    ];
            ]))
      m
  in
  let m =
    Model.fact "utility_policy"
      (for_all
         [ ("a", pnode); ("j", vnode) ]
         (if selectors then
            and_
              [
                sel_on "cfg_submod" ==> ble (ac.u 1 a j) (ac.u 0 a j);
                not_ (sel_on "cfg_submod") ==> blt (ac.u 0 a j) (ac.u 1 a j);
              ]
          else if policy.submodular then ble (ac.u 1 a j) (ac.u 0 a j)
          else blt (ac.u 0 a j) (ac.u 1 a j)))
      m
  in
  let m =
    if selectors then
      (* attack on: some attacker exists; attack off: the attacker set is
         pinned empty, matching the build that omits MCAConf entirely *)
      Model.fact "attacker_policy"
        (and_
           [
             sel_on "cfg_attack" ==> some (join (rel "MCAConf") (rel "attacker"));
             not_ (sel_on "cfg_attack")
             ==> no (join (rel "MCAConf") (rel "attacker"));
           ])
        m
    else if policy.rebid_attack then
      Model.fact "some_attacker" (some (join (rel "MCAConf") (rel "attacker"))) m
    else m
  in
  (* ---- initial state: independent greedy bidding (Section II-A) ----
     Each agent claims its best item at the level-0 utility; with target
     2 it also claims the other item at the level-1 utility, stamped as
     a strictly later bid (the bundle order the release policy needs). *)
  let pfirst ag = join ag (rel "pfirst") in
  let m =
    Model.fact "greedy_first_choice"
      (for_all
         [ ("a", pnode); ("j", vnode) ]
         (not_ (j =: pfirst a) ==> ble (ac.u 0 a j) (ac.u 0 a (pfirst a))))
      m
  in
  let m =
    Model.fact "initial_state"
      (for_all [ ("a", pnode) ]
         (and_
            [
              w first a (pfirst a) =: a;
              beq (b first a (pfirst a)) (ac.u 0 a (pfirst a));
              t first a (pfirst a) =: first;
              for_all
                [ ("j", vnode - pfirst a) ]
                (if policy.target >= 2 then
                   and_
                     [
                       w first a j =: a;
                       beq (b first a j) (ac.u 1 a j);
                       t first a j =: join first next;
                     ]
                 else
                   and_
                     [
                       w first a j =: null;
                       beq (b first a j) ac.bzero;
                       t first a j =: first;
                     ]);
            ]))
      m
  in
  (* ---- the transition system ----
     Two step kinds model the paper's buffered asynchrony at its two
     extremes: a one-directional delivery of the sender's current row
     (fresh information), and a simultaneous exchange across a link —
     the two endpoints merge each other's PRE-state rows, i.e. a pair of
     crossing in-flight messages with mutually stale content. The
     crossing pattern is what lets both endpoints get outbid and release
     at once, the engine of the Figure-2 oscillation.

     A receiver merges by max-bid, reacts to being outbid (optionally
     releasing the bundle items it bid after the lost one — Remark 2,
     judged by its own pre-merge bid times), and may re-bid one item it
     became eligible for. *)
  let merge_from recv ~src_w ~src_b ~src_t =
    let stronger it = blt (b s recv it) (src_b it) in
    let mw it = ite_e (stronger it) (src_w it) (w s recv it) in
    let mb it = ite_e (stronger it) (src_b it) (b s recv it) in
    let mt it = ite_e (stronger it) (src_t it) (t s recv it) in
    let outbid it = and_ [ w s recv it =: recv; not_ (mw it =: recv) ] in
    let released it =
      let released_body =
        and_
          [
            mw it =: recv;
            exists
              [ ("oj", vnode) ]
              (and_
                 [
                   outbid (v "oj");
                   not_ (v "oj" =: it);
                   (* [it] was bid after [oj] in the receiver's own
                      history: compare its own pre-merge stamps *)
                   state_after (t s recv it) (t s recv (v "oj"));
                 ]);
          ]
      in
      if selectors then and_ [ sel_on "cfg_release"; released_body ]
      else if not policy.release_outbid then ff
      else released_body
    in
    let fw it = ite_e (released it) null (mw it) in
    let fb it = ite_e (released it) ac.bzero (mb it) in
    let ft it = ite_e (released it) s' (mt it) in
    let pre_bundle = compr [ ("bj", vnode) ] (fw (v "bj") =: recv) in
    let pre_bid_val it =
      ite_e (no pre_bundle) (ac.u 0 recv it) (ac.u 1 recv it)
    in
    let pre_size_ok =
      if policy.target = 1 then no pre_bundle else lone pre_bundle
    in
    let pre_eligible it =
      and_
        [
          not_ (fw it =: recv);
          pre_size_ok;
          or_ [ blt (fb it) (pre_bid_val it); is_attacker recv ];
        ]
    in
    let copy_pre it =
      and_
        [
          w s' recv it =: fw it;
          beq (b s' recv it) (fb it);
          t s' recv it =: ft it;
        ]
    in
    let would_change it =
      or_
        [
          not_ (mw it =: w s recv it);
          not_ (beq (mb it) (b s recv it));
          released it;
          pre_eligible it;
        ]
    in
    (* post-state constraint for this receiver: merged row adopted as
       is, or one eligible item re-bid on top of it *)
    let apply =
      or_
        [
          for_all [ ("j", vnode) ] (copy_pre j);
          exists
            [ ("j", vnode) ]
            (and_
               [
                 pre_eligible j;
                 w s' recv j =: recv;
                 beq (b s' recv j) (pre_bid_val j);
                 t s' recv j =: s';
                 for_all [ ("fj", vnode - j) ] (copy_pre (v "fj"));
               ]);
        ]
    in
    (apply, would_change)
  in
  (* merge directly from another agent's current row *)
  let merge_row recv sndr =
    merge_from recv
      ~src_w:(fun it -> w s sndr it)
      ~src_b:(fun it -> b s sndr it)
      ~src_t:(fun it -> t s sndr it)
  in
  let row_changed recv =
    exists
      [ ("cj", vnode) ]
      (or_
         [
           not_ (w s' recv (v "cj") =: w s recv (v "cj"));
           not_ (beq (b s' recv (v "cj")) (b s recv (v "cj")));
         ])
  in
  let frame_rows except =
    for_all
      [ ("fa", except); ("fj", vnode) ]
      (and_
         [
           w s' (v "fa") (v "fj") =: w s (v "fa") (v "fj");
           beq (b s' (v "fa") (v "fj")) (b s (v "fa") (v "fj"));
           t s' (v "fa") (v "fj") =: t s (v "fa") (v "fj");
         ])
  in
  let frame_all = frame_rows pnode in
  let msg_step =
    exists
      [ ("k", pnode); ("a", pnode) ]
      (let apply, _ = merge_row a k in
       and_
         [
           not_ (k =: a);
           k <=: join a (rel "pconnections");
           frame_rows (pnode - a);
           row_changed a;
           apply;
         ])
  in
  let sync_step =
    exists
      [ ("k", pnode); ("a", pnode) ]
      (let apply_a, _ = merge_row a k in
       let apply_k, _ = merge_row k a in
       and_
         [
           not_ (k =: a);
           k <=: join a (rel "pconnections");
           frame_rows (pnode - a - k);
           or_ [ row_changed a; row_changed k ];
           apply_a;
           apply_k;
         ])
  in
  (* eligibility on an agent's own standing row (for quiescence) *)
  let own_bundle st ag = compr [ ("bj", vnode) ] (w st ag (v "bj") =: ag) in
  let own_eligible st ag it =
    let bundle = own_bundle st ag in
    let bid_val = ite_e (no bundle) (ac.u 0 ag it) (ac.u 1 ag it) in
    let size_ok = if policy.target = 1 then no bundle else lone bundle in
    and_
      [
        not_ (w st ag it =: ag);
        size_ok;
        or_ [ blt (b st ag it) bid_val; is_attacker ag ];
      ]
  in
  let quiescent st =
    and_
      [
        for_all [ ("qa", pnode); ("qj", vnode) ] (not_ (own_eligible st (v "qa") (v "qj")));
        for_all
          [ ("qa", pnode); ("qk", pnode); ("qj", vnode) ]
          ((v "qk" <=: join (v "qa") (rel "pconnections"))
          ==> and_
                [
                  w st (v "qa") (v "qj") =: w st (v "qk") (v "qj");
                  beq (b st (v "qa") (v "qj")) (b st (v "qk") (v "qj"));
                ]);
      ]
  in
  (* Some (sender, receiver) pair could still make progress: the merge or
     release would change the receiver's row, or a re-bid is available.
     When nothing can — whether because consensus is reached or because
     the system is stuck disagreeing (stale information no message can
     displace: a non-convergence failure) — the trace stutters, so the
     final state faithfully shows the outcome. *)
  let progress_possible =
    exists
      [ ("k", pnode); ("a", pnode) ]
      (let _, would_change = merge_row a k in
       and_
         [
           not_ (k =: a);
           k <=: join a (rel "pconnections");
           exists [ ("j", vnode) ] (would_change (v "j"));
         ])
  in
  (* ---- the Buffered encoding's machinery: explicit message atoms ---- *)
  let buff st = join st (rel "buffMsgs") in
  let msg_w mm it = join it (join mm (rel "msgWinners")) in
  let msg_b mm it = join it (join mm (rel "msgBids")) in
  let msg_t mm it = join it (join mm (rel "msgBidTimes")) in
  (* message [mm] carries agent [ag]'s row as of state [st] *)
  let content_eq mm st ag =
    for_all
      [ ("mj", vnode) ]
      (and_
         [
           msg_w mm (v "mj") =: w st ag (v "mj");
           beq (msg_b mm (v "mj")) (b st ag (v "mj"));
           msg_t mm (v "mj") =: t st ag (v "mj");
         ])
  in
  let m =
    match encoding with
    | Buffered ->
        let m =
          Model.fact "message_wellformed"
            (for_all
               [ ("mm", rel "message"); ("mj", vnode) ]
               (and_
                  [
                    one (msg_w (v "mm") (v "mj"));
                    one (msg_b (v "mm") (v "mj"));
                    one (msg_t (v "mm") (v "mj"));
                  ]))
            m
        in
        (* the initial buffer holds exactly one copy of every agent's
           initial row per outgoing link *)
        Model.fact "initial_buffer"
          (and_
             [
               for_all
                 [ ("mm", buff first) ]
                 (and_
                    [
                      join (v "mm") (rel "msgReceiver")
                      <=: join (join (v "mm") (rel "msgSender")) (rel "pconnections");
                      content_eq (v "mm") first (join (v "mm") (rel "msgSender"));
                    ]);
               for_all
                 [ ("ba", pnode) ]
                 (for_all
                    [ ("bn", join (v "ba") (rel "pconnections")) ]
                    (one
                       (compr
                          [ ("mm", buff first) ]
                          (and_
                             [
                               join (v "mm") (rel "msgSender") =: v "ba";
                               join (v "mm") (rel "msgReceiver") =: v "bn";
                             ]))));
             ])
          m
    | Naive | Efficient -> m
  in
  (* one buffered message is consumed; its receiver merges the (possibly
     stale) carried row, may re-bid, and re-broadcasts on change *)
  let buffered_step =
    exists
      [ ("m!", buff s) ]
      (let mm = v "m!" in
       let recv = join mm (rel "msgReceiver") in
       let apply, _ =
         merge_from recv ~src_w:(msg_w mm) ~src_b:(msg_b mm) ~src_t:(msg_t mm)
       in
       let remaining = buff s - mm in
       let fresh = buff s' - remaining in
       and_
         [
           frame_rows (pnode - recv);
           apply;
           (* buffer update: consumed message gone, survivors kept *)
           remaining <=: buff s';
           no (mm & buff s');
           for_all
             [ ("m2", fresh) ]
             (and_
                [
                  join (v "m2") (rel "msgSender") =: recv;
                  join (v "m2") (rel "msgReceiver")
                  <=: join recv (rel "pconnections");
                  content_eq (v "m2") s' recv;
                ]);
           row_changed recv
           ==> for_all
                 [ ("nb", join recv (rel "pconnections")) ]
                 (exists
                    [ ("m2", fresh) ]
                    (join (v "m2") (rel "msgReceiver") =: v "nb"));
           not_ (row_changed recv) ==> no fresh;
         ])
  in
  let m =
    Model.fact "state_transition"
      (for_all [ ("s", rel "netState") ]
         (let s_next = join s next in
          some s_next
          ==> for_all [ ("s'", s_next) ]
                (match encoding with
                | Buffered ->
                    or_
                      [
                        buffered_step;
                        and_ [ no (buff s); frame_all; no (buff s') ];
                      ]
                | Naive | Efficient ->
                    or_
                      [
                        msg_step;
                        sync_step;
                        and_
                          [
                            or_ [ quiescent s; not_ progress_possible ];
                            frame_all;
                          ];
                      ])))
      m
  in
  let consensus_pred =
    let last = rel "netState_last" in
    for_all
      [ ("ca", pnode); ("ck", pnode); ("cj", vnode) ]
      (and_
         [
           w last (v "ca") (v "cj") =: w last (v "ck") (v "cj");
           beq (b last (v "ca") (v "cj")) (b last (v "ck") (v "cj"));
         ])
  in
  let m = Model.assert_ "consensus" consensus_pred m in
  (* ---- scope ---- *)
  let exactly =
    [ ("pnode", scope.pnodes); ("vnode", scope.vnodes) ]
    @
    match encoding with
    | Efficient | Buffered -> [ ("bidVector", scope.states * scope.pnodes) ]
    | Naive -> []
  in
  let but =
    [ ("netState", scope.states) ]
    @ (match encoding with
      | Efficient | Buffered -> [ ("value", scope.values) ]
      | Naive -> [])
    @
    match encoding with
    | Buffered ->
        (* enough atoms for the initial per-link broadcasts plus one
           re-broadcast per transition per link of the consumer *)
        let links = Stdlib.( * ) scope.pnodes (Stdlib.( - ) scope.pnodes 1) in
        let resends = Stdlib.( * ) scope.states (Stdlib.( - ) scope.pnodes 1) in
        [ ("message", Stdlib.( + ) links resends) ]
    | Naive | Efficient -> []
  in
  let sc =
    match encoding with
    | Naive -> Scope.make ~bitwidth:scope.bitwidth ~but ~exactly 3
    | Efficient | Buffered -> Scope.make ~but ~exactly 3
  in
  let compiled = Compile.prepare m sc in
  { compiled; encoding; policy; scope; consensus_pred }

let build encoding policy scope = build_with ~selectors:false encoding policy scope

(* ---- shared translation: one CNF for all policy cells ------------- *)

type shared = {
  shared_encoding : encoding;
  shared_scope : scope_spec;
  shared_target : int;
  shared_model : t;
  shared_translation : Relalg.Translate.translation;
  sel_submod : Sat.Cnf.var;
  sel_release : Sat.Cnf.var;
  sel_attack : Sat.Cnf.var;
}

let translation ?symmetry t =
  Compile.translation ?symmetry t.compiled (not_ t.consensus_pred)

let build_shared ?(symmetry = true) ?(target = 2) encoding scope =
  let generic =
    build_with ~selectors:true encoding
      { submodular = true; release_outbid = false; rebid_attack = false; target }
      scope
  in
  let tr = translation ~symmetry generic in
  let sel name =
    match Relalg.Translate.selector_var tr name with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf
             "Mca_model.build_shared: selector %s is not a free single-tuple \
              relation"
             name)
  in
  {
    shared_encoding = encoding;
    shared_scope = scope;
    shared_target = target;
    shared_model = generic;
    shared_translation = tr;
    sel_submod = sel "cfg_submod";
    sel_release = sel "cfg_release";
    sel_attack = sel "cfg_attack";
  }

let shared_assumptions sh policy =
  if policy.target <> sh.shared_target then
    invalid_arg
      (Printf.sprintf
         "Mca_model.shared_assumptions: policy target %d, shared translation \
          built for target %d"
         policy.target sh.shared_target);
  let lit var on = if on then Sat.Cnf.pos var else Sat.Cnf.neg var in
  [
    lit sh.sel_submod policy.submodular;
    lit sh.sel_release policy.release_outbid;
    lit sh.sel_attack policy.rebid_attack;
  ]

(* ---- incremental session: one warm solver across the matrix ------- *)

type session = { shared : shared; inner : Relalg.Translate.session }

let incremental_session ?certify sh =
  { shared = sh; inner = Relalg.Translate.session ?certify sh.shared_translation }

let check_consensus_incremental ~budget sn policy =
  Relalg.Translate.solve_cell ~budget sn.inner
    (shared_assumptions sn.shared policy)

let certify sn = Relalg.Translate.certify sn.inner

let session_solver_stats sn = Relalg.Translate.session_stats sn.inner

(* Per-domain session cache. A session is mutable solver state and must
   never cross domains, so each domain lazily opens its own session the
   first time it meets a given shared translation. Keyed by PHYSICAL
   equality on the shared value — scope tags and even scope records can
   repeat across unrelated sweeps, but each [build_shared] result is a
   distinct heap value — and capped so a long-lived domain (the main
   domain running inline --jobs 1 sweeps, or a service worker serving
   many scopes) cannot accumulate unbounded warm solvers. *)
let domain_sessions : (shared * session) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let max_domain_sessions = 4

let domain_session sh =
  let cache = Domain.DLS.get domain_sessions in
  match List.find_opt (fun (sh', _) -> sh' == sh) !cache with
  | Some (_, sn) -> sn
  | None ->
      let sn = incremental_session sh in
      let keep =
        List.filteri
          (fun i _ -> Stdlib.( < ) i (Stdlib.( - ) max_domain_sessions 1))
          !cache
      in
      cache := (sh, sn) :: keep;
      sn

let check_consensus ?symmetry t = Compile.check ?symmetry t.compiled "consensus"

let run_instance t = Compile.run_formula t.compiled tt

let describe t =
  Printf.sprintf "%s encoding, %s%s%s, T=%d, scope %dp/%dv/%d states"
    (match t.encoding with
    | Naive -> "naive"
    | Efficient -> "efficient"
    | Buffered -> "buffered")
    (if t.policy.submodular then "submodular" else "non-submodular")
    (if t.policy.release_outbid then "+release" else "")
    (if t.policy.rebid_attack then "+attack" else "")
    t.policy.target t.scope.pnodes t.scope.vnodes t.scope.states
