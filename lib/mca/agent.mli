(** A single MCA agent: the bidding mechanism and the asynchronous
    agreement (conflict-resolution) mechanism.

    Bidding (Section II-A): the agent greedily adds items to its bundle
    while capacity remains, bidding its marginal utility, provided the
    bid beats the highest bid it currently knows for the item. That
    beat-check is exactly Remark 1's no-rebid condition: as long as the
    overbid stands, the agent cannot bid on the item again (it may bid
    once the winner releases it). The [rebid_lost] policy drops the
    check entirely, modeling the rebidding attacker of Result 2 that
    resurrects its claim with stale, non-beating bids.

    Agreement: on receiving a neighbor's view, each item is resolved
    with a CBBA-style update/leave/reset table keyed on who the sender
    and receiver believe the winner is, with ties broken by bid value,
    then timestamp, then agent identifier. Being outbid on a bundle item
    drops it; with [release_outbid] every later bundle item is also
    dropped and, where the agent was the recorded winner, its entry is
    reset (Remark 2 — those bids were generated under a stale budget). *)

type t

val create : id:Types.agent_id -> num_items:int -> base_utility:int array -> policy:Policy.t -> t
(** [base_utility.(j)] is the agent's private base value for item [j]. *)

val id : t -> Types.agent_id
val view : t -> Types.view
(** The live view (not a copy; callers must not mutate). *)

val snapshot : t -> Types.view
(** A copy safe to put into a message. *)

val bundle : t -> Types.item_id list
(** Items currently held, in order of addition. *)

val lost_items : t -> Types.item_id list
(** Diagnostic memory: items the agent was genuinely overbid on at some
    point (fed to traces and the attack monitor; bidding itself uses the
    live beat-check, not this set). *)

val has_lost : t -> Types.item_id -> bool
(** [has_lost t j] iff [j] is among [lost_items t]. *)

val clock : t -> int

val bid_phase : t -> bool
(** Runs the bidding mechanism to saturation. Returns [true] when the
    view changed (new bids were placed). *)

val would_bid : t -> bool
(** [would_bid t] is what [bid_phase t] would return, without mutating
    [t]: a [false] bid phase changes nothing at all. *)

val receive : t -> Types.message -> bool
(** Processes one bid message through the conflict-resolution table.
    Returns [true] when the view, bundle or lost-set changed. *)

val pp : Format.formatter -> t -> unit

val clone : t -> t
(** An independent copy: no later mutation of either agent shows in the
    other. The explicit-state checker copies an agent before a
    transition mutates it, so the states it forks share the rest. *)
