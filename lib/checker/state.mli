(** Global protocol configurations for the explicit-state checker: the
    joint state of all agents plus the multiset of in-flight messages —
    exactly the paper's [netState] signature ([bidVectors] + [buffMsgs])
    — extended with a bounded message adversary: a budget of [drops_left]
    message losses and [dups_left] duplications the environment may
    still spend, nondeterministically, on any in-flight message.

    States are deduplicated by a canonical key in which bid timestamps
    are replaced by their rank among all timestamps present in the
    configuration. Relative order is all the conflict-resolution table
    ever inspects, so rank compression is a bisimulation-preserving
    abstraction — and it makes the reachable state space finite, turning
    the checker into a decision procedure for the given scope and fault
    budget.

    States are persistent: {!apply} never mutates its input, and
    successors share every agent their transition leaves untouched with
    their parent (copy-on-write), so callers must not mutate an agent
    reached through a state. *)

type pending = { src : Mca.Types.agent_id; dst : Mca.Types.agent_id; view : Mca.Types.view }

type t = {
  agents : Mca.Agent.t array;
  buffer : pending list;  (** oldest first *)
  drops_left : int;  (** adversary may still lose this many messages *)
  dups_left : int;  (** … and duplicate this many *)
}

val initial : ?drops:int -> ?dups:int -> Mca.Protocol.config -> t
(** Every agent runs its first bidding phase and broadcasts to its
    neighbors, as in the protocol driver. [?drops]/[?dups] (default 0:
    the reliable network of the paper) arm the adversary budget. *)

(** One checker transition. *)
type transition =
  | Deliver of int  (** index into the buffer *)
  | Drop of int  (** adversary loses the message (spends one drop) *)
  | Duplicate of int
      (** adversary re-enqueues a copy (spends one duplication) *)
  | Quiesce  (** empty buffer: give every agent a bidding opportunity and
                 rebroadcast (also anti-entropy when views disagree) *)

val enabled : t -> transition list
(** All transitions from this state: [Deliver i] for each buffered
    message, plus [Drop i]/[Duplicate i] while the respective budget
    lasts, or [Quiesce] when the buffer is empty and the state is not
    yet terminal. The empty list means the state is terminal. *)

val apply : Mca.Protocol.config -> t -> transition -> t
(** The successor state. The input is not mutated: only the agent a
    [Deliver] reaches, or the agents a [Quiesce] lets bid, are cloned.
    Raises [Invalid_argument] for a [Drop]/[Duplicate] whose budget is
    spent. *)

val is_terminal : Mca.Protocol.config -> t -> bool
(** Empty buffer, no agent can bid, and all views agree. *)

val canonical_key : t -> string
(** Time-rank-canonicalized key used for state deduplication; includes
    the remaining adversary budgets. A packed, parseable encoding rather
    than a hash: two states have equal keys iff they are equal up to
    timestamp ranks and the order of the buffer. *)

type packed = private {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable hash : int;
}
(** The calling domain's key buffer. *)

val pack : t -> packed
(** Packs {!canonical_key}'s bytes into the calling domain's buffer,
    without allocating: they are [bytes.[0 .. len-1]], zero-padded to
    whole 8-byte words, and [hash] is the same for equal keys. The
    buffer is reused by the domain's next [pack] or [canonical_key]. *)

val consensus : t -> bool
val conflict_free : t -> bool
val pp : Format.formatter -> t -> unit
