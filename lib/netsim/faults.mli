(** Declarative, seed-reproducible fault plans for the message layer.

    A {!plan} describes an adversarial environment — per-link loss,
    duplication and delay probabilities, timed link-down windows
    (partitions), and agent crash/restart schedules. A started plan
    ({!t}) makes every probabilistic decision from its own splitmix64
    {!Rng} stream, so a faulty execution is a pure function of
    [(config, schedule policy, plan)]: the same seed replays the same
    drops, the same duplicates and the same delays, byte for byte.

    Every decision is recorded twice over: per-link counters (the
    {e fault ledger}, for observability and determinism regression
    tests) and a time-stamped {!event} log (fed into {!Mca.Trace} so
    non-convergence-under-faults witnesses are replayable). *)

(** {1 Plans} *)

type link_profile = {
  drop : float;  (** i.i.d. loss probability per send, in [0,1] *)
  duplicate : float;  (** probability a sent message is duplicated *)
  max_delay : int;
      (** each copy is held for a uniform 0..max_delay scheduler steps *)
}

val reliable : link_profile
(** No loss, no duplication, no delay — the paper's idealized network. *)

val lossy : ?drop:float -> ?duplicate:float -> ?max_delay:int -> unit -> link_profile
(** Validates ranges; omitted fields are fault-free. *)

type window = { w_src : int; w_dst : int; w_from : int; w_until : int }
(** Directed link outage over the half-open step interval
    [[w_from, w_until)]. *)

val link_down : src:int -> dst:int -> from_t:int -> until_t:int -> window list
(** Both directions of one link. *)

val partition : group:int list -> others:int list -> from_t:int -> until_t:int -> window list
(** Cuts every link between [group] and [others] for the window — a
    temporary network partition. *)

type crash = { agent : int; crash_at : int; restart_at : int option }
(** The agent is down from [crash_at] (inclusive) until [restart_at]
    (exclusive); [None] means it never comes back. A restarted agent
    rejoins with empty local state. *)

val crash : ?restart_at:int -> agent:int -> at:int -> unit -> crash

type plan = {
  default_link : link_profile;
  links : ((int * int) * link_profile) list;
      (** directed per-link overrides, looked up before [default_link] *)
  windows : window list;
  crashes : crash list;
  seed : int;  (** seeds the plan's private decision stream *)
}

val plan :
  ?default_link:link_profile -> ?links:((int * int) * link_profile) list ->
  ?windows:window list -> ?crashes:crash list -> seed:int -> unit -> plan

val no_faults : plan

(** {1 Runtime} *)

type t
(** A started plan: decision stream plus ledger and event log. *)

val start : plan -> t

(** Verdict for one [send] on a link. [Pass] carries one entry per
    surviving copy (1 or 2): the number of scheduler steps the copy is
    delayed. *)
type action = Pass of { delays : int list } | Lost

val on_send : t -> time:int -> src:int -> dst:int -> action
(** Decides the fate of a message entering the link at [time], drawing
    from the plan's Rng stream and updating ledger and events. *)

(** {1 Ledger and events} *)

type event_kind =
  | Dropped
  | Duplicated
  | Delayed of int
  | Blocked  (** lost to a link-down window *)
  | To_down  (** delivered while the destination agent was crashed *)
  | Crashed
  | Restarted

type event = { time : int; src : int; dst : int; kind : event_kind }
(** For [Crashed]/[Restarted], [src = dst = agent]. *)

val note_to_down : t -> time:int -> src:int -> dst:int -> unit
val note_crash : t -> time:int -> agent:int -> unit
val note_restart : t -> time:int -> agent:int -> unit
(** Crash semantics live in the protocol driver; it stamps these events
    into the shared log so the trace carries the full fault history. *)

val events : t -> event list
(** Chronological. *)

type link_stats = {
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable blocked : int;
  mutable to_down : int;
}

val ledger : t -> ((int * int) * link_stats) list
(** Per directed link, sorted. *)

val totals : t -> int * int * int * int
(** [(sent, lost, duplicated, delayed)] summed over all links, where
    lost = dropped + blocked + to-down. *)

val ledger_digest : t -> string
(** Canonical one-line serialization of the ledger — equal digests mean
    identical fault histories (the determinism regression hook). *)

val pp_event : Format.formatter -> event -> unit
val pp_ledger : Format.formatter -> t -> unit
