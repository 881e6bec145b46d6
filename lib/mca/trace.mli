(** Recording and fingerprinting of protocol executions.

    A trace stores one snapshot per step: every agent's view, bundle and
    lost-set. The fingerprint is a canonical string of the same data;
    the protocol driver uses it to detect revisited global states (the
    oscillation witness), and the test suite uses traces to assert the
    exact Figure-1 / Figure-2 progressions from the paper. *)

type snapshot = {
  step : int;
  agents : (Types.view * Types.item_id list * Types.item_id list) array;
      (** per agent: view, bundle, lost items *)
}

type t

val create : unit -> t
val record : t -> Agent.t array -> unit
(** Appends a snapshot of the given agents. *)

val snapshots : t -> snapshot list
(** In chronological order. *)

val length : t -> int
val last : t -> snapshot option

val record_fault : t -> Netsim.Faults.event -> unit
(** Appends a time-stamped environment fault (drop, duplicate, delay,
    partition block, crash, restart). The fault log makes a trace of a
    faulty run replayable: the event times refer to the same scheduler
    clock the snapshots were taken under. *)

val fault_events : t -> Netsim.Faults.event list
(** In chronological order. *)

val fingerprint : Agent.t array -> string
(** Canonical digest of the agents' joint state (views, bundles,
    lost-sets — timestamps excluded, they grow monotonically). Equal
    fingerprints mean the protocol revisited a configuration. *)

val pp : Format.formatter -> t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit

val fingerprint_with_messages :
  Agent.t array -> (int * int * Types.view) list -> string
(** Like {!fingerprint}, additionally folding the in-flight message
    buffer ([(src, dst, view)] in delivery-queue order) into the digest —
    required for sound cycle detection in asynchronous runs, where the
    buffer is part of the global state. *)
