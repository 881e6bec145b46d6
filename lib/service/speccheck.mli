(** The untrusted-spec pipeline behind the service's [submit] verb:
    byte cap → parse → elaborate → command selection → universe-size
    cap → compile → budgeted solve → optional DRUP certification.

    Every stage either advances or produces a typed
    {!Alloylite.Diag.t} — a hostile spec can be rejected, but it can
    never surface a raw exception or hang a worker: solving runs under
    the caller's {!Netsim.Budget}, with its cancellation hook, and
    resource-hungry scopes are refused by {!Alloylite.Compile.universe_estimate}
    before any translation work is done. *)

type caps = {
  max_bytes : int;  (** spec text size; also enforced at the framing layer *)
  max_atoms : int;  (** universe-size estimate ceiling *)
  max_tuples : int;  (** field tuple-budget ceiling *)
}

val default_caps : caps
(** 64 KiB of text, 64 atoms, 100k tuples — generous for every model
    in the paper's grid, tight enough that translation stays cheap. *)

val digest : string -> string
(** Content address of a spec text (hex), the verdict-cache key
    component and the [digest] field of the {!Wire.spec_reply}. *)

type result = {
  command : string;  (** label of the command that ran, e.g. ["check a"] *)
  verdict : Wire.spec_verdict;
  certified : bool;
  secs : float;
}

val analyze :
  ?caps:caps -> ?certify:bool -> ?cmd:string -> budget:Netsim.Budget.t ->
  string -> (result, Alloylite.Diag.t) Result.t
(** [analyze ~budget spec] runs the full pipeline on raw spec text.
    [cmd] names the check/run command to execute (default: the file's
    first); [certify] asks for a DRUP-checked verdict: the verdict the
    budgeted solve found is checked by {!Relalg.Translate.certify} on
    the same session, with no second solve, and not at all when that
    solve came back [Unknown]; a rejected certificate keeps the verdict
    with [certified = false]; [budget] bounds the solve, and its
    cancellation hook is polled between solver conflicts. In the
    service it is the request's budget, whose deadline runs from the
    moment a worker takes the request up, so parsing and translation
    spend it too. *)

(* ---- journal codec ------------------------------------------------ *)

type record = {
  rec_digest : string;
  rec_req : string;
      (** the command name the client asked for ([""] = the file's
          first) — the cache-key component, distinct from the label *)
  rec_cmd : string;  (** executed command label, e.g. ["check uniqueID"] *)
  rec_certify : bool;  (** the cached verdict carries a certificate *)
  rec_verdict : Wire.spec_verdict;
  rec_secs : float;
}

val spec_record : record -> string
(** One [spec|1|…|fp=CRC] journal line, the cached-verdict format that
    coexists with the sweep's [cell|1|…] records in one journal file. *)

val spec_of_record : string -> record option
(** Parses and CRC-checks one journal line; [None] for non-[spec]
    records (e.g. the sweep's cells) and corrupt lines alike. *)
