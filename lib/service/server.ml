(* The verification daemon: a select-based acceptor feeding a bounded
   request queue, worker domains running policy-matrix cells through the
   degradation ladder, and a write-ahead journal that doubles as the
   verdict cache.

   The overload contract, in code:
   - the acceptor never blocks on the queue: admission is
     [Bqueue.try_push], and [false] is answered with an explicit [shed]
     reply (never a hang, never a crash);
   - the acceptor never blocks on a client either: sockets are
     non-blocking, request lines are assembled incrementally under
     [select], and a client that stalls past [io_deadline] is dropped;
   - every admitted request runs under one [Netsim.Budget]: its
     deadline, and a hook that cancels on abort or past that deadline.
     Each stage of a cell takes a [Netsim.Budget.share] of it, so a hard
     cell degrades to [UNKNOWN] instead of wedging a worker;
   - [stop] (the SIGTERM path) drains: the listener closes, queued
     requests complete and are journaled, then workers exit — a
     restarted server (or [mca_check --sweep --resume]) picks the
     verdicts up from the journal. *)

type addr = Unix_path of string | Tcp of string * int

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let pp_addr ppf = function
  | Unix_path p -> Format.fprintf ppf "unix:%s" p
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

let addr_of_string s =
  let after prefix =
    let n = String.length prefix in
    String.sub s n (String.length s - n)
  in
  if String.starts_with ~prefix:"tcp:" s then
    let hp = after "tcp:" in
    match String.rindex_opt hp ':' with
    | Some i -> (
        let host = match String.sub hp 0 i with "" -> "127.0.0.1" | h -> h in
        match
          int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1))
        with
        | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
        | _ -> Error ("invalid port in " ^ s))
    | None -> Error ("expected tcp:HOST:PORT, got " ^ s)
  else if String.starts_with ~prefix:"unix:" s then
    Ok (Unix_path (after "unix:"))
  else Ok (Unix_path s)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink = function
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let listen addr =
  unlink addr;
  let sa = sockaddr_of addr in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  try
    (try Unix.setsockopt fd Unix.SO_REUSEADDR true
     with Unix.Unix_error _ -> ());
    Unix.bind fd sa;
    Unix.listen fd 128;
    fd
  with e ->
    close_quiet fd;
    raise e

type config = {
  addr : addr;
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** admission watermark: depth beyond this sheds *)
  default_deadline : float;  (** per-request seconds when none given *)
  max_deadline : float;  (** cap on client-requested deadlines *)
  io_deadline : float;  (** client socket read/write allowance *)
  seed : int;  (** cell identity seed, as in [mca_check --sweep] *)
  journal : string option;
  trip_after : int;  (** breaker: consecutive timeouts before opening *)
  breaker_base_s : float;
  breaker_cap_s : float;
  max_spec_bytes : int;  (** submit body cap (≤ {!Wire.max_spec_bytes}) *)
  max_atoms : int;  (** submit universe-estimate ceiling *)
  max_tuples : int;  (** submit field-tuple ceiling *)
  quota_rate : float;  (** per-tenant submissions per second *)
  quota_burst : float;  (** per-tenant burst allowance *)
}

let default_config addr =
  {
    addr;
    jobs = 2;
    queue_cap = 8;
    default_deadline = 30.0;
    max_deadline = 120.0;
    io_deadline = 5.0;
    seed = 1;
    journal = None;
    trip_after = 3;
    breaker_base_s = 0.5;
    breaker_cap_s = 30.0;
    max_spec_bytes = Speccheck.default_caps.Speccheck.max_bytes;
    max_atoms = Speccheck.default_caps.Speccheck.max_atoms;
    max_tuples = Speccheck.default_caps.Speccheck.max_tuples;
    quota_rate = Tenant.default_config.Tenant.rate;
    quota_burst = Tenant.default_config.Tenant.burst;
  }

type work =
  | Cell of Wire.request
  | Spec of Wire.submit_header * string  (** header plus the body text *)

type job = { fd : Unix.file_descr; work : work }

let work_id = function
  | Cell req -> req.Wire.id
  | Spec (h, _) -> h.Wire.sub_id

type counters = {
  conns : int Atomic.t;  (** connections accepted *)
  requests : int Atomic.t;  (** well-formed check requests *)
  admitted : int Atomic.t;
  shed : int Atomic.t;
  errors : int Atomic.t;  (** malformed/refused requests *)
  served : int Atomic.t;  (** verdict replies written *)
  cached : int Atomic.t;  (** served from the journal cache *)
  degraded : int Atomic.t;  (** answered below the CDCL rung *)
  drained : int Atomic.t;  (** requests completed during drain *)
  submits : int Atomic.t;  (** well-formed submit headers *)
  quota : int Atomic.t;  (** submissions refused by tenant admission *)
  spec_errors : int Atomic.t;  (** typed spec rejections (Bad_spec) *)
  spec_cached : int Atomic.t;  (** submits served from the verdict cache *)
  fenced : int Atomic.t;  (** requests refused for a stale epoch *)
}

let new_counters () =
  {
    conns = Atomic.make 0;
    requests = Atomic.make 0;
    admitted = Atomic.make 0;
    shed = Atomic.make 0;
    errors = Atomic.make 0;
    served = Atomic.make 0;
    cached = Atomic.make 0;
    degraded = Atomic.make 0;
    drained = Atomic.make 0;
    submits = Atomic.make 0;
    quota = Atomic.make 0;
    spec_errors = Atomic.make 0;
    spec_cached = Atomic.make 0;
    fenced = Atomic.make 0;
  }

type t = {
  cfg : config;
  queue : job Parallel.Bqueue.t;
  stopping : bool Atomic.t;  (** drain requested: set from signal handlers *)
  aborting : bool Atomic.t;  (** hard stop: cancel in-flight work *)
  counters : counters;
  ladder : Ladder.t;
  cache : (int * string * string, Core.Experiments.sweep_cell) Hashtbl.t;
  cache_lock : Mutex.t;
  shared_cache :
    (Core.Mca_model.scope_spec * int, Core.Mca_model.shared) Hashtbl.t;
      (** one scope-wide translation per (scope, target); policy cells of
          the same scope solve it under selector assumptions instead of
          rebuilding the model per request *)
  shared_lock : Mutex.t;
  tenants : Tenant.t;
  spec_cache : (string * string * bool, Speccheck.record) Hashtbl.t;
      (** content-addressed submit verdicts, keyed on (spec digest,
          requested command, certify); loaded from and appended to the
          same journal as the sweep cells *)
  spec_lock : Mutex.t;
  journal_w : Parallel.Journal.writer option;
  epoch : int Atomic.t;
      (** highest coordinator epoch seen — the fencing watermark. Raised
          monotonically by [fence] verbs and epoch-stamped checks; a
          check below it is refused before any work or journaling. *)
  listen_fd : Unix.file_descr;
  mutable domains : unit Domain.t list;
}

(* monotonic max-update; returns the watermark after the raise *)
let rec raise_epoch a e =
  let cur = Atomic.get a in
  if e <= cur then cur
  else if Atomic.compare_and_set a cur e then e
  else raise_epoch a e

(* ---- non-blocking, deadline-bounded socket I/O -------------------- *)

let rec select_retry rd wr deadline =
  let now = Netsim.Clock.now () in
  let t = Float.max 0.0 (deadline -. now) in
  match Unix.select rd wr [] t with
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Netsim.Clock.now () >= deadline then ([], [], [])
      else select_retry rd wr deadline
  | r -> r

(* Best-effort bounded write of [s ^ "\n"]; never raises, never blocks
   past [deadline]. *)
let send_line fd ~deadline s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | 0 -> false
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match select_retry [] [ fd ] deadline with
          | _, [ _ ], _ -> go off
          | _ -> false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* ---- the journal-backed verdict cache ----------------------------- *)

let cache_key ~seed ~policy ~scope_tag = (seed, policy, scope_tag)

let spec_cache_key ~digest ~cmd ~certify =
  (digest, Option.value cmd ~default:"", certify)

let load_cache cfg cache spec_cache =
  match cfg.journal with
  | None -> None
  | Some path ->
      (* recover: truncate a torn tail, then trust only digest-valid
         records — the PR 4 resume contract. Cell and spec records
         share the file; each codec skips the other's lines. *)
      let { Parallel.Journal.entries; _ } = Parallel.Journal.recover path in
      List.iter
        (fun line ->
          match Core.Experiments.cell_of_record line with
          | Some (seed, cell) ->
              Hashtbl.replace cache
                (cache_key ~seed ~policy:cell.Core.Experiments.policy_label
                   ~scope_tag:cell.Core.Experiments.scope_tag)
                cell
          | None -> (
              match Speccheck.spec_of_record line with
              | Some r ->
                  Hashtbl.replace spec_cache
                    ( r.Speccheck.rec_digest,
                      r.Speccheck.rec_req,
                      r.Speccheck.rec_certify )
                    r
              | None -> ()))
        entries;
      Some (Parallel.Journal.open_append path)

(* ---- the shared-translation cache ---------------------------------- *)

(* Bounded so arbitrary client-chosen scopes cannot grow it without
   limit; a full reset on overflow is crude but keeps the common case
   (few distinct scopes, hammered repeatedly) at one translation each. *)
let max_shared_cache = 8

let shared_for t scope target =
  let find () = Hashtbl.find_opt t.shared_cache (scope, target) in
  match Mutex.protect t.shared_lock find with
  | Some sh -> sh
  | None ->
      (* build outside the lock: translation takes long enough that
         serializing workers on it would defeat the point; a racing
         duplicate build is wasted work, not a bug *)
      let sh =
        Core.Mca_model.build_shared ~target Core.Mca_model.Efficient scope
      in
      Mutex.protect t.shared_lock (fun () ->
          match find () with
          | Some first -> first
          | None ->
              if Hashtbl.length t.shared_cache >= max_shared_cache then
                Hashtbl.reset t.shared_cache;
              Hashtbl.replace t.shared_cache (scope, target) sh;
              sh)

(* ---- one request, end to end -------------------------------------- *)

let stats_of t =
  let c = t.counters in
  let breaker_open rung =
    match
      Breaker.state (Ladder.breaker t.ladder rung) ~now:(Netsim.Clock.now ())
    with
    | Breaker.Closed -> 0
    | Breaker.Open_until _ | Breaker.Half_open -> 1
  in
  [
    ("conns", Atomic.get c.conns);
    ("requests", Atomic.get c.requests);
    ("admitted", Atomic.get c.admitted);
    ("shed", Atomic.get c.shed);
    ("errors", Atomic.get c.errors);
    ("served", Atomic.get c.served);
    ("cached", Atomic.get c.cached);
    ("degraded", Atomic.get c.degraded);
    ("drained", Atomic.get c.drained);
    ("submits", Atomic.get c.submits);
    ("quota", Atomic.get c.quota);
    ("spec_errors", Atomic.get c.spec_errors);
    ("spec_cached", Atomic.get c.spec_cached);
    ("fenced", Atomic.get c.fenced);
    ("epoch", Atomic.get t.epoch);
    ("tenants", Tenant.active t.tenants);
    ("depth", Parallel.Bqueue.length t.queue);
    ("cap", t.cfg.queue_cap);
    ("jobs", t.cfg.jobs);
    ("breaker_cdcl_open", breaker_open Ladder.Cdcl);
    ("breaker_explicit_open", breaker_open Ladder.Explicit);
  ]
  @ Tenant.stats t.tenants

(* Each stage takes its share of the request's budget when it starts:
   the simulation a quarter of what remains, the CDCL rung half, the
   explicit checker all of it. Every share keeps the request's hook, so
   an abort or the request's deadline cancels whichever stage is
   running. *)
let compute_cell t (req : Wire.request) ~budget =
  let scope_tag, scope = Wire.scope_of_request req in
  match Core.Experiments.lookup_policy req.Wire.policy with
  | None -> Error (Printf.sprintf "unknown policy %S" req.Wire.policy)
  | Some (p, mp) ->
      let t0 = Netsim.Clock.now () in
      let cfg =
        Core.Experiments.cell_config ~seed:req.Wire.seed
          ~policy_label:req.Wire.policy ~scope_tag p scope
      in
      let sim_ok =
        match
          Mca.Protocol.run_sync ~max_rounds:200
            ~budget:(Netsim.Budget.share budget 0.25) cfg
        with
        | Mca.Protocol.Converged _ -> true
        | _ -> false
      in
      (* computed at most once, shared between the ladder's bottom rung
         and the reply's exhaustive column, and only through the
         explicit rung's breaker *)
      let exhaustive =
        lazy
          (Core.Experiments.verdict_of_explore
             (Checker.Explore.run ~budget cfg))
      in
      let mp =
        { mp with
          Core.Mca_model.target =
            min mp.Core.Mca_model.target scope.Core.Mca_model.vnodes }
      in
      let backend =
        Ladder.Shared_translation
          (shared_for t scope mp.Core.Mca_model.target, mp)
      in
      let budget_for = function
        | Ladder.Cdcl -> Netsim.Budget.share budget 0.5
        | Ladder.Explicit -> budget
      in
      let answer =
        Ladder.check_consensus ~budget_for ~backend
          ~exhaustive:(fun () -> Lazy.force exhaustive)
          t.ladder
      in
      (* decided before the clock is read: record fields are evaluated
         right to left, so inside the record [cell_seconds] would leave
         the checker out. When the ladder stopped above the explicit
         rung, the reply's column still asks the rung's breaker, so an
         open breaker sheds the exploration; its [unknown] column keeps
         the cell out of the journal and the cache. *)
      let exhaustive =
        if Lazy.is_val exhaustive then Lazy.force exhaustive
        else
          match
            Ladder.guarded t.ladder Ladder.Explicit (fun () -> Lazy.force exhaustive)
          with
          | Some v -> v
          | None -> Core.Experiments.Undecided "explicit breaker open"
      in
      let cell =
        {
          Core.Experiments.policy_label = req.Wire.policy;
          scope_tag;
          sat_verdict = answer.Ladder.verdict;
          sim_ok;
          exhaustive;
          cell_seconds = Netsim.Clock.now () -. t0;
          origin = Core.Experiments.Computed;
        }
      in
      Ok (cell, answer)

(* The request skeleton both verbs share: the request's budget, the
   locked cache lookup, the verb's compute step, the journal-then-cache
   insert of a result worth replaying, and the reply with its served
   counter. A verb supplies its cache and key ([None] bypasses the
   cache), the reply for a hit, and a compute step that answers the
   reply plus, when the result may be replayed, the value to cache and
   the journal record that makes it durable. *)
let serve_request t fd ~deadline_s ~lock ~cache ~key ~hit ~compute =
  let now0 = Netsim.Clock.now () in
  let reply resp =
    (* count before the write lands: a client that reads its reply and
       immediately asks for stats must see itself in the counter *)
    Atomic.incr t.counters.served;
    if
      not
        (send_line fd
           ~deadline:(Netsim.Clock.now () +. t.cfg.io_deadline)
           (Wire.render_response resp))
    then Atomic.decr t.counters.served
  in
  let cached =
    Option.bind key (fun k ->
        Mutex.protect lock (fun () -> Hashtbl.find_opt cache k))
  in
  match cached with
  | Some v -> reply (hit ~now0 v)
  | None ->
      (* past the request's deadline is a cancellation, not a stage
         timing out: the hook fires no later than the wall cap it
         mirrors, and [check] polls the hook first *)
      let wall_s =
        Float.min t.cfg.max_deadline
          (Option.value deadline_s ~default:t.cfg.default_deadline)
      in
      let deadline = Netsim.Clock.after wall_s in
      let stop () =
        Atomic.get t.aborting || Netsim.Clock.now_ns () >= deadline
      in
      let resp, keep =
        compute ~budget:(Netsim.Budget.create ~wall_s ~stop ())
      in
      (match (key, keep) with
      | Some k, Some (v, record) ->
          Option.iter (fun w -> Parallel.Journal.append w record) t.journal_w;
          Mutex.protect lock (fun () -> Hashtbl.replace cache k v)
      | _ -> ());
      reply resp

let verdict_reply (req : Wire.request) (cell : Core.Experiments.sweep_cell)
    ~rung ~cached ~secs =
  Wire.Verdict
    {
      Wire.req_id = req.Wire.id;
      sat = cell.Core.Experiments.sat_verdict;
      exhaustive = cell.Core.Experiments.exhaustive;
      sim_ok = cell.Core.Experiments.sim_ok;
      rung;
      cached;
      secs;
    }

let serve_check t fd (req : Wire.request) =
  let c = t.counters in
  let scope_tag, _ = Wire.scope_of_request req in
  serve_request t fd ~deadline_s:req.Wire.deadline_s ~lock:t.cache_lock
    ~cache:t.cache
    ~key:
      ((* the journal is keyed by (seed, policy, scope tag) with the
          sweep's fixed bid-level count; other values-scopes bypass the
          cache *)
       if req.Wire.values = 6 then
         Some (cache_key ~seed:req.Wire.seed ~policy:req.Wire.policy ~scope_tag)
       else None)
    ~hit:(fun ~now0 cell ->
      Atomic.incr c.cached;
      verdict_reply req cell ~rung:"journal" ~cached:true
        ~secs:(Netsim.Clock.now () -. now0))
    ~compute:(fun ~budget ->
      match compute_cell t req ~budget with
      | Error msg ->
          Atomic.incr c.errors;
          (Wire.Error { req_id = req.Wire.id; msg }, None)
      | Ok (cell, answer) ->
          if answer.Ladder.degraded then Atomic.incr c.degraded;
          if Atomic.get t.stopping then Atomic.incr c.drained;
          (* only decided cells are replayed: an [Undecided] answer
             reflects the load/deadline of one moment, not the cell *)
          ( verdict_reply req cell ~rung:answer.Ladder.rung ~cached:false
              ~secs:cell.Core.Experiments.cell_seconds,
            if Core.Experiments.cell_decided cell then
              Some (cell, Core.Experiments.cell_record ~seed:req.Wire.seed cell)
            else None ))

let spec_reply (h : Wire.submit_header) ~digest (r : Speccheck.record) ~cached =
  Wire.Spec
    {
      Wire.spec_id = h.Wire.sub_id;
      digest;
      command = r.Speccheck.rec_cmd;
      spec_verdict = r.Speccheck.rec_verdict;
      certified = r.Speccheck.rec_certify;
      spec_cached = cached;
      spec_secs = r.Speccheck.rec_secs;
    }

let serve_submit t fd (h : Wire.submit_header) spec =
  let c = t.counters in
  let digest = Speccheck.digest spec in
  serve_request t fd ~deadline_s:h.Wire.sub_deadline_s ~lock:t.spec_lock
    ~cache:t.spec_cache
    ~key:
      (Some
         (spec_cache_key ~digest ~cmd:h.Wire.sub_cmd ~certify:h.Wire.certify))
    ~hit:(fun ~now0:_ r ->
      Atomic.incr c.spec_cached;
      Tenant.note_served t.tenants h.Wire.tenant;
      Tenant.note_cached t.tenants h.Wire.tenant;
      spec_reply h ~digest r ~cached:true)
    ~compute:(fun ~budget ->
      let caps =
        {
          Speccheck.max_bytes = t.cfg.max_spec_bytes;
          max_atoms = t.cfg.max_atoms;
          max_tuples = t.cfg.max_tuples;
        }
      in
      match
        Speccheck.analyze ~caps ~certify:h.Wire.certify ?cmd:h.Wire.sub_cmd
          ~budget spec
      with
      | Result.Error d ->
          Atomic.incr c.spec_errors;
          Tenant.note_served t.tenants h.Wire.tenant;
          (Wire.Bad_spec { req_id = h.Wire.sub_id; diag = d }, None)
      | Ok r ->
          let decided =
            match r.Speccheck.verdict with
            | Wire.Spec_unknown _ -> false
            | _ -> true
          in
          let record =
            {
              Speccheck.rec_digest = digest;
              rec_req = Option.value h.Wire.sub_cmd ~default:"";
              rec_cmd = r.Speccheck.command;
              rec_certify = r.Speccheck.certified;
              rec_verdict = r.Speccheck.verdict;
              rec_secs = r.Speccheck.secs;
            }
          in
          if Atomic.get t.stopping then Atomic.incr c.drained;
          Tenant.note_served t.tenants h.Wire.tenant;
          (* cache only verdicts that can be replayed verbatim: decided,
             and — when certification was asked for — actually certified *)
          ( spec_reply h ~digest record ~cached:false,
            if decided && ((not h.Wire.certify) || r.Speccheck.certified) then
              Some (record, Speccheck.spec_record record)
            else None ))

let worker t =
  let serve job =
    match job.work with
    | Cell req -> serve_check t job.fd req
    | Spec (h, spec) ->
        (* the acceptor took the tenant's queue slot at admission; give
           it back whatever happens to the job *)
        Fun.protect
          ~finally:(fun () -> Tenant.release t.tenants h.Wire.tenant)
          (fun () -> serve_submit t job.fd h spec)
  in
  (* A blocking pop: the admitting [try_push] wakes one parked worker,
     and [join]'s [close] wakes them all once the backlog is drained. *)
  let rec loop () =
    match Parallel.Bqueue.pop t.queue with
    | None -> ()
    | Some job ->
        (try serve job
         with e ->
           Atomic.incr t.counters.errors;
           ignore
             (send_line job.fd
                ~deadline:(Netsim.Clock.now () +. t.cfg.io_deadline)
                (Wire.render_response
                   (Wire.Error
                      { req_id = work_id job.work;
                        msg = "internal: " ^ Printexc.to_string e }))));
        close_quiet job.fd;
        loop ()
  in
  loop ()

(* ---- the acceptor -------------------------------------------------- *)

let max_line = 65536

type pmode =
  | Header  (** assembling the one-line request *)
  | Body of Wire.submit_header  (** assembling a submit body *)

type pending = {
  pfd : Unix.file_descr;
  buf : Buffer.t;
  expires : float;  (** the slow-loris cutoff (header and body alike) *)
  mutable mode : pmode;
}

let shed_reply t req_id =
  Wire.Shed
    {
      req_id;
      depth = Parallel.Bqueue.length t.queue;
      capacity = t.cfg.queue_cap;
    }

(* A complete submit (header + body) arrived: tenant admission, then
   the queue. The order matters — a Granted decision takes a queue
   slot that must be released, so the cheap stopping check runs first
   and a failed push gives the slot straight back. *)
let handle_submit t fd h spec =
  let c = t.counters in
  let io_deadline = Netsim.Clock.now () +. t.cfg.io_deadline in
  let refuse resp =
    ignore (send_line fd ~deadline:io_deadline (Wire.render_response resp));
    close_quiet fd
  in
  if Atomic.get t.stopping then begin
    Atomic.incr c.shed;
    refuse (shed_reply t h.Wire.sub_id)
  end
  else
    match
      Tenant.admit t.tenants ~now:(Netsim.Clock.now ())
        ~queue_cap:t.cfg.queue_cap h.Wire.tenant
    with
    | Tenant.Quota { retry_after_s } ->
        Atomic.incr c.quota;
        refuse
          (Wire.Quota
             { req_id = h.Wire.sub_id; tenant = h.Wire.tenant; retry_after_s })
    | Tenant.Granted ->
        if Parallel.Bqueue.try_push t.queue { fd; work = Spec (h, spec) } then
          Atomic.incr c.admitted
        else begin
          Tenant.release t.tenants h.Wire.tenant;
          Atomic.incr c.shed;
          refuse (shed_reply t h.Wire.sub_id)
        end

type line_action =
  | Line_done  (** socket closed or handed off to a worker *)
  | Await_body of Wire.submit_header  (** keep reading: a body follows *)

let handle_line t fd line =
  let c = t.counters in
  let io_deadline = Netsim.Clock.now () +. t.cfg.io_deadline in
  let refuse resp =
    ignore (send_line fd ~deadline:io_deadline (Wire.render_response resp));
    close_quiet fd
  in
  match Wire.parse_incoming line with
  | Result.Error msg ->
      Atomic.incr c.errors;
      refuse (Wire.Error { req_id = ""; msg });
      Line_done
  | Ok Wire.Get_stats ->
      refuse (Wire.Stats (stats_of t));
      Line_done
  | Ok (Wire.Fence { fence_id; fence_epoch }) ->
      (* a coordinator announcing itself: raise the watermark and echo
         it back. Answered inline — a fence must not queue behind work
         dispatched by the very coordinator it is deposing. *)
      let watermark = raise_epoch t.epoch fence_epoch in
      refuse (Wire.Fenced { req_id = fence_id; fenced_epoch = watermark });
      Line_done
  | Ok (Wire.Repl_hello { repl_id; _ }) ->
      (* workers are not replication sources; only a coordinator's
         journal publisher answers this verb *)
      Atomic.incr c.errors;
      refuse (Wire.Error { req_id = repl_id; msg = "not a replication source" });
      Line_done
  | Ok (Wire.Submit h) ->
      Atomic.incr c.submits;
      if h.Wire.spec_bytes > t.cfg.max_spec_bytes then begin
        (* refused before a single body byte is buffered; the client
           learns the cap from the typed diagnostic *)
        Atomic.incr c.spec_errors;
        refuse
          (Wire.Bad_spec
             {
               req_id = h.Wire.sub_id;
               diag =
                 {
                   Alloylite.Diag.stage = Alloylite.Diag.Cap;
                   span = Alloylite.Diag.point ~line:1 ~col:1;
                   msg =
                     Printf.sprintf "spec is %d bytes, cap is %d"
                       h.Wire.spec_bytes t.cfg.max_spec_bytes;
                   hint = Some "split the model or inline fewer paragraphs";
                 };
             });
        Line_done
      end
      else Await_body h
  | Ok (Wire.Check req) ->
      Atomic.incr c.requests;
      let stale_epoch =
        (* admission-time fencing: a request from a deposed coordinator
           is refused before it can reach a worker or the journal. An
           epoch at or above the watermark raises it (the check itself
           announces the coordinator), and epoch-less legacy clients
           are never fenced. *)
        match req.Wire.epoch with
        | None -> None
        | Some e ->
            let watermark = raise_epoch t.epoch e in
            if e < watermark then Some watermark else None
      in
      (match stale_epoch with
       | Some watermark ->
           Atomic.incr c.fenced;
           refuse (Wire.Fenced { req_id = req.Wire.id; fenced_epoch = watermark })
       | None ->
      if Core.Experiments.lookup_policy req.Wire.policy = None then begin
         Atomic.incr c.errors;
         refuse
           (Wire.Error
              { req_id = req.Wire.id;
                msg = Printf.sprintf "unknown policy %S" req.Wire.policy })
       end
       else if
         Atomic.get t.stopping
         (* draining: no new admissions, only the backlog finishes *)
         || not (Parallel.Bqueue.try_push t.queue { fd; work = Cell req })
       then begin
         Atomic.incr c.shed;
         refuse (shed_reply t req.Wire.id)
       end
       else Atomic.incr c.admitted);
      Line_done
(* on successful push the worker owns [fd] *)

let acceptor t =
  let pending = ref [] in
  let chunk = Bytes.create 4096 in
  let drop p = close_quiet p.pfd in
  let rec feed p =
    (* read what is available; a complete request hands the socket off *)
    match Unix.read p.pfd chunk 0 (Bytes.length chunk) with
    | 0 ->
        drop p;
        None
    | n ->
        Buffer.add_subbytes p.buf chunk 0 n;
        advance p
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Some p
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> feed p
    | exception Unix.Unix_error _ ->
        drop p;
        None
  and advance p =
    match p.mode with
    | Body h ->
        if Buffer.length p.buf >= h.Wire.spec_bytes then begin
          (* bytes past the declared length are ignored: one request
             per connection, no pipelining *)
          handle_submit t p.pfd h (Buffer.sub p.buf 0 h.Wire.spec_bytes);
          None
        end
        else feed p
    | Header -> (
        let s = Buffer.contents p.buf in
        match String.index_opt s '\n' with
        | Some i -> (
            match handle_line t p.pfd (String.sub s 0 i) with
            | Line_done -> None
            | Await_body h ->
                (* whatever followed the newline is body prefix *)
                let rest = String.sub s (i + 1) (String.length s - i - 1) in
                Buffer.clear p.buf;
                Buffer.add_string p.buf rest;
                p.mode <- Body h;
                advance p)
        | None ->
            if Buffer.length p.buf > max_line then begin
              Atomic.incr t.counters.errors;
              ignore
                (send_line p.pfd
                   ~deadline:(Netsim.Clock.now () +. t.cfg.io_deadline)
                   (Wire.render_response
                      (Wire.Error { req_id = ""; msg = "request too long" })));
              drop p;
              None
            end
            else feed p)
  in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      let fds = t.listen_fd :: List.map (fun p -> p.pfd) !pending in
      let ready, _, _ =
        select_retry fds [] (Netsim.Clock.now () +. 0.2)
      in
      if List.mem t.listen_fd ready then begin
        let rec accept_all () =
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              Unix.set_nonblock fd;
              Atomic.incr t.counters.conns;
              pending :=
                {
                  pfd = fd;
                  buf = Buffer.create 128;
                  expires = Netsim.Clock.now () +. t.cfg.io_deadline;
                  mode = Header;
                }
                :: !pending;
              accept_all ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
          | exception Unix.Unix_error _ -> ()
        in
        accept_all ()
      end;
      let now = Netsim.Clock.now () in
      pending :=
        List.filter_map
          (fun p ->
            if List.mem p.pfd ready then feed p
            else if now >= p.expires then begin
              drop p;
              None
            end
            else Some p)
          !pending;
      loop ()
    end
  in
  loop ();
  List.iter drop !pending

(* ---- lifecycle ----------------------------------------------------- *)

let start cfg =
  if cfg.jobs < 1 then invalid_arg "Server.start: jobs < 1";
  if cfg.queue_cap < 1 then invalid_arg "Server.start: queue_cap < 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if cfg.max_spec_bytes > Wire.max_spec_bytes then
    invalid_arg "Server.start: max_spec_bytes above the framing cap";
  let cache = Hashtbl.create 64 in
  let spec_cache = Hashtbl.create 64 in
  let journal_w = load_cache cfg cache spec_cache in
  let t =
    {
      cfg;
      queue = Parallel.Bqueue.create ~capacity:cfg.queue_cap;
      stopping = Atomic.make false;
      aborting = Atomic.make false;
      counters = new_counters ();
      ladder =
        Ladder.make ~trip_after:cfg.trip_after
          ~backoff:
            (Netsim.Backoff.make ~base_s:cfg.breaker_base_s
               ~cap_s:cfg.breaker_cap_s ())
          ~seed:cfg.seed ();
      cache;
      cache_lock = Mutex.create ();
      shared_cache = Hashtbl.create 8;
      shared_lock = Mutex.create ();
      tenants =
        Tenant.create
          { Tenant.default_config with
            Tenant.rate = cfg.quota_rate;
            burst = cfg.quota_burst };
      spec_cache;
      spec_lock = Mutex.create ();
      journal_w;
      epoch = Atomic.make 0;
      listen_fd =
        (let fd = listen cfg.addr in
         Unix.set_nonblock fd;
         fd);
      domains = [];
    }
  in
  let workers = List.init cfg.jobs (fun _ -> Domain.spawn (fun () -> worker t)) in
  let acc = Domain.spawn (fun () -> acceptor t) in
  t.domains <- acc :: workers;
  t

let stop ?(abort = false) t =
  (* Atomic.set only: safe from a signal handler. The acceptor notices
     within its 0.2 s select tick, stops admitting, and the join path
     closes the queue so workers drain the backlog and exit. *)
  if abort then Atomic.set t.aborting true;
  Atomic.set t.stopping true

let stats t = stats_of t

let address t = t.cfg.addr

let join t =
  (* wait for the drain request, then let the backlog finish *)
  while not (Atomic.get t.stopping) do
    Unix.sleepf 0.05
  done;
  Parallel.Bqueue.close t.queue;
  List.iter Domain.join t.domains;
  close_quiet t.listen_fd;
  unlink t.cfg.addr;
  match t.journal_w with Some w -> Parallel.Journal.close w | None -> ()

let run cfg =
  let t = start cfg in
  join t
