(* Tests for the overload-safe verification service: the wire codec
   (round trips and hostile input), the per-backend circuit breaker
   (trip, cooldown, half-open probe — all on an injected clock), the
   graceful-degradation ladder (a forced CDCL timeout must fall back to
   the explicit checker and give its standalone verdict), and the daemon
   end to end over a Unix socket — admission control sheds explicitly
   under flood, and an aborted server's journal resumes to verdicts
   byte-identical to an uninterrupted sweep. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_sock () = Filename.temp_file "mca_serve" ".sock"

let with_temp suffix f =
  let path = Filename.temp_file "mca_service" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---- wire codec ---- *)

let test_wire_request_roundtrip () =
  let hostile = "a|b=c%d\ne" in
  let req =
    Service.Wire.request ~id:hostile ~agents:3 ~items:2 ~states:4 ~values:5
      ~seed:9 ~deadline_s:2.5 "submod+release"
  in
  let line = Service.Wire.render_request req in
  check "single line" true (not (String.contains line '\n'));
  (match Service.Wire.parse_incoming line with
  | Ok (Service.Wire.Check r) ->
      check_string "id survives escaping" hostile r.Service.Wire.id;
      check_string "policy" "submod+release" r.Service.Wire.policy;
      check_int "agents" 3 r.Service.Wire.agents;
      check_int "states" 4 r.Service.Wire.states;
      check_int "values" 5 r.Service.Wire.values;
      check_int "seed" 9 r.Service.Wire.seed;
      check "deadline" true (r.Service.Wire.deadline_s = Some 2.5)
  | _ -> Alcotest.fail "request did not parse");
  match Service.Wire.parse_incoming Service.Wire.stats_request with
  | Ok Service.Wire.Get_stats -> ()
  | _ -> Alcotest.fail "stats request did not parse"

let test_wire_response_roundtrip () =
  let roundtrip r =
    match Service.Wire.parse_response (Service.Wire.render_response r) with
    | Ok r' -> r' = r
    | Result.Error _ -> false
  in
  check "verdict" true
    (roundtrip
       (Service.Wire.Verdict
          {
            Service.Wire.req_id = "r|1";
            sat = Core.Experiments.Holds;
            exhaustive = Core.Experiments.Undecided "deadline 2s";
            sim_ok = true;
            rung = "explicit";
            cached = false;
            secs = 0.25;
          }));
  check "shed" true
    (roundtrip (Service.Wire.Shed { req_id = "x"; depth = 8; capacity = 8 }));
  check "error" true
    (roundtrip (Service.Wire.Error { req_id = ""; msg = "no = such | policy" }));
  check "stats" true
    (roundtrip (Service.Wire.Stats [ ("shed", 3); ("admitted", 9) ]))

let test_wire_hostile_input () =
  let rejected s =
    match Service.Wire.parse_incoming s with
    | Result.Error _ -> true
    | Ok _ -> false
  in
  check "garbage" true (rejected "garbage");
  check "empty" true (rejected "");
  check "wrong version" true (rejected "check|2|policy=submod|n=2|j=2|st=5|vals=6");
  check "unknown kind" true (rejected "nuke|1|policy=submod");
  check "missing policy" true (rejected "check|1|n=2|j=2|st=5|vals=6");
  check "zero agents" true (rejected "check|1|policy=submod|n=0|j=2|st=5|vals=6");
  check "bad deadline" true
    (rejected "check|1|policy=submod|n=2|j=2|st=5|vals=6|deadline=-1");
  check "bad response" true
    (match Service.Wire.parse_response "verdict|1|id=x|sat=maybe|exh=holds|sim=true" with
    | Result.Error _ -> true
    | Ok _ -> false)

(* ---- circuit breaker (injected clock) ---- *)

let mk_breaker ?(trip_after = 3) ?(key = "cdcl") () =
  Service.Breaker.make ~trip_after
    ~backoff:(Netsim.Backoff.make ~base_s:1.0 ~cap_s:60.0 ())
    ~seed:7 ~key ()

let test_breaker_trips_and_reopens () =
  let b = mk_breaker () in
  check "starts closed" true (Service.Breaker.admit b ~now:0.0);
  Service.Breaker.timeout b ~now:0.0;
  Service.Breaker.timeout b ~now:0.1;
  check "still closed below threshold" true (Service.Breaker.admit b ~now:0.2);
  Service.Breaker.timeout b ~now:0.2;
  (* third consecutive timeout: open *)
  check "open refuses" false (Service.Breaker.admit b ~now:0.3);
  let until =
    match Service.Breaker.state b ~now:0.3 with
    | Service.Breaker.Open_until t -> t
    | s -> Alcotest.failf "expected open, got %a" Service.Breaker.pp_state s
  in
  check "cooldown in the backoff band" true (until > 0.2 && until <= 60.3);
  (* past the cooldown: exactly one half-open probe *)
  let later = until +. 0.01 in
  check "probe admitted" true (Service.Breaker.admit b ~now:later);
  check "second probe refused" false (Service.Breaker.admit b ~now:later);
  (* probe times out: straight back to open, longer cooldown *)
  Service.Breaker.timeout b ~now:later;
  check "re-opened" false (Service.Breaker.admit b ~now:(later +. 0.01));
  let until2 =
    match Service.Breaker.state b ~now:later with
    | Service.Breaker.Open_until t -> t
    | s -> Alcotest.failf "expected re-open, got %a" Service.Breaker.pp_state s
  in
  check "cooldown grows" true (until2 -. later > until -. 0.2 -. 1e-9)

let test_breaker_success_resets () =
  let b = mk_breaker () in
  Service.Breaker.timeout b ~now:0.0;
  Service.Breaker.timeout b ~now:0.1;
  Service.Breaker.success b;
  Service.Breaker.timeout b ~now:0.2;
  Service.Breaker.timeout b ~now:0.3;
  check "success cleared the streak" true (Service.Breaker.admit b ~now:0.4);
  (* probe success closes fully *)
  Service.Breaker.timeout b ~now:0.4;
  check "tripped" false (Service.Breaker.admit b ~now:0.5);
  (match Service.Breaker.state b ~now:1e9 with
  | Service.Breaker.Half_open -> ()
  | s -> Alcotest.failf "expected half-open, got %a" Service.Breaker.pp_state s);
  check "probe" true (Service.Breaker.admit b ~now:1e9);
  Service.Breaker.success b;
  check "closed again" true (Service.Breaker.admit b ~now:1e9);
  check "and the next timeout does not trip alone" true
    (Service.Breaker.timeout b ~now:1e9;
     Service.Breaker.admit b ~now:1e9)

let test_breaker_streams_decorrelated () =
  let open_until key =
    let b = mk_breaker ~key () in
    Service.Breaker.timeout b ~now:0.0;
    Service.Breaker.timeout b ~now:0.0;
    Service.Breaker.timeout b ~now:0.0;
    match Service.Breaker.state b ~now:0.0 with
    | Service.Breaker.Open_until t -> t
    | _ -> Alcotest.fail "breaker did not open"
  in
  check "same key reproduces the cooldown" true
    (open_until "cdcl" = open_until "cdcl");
  check "distinct keys draw distinct cooldowns" true
    (open_until "cdcl" <> open_until "explicit")

let trip b =
  Service.Breaker.timeout b ~now:0.0;
  Service.Breaker.timeout b ~now:0.0;
  Service.Breaker.timeout b ~now:0.0;
  match Service.Breaker.state b ~now:0.0 with
  | Service.Breaker.Open_until t -> t +. 0.001
  | s -> Alcotest.failf "expected open, got %a" Service.Breaker.pp_state s

let test_breaker_half_open_race () =
  (* two callers race for the half-open slot at the same instant: the
     mutex must admit exactly one probe, every time *)
  for round = 1 to 20 do
    let b = mk_breaker ~key:(Printf.sprintf "race-%d" round) () in
    let now = trip b in
    let gate = Atomic.make 0 in
    let attempt () =
      Atomic.incr gate;
      while Atomic.get gate < 2 do
        Domain.cpu_relax ()
      done;
      Service.Breaker.admit b ~now
    in
    let d1 = Domain.spawn attempt and d2 = Domain.spawn attempt in
    let a1 = Domain.join d1 and a2 = Domain.join d2 in
    check
      (Printf.sprintf "round %d admits exactly one probe" round)
      true (a1 <> a2)
  done

let test_breaker_cancel_releases_probe () =
  let b = mk_breaker () in
  let now = trip b in
  check "probe admitted" true (Service.Breaker.admit b ~now);
  check "second caller refused during the probe" false
    (Service.Breaker.admit b ~now);
  (* the probe is cancelled (drain, request deadline) before the
     backend proved anything: no transition, but the slot comes back *)
  Service.Breaker.cancel b;
  check "cancel does not close the breaker" true
    (Service.Breaker.state b ~now = Service.Breaker.Half_open);
  check "the released slot admits a new probe" true
    (Service.Breaker.admit b ~now);
  Service.Breaker.success b;
  check "probe success closes" true
    (Service.Breaker.state b ~now = Service.Breaker.Closed)

(* ---- wire forward compatibility (proto revision, unknown keys) ---- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_wire_forward_compat () =
  (* a reply from a one-revision-newer server: unknown keys sprinkled
     through must be ignored, known ones still read *)
  (match
     Service.Wire.parse_response
       "verdict|1|id=r9|proto=2|lease=42|sat=holds|exh=holds|sim=true|rung=cdcl|cached=false|secs=0.25|zz=1"
   with
  | Ok (Service.Wire.Verdict v) ->
      check_string "id" "r9" v.Service.Wire.req_id;
      check "sat read through the noise" true
        (v.Service.Wire.sat = Core.Experiments.Holds)
  | Ok _ -> Alcotest.fail "expected a verdict"
  | Result.Error e -> Alcotest.fail e);
  (* a reply from a pre-proto server: no proto field at all *)
  (match Service.Wire.parse_response "shed|1|id=a|depth=3|cap=8" with
  | Ok (Service.Wire.Shed { depth; _ }) -> check_int "depth" 3 depth
  | _ -> Alcotest.fail "a pre-proto shed must still parse");
  (* a request from a newer client: unknown keys ignored server-side *)
  (match
     Service.Wire.parse_incoming
       "check|1|id=x|policy=submod|n=2|j=2|st=5|vals=6|lease=9|zz=a"
   with
  | Ok (Service.Wire.Check r) ->
      check_string "policy" "submod" r.Service.Wire.policy
  | _ -> Alcotest.fail "a future-keyed request must still parse");
  (* every rendered reply advertises the protocol revision *)
  let proto = "|proto=" ^ string_of_int Service.Wire.proto_version in
  List.iter
    (fun resp ->
      let line = Service.Wire.render_response resp in
      check ("proto stamped: " ^ line) true (contains line proto))
    [
      Service.Wire.Verdict
        {
          Service.Wire.req_id = "r";
          sat = Core.Experiments.Holds;
          exhaustive = Core.Experiments.Holds;
          sim_ok = true;
          rung = "cdcl";
          cached = false;
          secs = 0.1;
        };
      Service.Wire.Shed { req_id = "r"; depth = 1; capacity = 1 };
      Service.Wire.Error { req_id = "r"; msg = "m" };
      Service.Wire.Stats [ ("accepted", 1) ];
    ]

(* ---- degradation ladder ---- *)

let v_holds () = Core.Experiments.Holds
let v_timeout () = Core.Experiments.Undecided "deadline 0s"
let v_cancel () = Core.Experiments.Undecided "cancelled"

let mk_ladder () =
  Service.Ladder.make ~trip_after:2
    ~backoff:(Netsim.Backoff.make ~base_s:10.0 ~cap_s:10.0 ~jitter:0.0 ())
    ~seed:3 ()

let test_ladder_top_rung_answers () =
  let l = mk_ladder () in
  let a =
    Service.Ladder.decide ~now:(fun () -> 0.0) l
      [ (Service.Ladder.Cdcl, v_holds); (Service.Ladder.Explicit, v_timeout) ]
  in
  check "verdict" true (a.Service.Ladder.verdict = Core.Experiments.Holds);
  check_string "rung" "cdcl" a.Service.Ladder.rung;
  check "not degraded" false a.Service.Ladder.degraded

let test_ladder_falls_through_and_trips () =
  let l = mk_ladder () in
  let decide () =
    Service.Ladder.decide ~now:(fun () -> 0.0) l
      [ (Service.Ladder.Cdcl, v_timeout); (Service.Ladder.Explicit, v_holds) ]
  in
  let a = decide () in
  check_string "fell to explicit" "explicit" a.Service.Ladder.rung;
  check "degraded" true a.Service.Ladder.degraded;
  check "trail records the reason" true
    (List.mem_assoc "cdcl" a.Service.Ladder.trail);
  (* second timeout trips the cdcl breaker (trip_after = 2): the third
     decide skips the rung without running it *)
  let _ = decide () in
  let ran = ref false in
  let a3 =
    Service.Ladder.decide ~now:(fun () -> 0.0) l
      [
        (Service.Ladder.Cdcl, fun () -> ran := true; Core.Experiments.Holds);
        (Service.Ladder.Explicit, v_holds);
      ]
  in
  check "open rung not run" false !ran;
  check "open rung noted" true
    (List.assoc_opt "cdcl" a3.Service.Ladder.trail = Some "open");
  check_string "answered below" "explicit" a3.Service.Ladder.rung

let test_ladder_cancelled_stops_without_tripping () =
  let l = mk_ladder () in
  for _ = 1 to 5 do
    let a =
      Service.Ladder.decide ~now:(fun () -> 0.0) l
        [ (Service.Ladder.Cdcl, v_cancel); (Service.Ladder.Explicit, v_holds) ]
    in
    check_string "no rung answered" "none" a.Service.Ladder.rung;
    check "verdict is the cancellation" true
      (a.Service.Ladder.verdict = Core.Experiments.Undecided "cancelled")
  done;
  (* five cancellations later the breaker must still be closed *)
  check "breaker untouched" true
    (Service.Breaker.admit (Service.Ladder.breaker l Service.Ladder.Cdcl)
       ~now:0.0)

let test_ladder_bottom_is_unknown () =
  let l = mk_ladder () in
  let a =
    Service.Ladder.decide ~now:(fun () -> 0.0) l
      [ (Service.Ladder.Cdcl, v_timeout); (Service.Ladder.Explicit, v_timeout) ]
  in
  check_string "no rung" "none" a.Service.Ladder.rung;
  check "degraded unknown" true
    (match a.Service.Ladder.verdict with
    | Core.Experiments.Undecided r ->
        String.length r >= 9 && String.sub r 0 9 = "degraded:"
    | _ -> false)

(* The acceptance criterion: force the CDCL rung to time out on a real
   cell and the ladder must land on the explicit checker with exactly
   the verdict the explicit checker gives standalone. *)
let test_ladder_forced_cdcl_timeout_matches_explicit () =
  let scope =
    { Core.Mca_model.pnodes = 2; vnodes = 2; states = 3; values = 4;
      bitwidth = 4 }
  in
  let p, mp =
    match Core.Experiments.lookup_policy "submod" with
    | Some pm -> pm
    | None -> Alcotest.fail "submod not in the paper grid"
  in
  let cfg =
    Core.Experiments.cell_config ~seed:1 ~policy_label:"submod"
      ~scope_tag:"2p2v/3st" p scope
  in
  let standalone () =
    match Checker.Explore.run ~budget:Netsim.Budget.unlimited cfg with
    | Checker.Explore.Converges _ -> Core.Experiments.Holds
    | Checker.Explore.Unknown { reason; _ } -> Core.Experiments.Undecided reason
    | Checker.Explore.Nonconvergence _ | Checker.Explore.Bad_terminal _ ->
        Core.Experiments.Violated
  in
  let mp =
    { mp with
      Core.Mca_model.target = min mp.Core.Mca_model.target scope.Core.Mca_model.vnodes }
  in
  let backend =
    Service.Ladder.Shared_translation
      ( Core.Mca_model.build_shared ~target:mp.Core.Mca_model.target
          Core.Mca_model.Efficient scope,
        mp )
  in
  (* a zero-width budget for the SAT rung, room for the explicit one *)
  let budget_for = function
    | Service.Ladder.Cdcl -> Netsim.Budget.create ~wall_s:0.0 ()
    | Service.Ladder.Explicit -> Netsim.Budget.unlimited
  in
  let forced = ref 0 in
  let a =
    Service.Ladder.check_consensus ~budget_for ~backend
      ~exhaustive:(fun () -> incr forced; standalone ())
      (mk_ladder ())
  in
  check_string "landed on the explicit checker" "explicit" a.Service.Ladder.rung;
  check "degraded" true a.Service.Ladder.degraded;
  check "same verdict as the standalone explicit checker" true
    (a.Service.Ladder.verdict = standalone ());
  check_int "explicit thunk ran once" 1 !forced;
  check "trail: cdcl gave up, then explicit decided" true
    (match a.Service.Ladder.trail with
    | [ ("cdcl", why); ("explicit", "decided") ] ->
        not (List.mem why [ "open"; "cancelled"; "decided" ])
    | _ -> false)

(* ---- the daemon, end to end over a Unix socket ---- *)

let mk_cfg ?(jobs = 2) ?(queue_cap = 8) ?journal ?(deadline = 30.0) path =
  {
    (Service.Server.default_config (Service.Server.Unix_path path)) with
    Service.Server.jobs;
    queue_cap;
    journal;
    default_deadline = deadline;
    io_deadline = 5.0;
    seed = 1;
  }

let stop_and_join t =
  Service.Server.stop t;
  Service.Server.join t

(* old-client <-> new-server differential: frames from one protocol
   revision apart must be served unchanged *)
let test_wire_cross_revision_server () =
  let path = temp_sock () in
  let t = Service.Server.start (mk_cfg ~jobs:1 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  (* the exact frame a pre-proto client renders *)
  (match
     Service.Client.roundtrip addr
       "check|1|id=old1|policy=submod|n=2|j=2|st=3|vals=6|seed=1|deadline=20"
   with
  | Ok (Service.Wire.Verdict v) ->
      check_string "old frame answered" "old1" v.Service.Wire.req_id;
      check "old frame decided" true
        (match v.Service.Wire.sat with
        | Core.Experiments.Undecided _ -> false
        | _ -> true)
  | Ok r ->
      Alcotest.failf "unexpected reply %a" Service.Wire.pp_response r
  | Result.Error e -> Alcotest.fail e);
  (* a one-revision-newer client: its unknown keys must be ignored,
     and this server's proto-stamped reply parses on any old client
     because proto is just another ignorable key there *)
  match
    Service.Client.roundtrip addr
      "check|1|id=new1|policy=submod|n=2|j=2|st=3|vals=6|seed=1|lease=7|zz=a"
  with
  | Ok (Service.Wire.Verdict v) ->
      check_string "future frame answered" "new1" v.Service.Wire.req_id
  | Ok r -> Alcotest.failf "unexpected reply %a" Service.Wire.pp_response r
  | Result.Error e -> Alcotest.fail e

(* ---- the buffered line reader ---- *)

(* A one-connection responder: reads the request line, then writes
   [chunks] as separate writes with a pause between them, so the
   client's reads see partial lines. *)
let serve_chunked path chunks =
  let fd = Service.Server.listen (Service.Server.Unix_path path) in
  Domain.spawn (fun () ->
      let client, _ = Unix.accept ~cloexec:true fd in
      ignore (Service.Client.line_reader client () : string option);
      List.iter
        (fun c ->
          Service.Client.send_all client c;
          Unix.sleepf 0.002)
        chunks;
      Service.Server.close_quiet client;
      Service.Server.close_quiet fd)

let bytes_of s = List.init (String.length s) (fun i -> String.make 1 s.[i])

let test_client_reply_byte_at_a_time () =
  let path = temp_sock () in
  let reply =
    Service.Wire.render_response
      (Service.Wire.Verdict
         {
           Service.Wire.req_id = "r1";
           sat = Core.Experiments.Holds;
           exhaustive = Core.Experiments.Violated;
           sim_ok = true;
           rung = "cdcl";
           cached = false;
           secs = 0.41;
         })
  in
  let d = serve_chunked path (bytes_of (reply ^ "\n")) in
  let got =
    Service.Client.check (Service.Server.Unix_path path)
      (Service.Wire.request ~id:"r1" "submod")
  in
  Domain.join d;
  match got with
  | Ok r -> check_string "reply parsed" reply (Service.Wire.render_response r)
  | Result.Error e -> Alcotest.fail e

let test_repl_stream_split_across_writes () =
  let path = temp_sock () in
  let records = [ "cell|1|seed=1|x=a%7cb"; "disp|1|key=k"; "epoch|1|epoch=2" ] in
  let stream =
    String.concat ""
      (List.map
         (fun r -> Service.Wire.render_response r ^ "\n")
         (Service.Wire.Repl_ack { repl_epoch = 2; repl_from = 0; repl_have = 3 }
         :: List.mapi
              (fun i r ->
                Service.Wire.Repl_frame
                  {
                    frame_idx = i;
                    frame_fp = Parallel.Journal.crc32_hex r;
                    frame_rec = r;
                  })
              records))
  in
  (* seven-byte writes: every line boundary falls inside a write *)
  let chunks =
    List.init
      ((String.length stream + 6) / 7)
      (fun i -> String.sub stream (7 * i) (min 7 (String.length stream - (7 * i))))
  in
  let d = serve_chunked path chunks in
  let got = Service.Repl.pull (Service.Server.Unix_path path) ~from:0 in
  Domain.join d;
  match got with
  | Ok p ->
      check_int "epoch" 2 p.Service.Repl.pulled_epoch;
      Alcotest.(check (list string)) "records" records p.Service.Repl.pulled_records
  | Result.Error e -> Alcotest.fail e

let test_server_verdict_cache_stats () =
  let path = temp_sock () in
  let t = Service.Server.start (mk_cfg ~jobs:1 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let req = Service.Wire.request ~id:"a" ~states:3 "submod" in
  (match Service.Client.check addr req with
  | Ok (Service.Wire.Verdict v) ->
      check_string "id echoed" "a" v.Service.Wire.req_id;
      check "decided" true (v.Service.Wire.sat <> Core.Experiments.Undecided "");
      check "not cached" false v.Service.Wire.cached
  | r ->
      Alcotest.failf "expected verdict, got %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  (* no journal: the in-memory cache still serves the repeat *)
  (match Service.Client.check addr { req with Service.Wire.id = "b" } with
  | Ok (Service.Wire.Verdict v) ->
      check "repeat served from cache" true v.Service.Wire.cached;
      check_string "journal rung" "journal" v.Service.Wire.rung
  | _ -> Alcotest.fail "repeat request failed");
  (* unknown policy is an error reply, not a hang or a crash *)
  (match
     Service.Client.check addr (Service.Wire.request ~id:"c" ~states:3 "bogus")
   with
  | Ok (Service.Wire.Error { req_id; _ }) -> check_string "id echoed" "c" req_id
  | _ -> Alcotest.fail "expected an error reply");
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "requests" 3 (get "requests");
      check_int "admitted" 2 (get "admitted");
      check_int "served" 2 (get "served");
      check_int "cached" 1 (get "cached");
      check_int "errors" 1 (get "errors");
      check_int "shed" 0 (get "shed")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

(* A reply's [secs] covers the whole cell, the explicit checker included:
   at 3p1v/3st the checker is most of a warm cell, so [secs] must be a
   good fraction of an in-process exploration of the same cell (the best
   of three, to shrug off a slow first run). A first request at another
   seed builds the scope's shared translation, which would otherwise
   dwarf the checker in [secs]. *)
let test_server_secs_include_checker () =
  let request seed =
    Service.Wire.request ~id:"x" ~agents:3 ~items:1 ~states:3 ~seed "submod"
  in
  let scope_tag, scope = Service.Wire.scope_of_request (request 1) in
  let p, _ = Option.get (Core.Experiments.lookup_policy "submod") in
  let cfg =
    Core.Experiments.cell_config ~seed:1 ~policy_label:"submod" ~scope_tag p
      scope
  in
  let explore_s =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (Checker.Explore.run cfg);
           Unix.gettimeofday () -. t0))
  in
  let path = temp_sock () in
  let t = Service.Server.start (mk_cfg ~jobs:1 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  (match Service.Client.check addr (request 2) with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "the warm-up check failed");
  match Service.Client.check addr (request 1) with
  | Ok (Service.Wire.Verdict v) ->
      if v.Service.Wire.secs < 0.3 *. explore_s then
        Alcotest.failf "secs %.6f leaves out the checker (in-process %.6f)"
          v.Service.Wire.secs explore_s
  | Ok r -> Alcotest.failf "unexpected reply %a" Service.Wire.pp_response r
  | Result.Error e -> Alcotest.fail e

(* An open explicit breaker sheds the exploration the reply's exhaustive
   column would cost. A 3p2v/3st nonsubmod cell explores past the
   checker's 200 000-state cap; with [trip_after = 1] that one timeout
   opens the breaker for a minute. The next check is answered without an
   exploration: its column names the open breaker, and the cell is not
   cached, so the repeat is computed again. *)
let test_server_open_explicit_breaker_skips_checker () =
  let path = temp_sock () in
  let t =
    Service.Server.start
      { (mk_cfg ~jobs:1 path) with
        Service.Server.trip_after = 1;
        breaker_base_s = 60.0;
        breaker_cap_s = 60.0 }
  in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let verdict req =
    match Service.Client.check addr req with
    | Ok (Service.Wire.Verdict v) -> v
    | Ok r -> Alcotest.failf "unexpected reply %a" Service.Wire.pp_response r
    | Result.Error e -> Alcotest.fail e
  in
  let breaker_open () =
    match Service.Client.get_stats addr with
    | Ok kvs -> List.assoc_opt "breaker_explicit_open" kvs
    | Result.Error e -> Alcotest.failf "stats failed: %s" e
  in
  check "closed at start" true (breaker_open () = Some 0);
  let capped =
    verdict
      (Service.Wire.request ~id:"cap" ~agents:3 ~items:2 ~states:3 "nonsubmod")
  in
  check "the exploration hit the state cap" true
    (capped.Service.Wire.exhaustive
    = Core.Experiments.Undecided "state cap 200000");
  check "one timeout opened the breaker" true (breaker_open () = Some 1);
  let req = Service.Wire.request ~id:"next" ~states:3 "submod" in
  List.iter
    (fun what ->
      let v = verdict req in
      check (what ^ ": decided by CDCL") true
        (match v.Service.Wire.sat with
        | Core.Experiments.Undecided _ -> false
        | Core.Experiments.Holds | Core.Experiments.Violated -> true);
      check (what ^ ": no exploration, the breaker named") true
        (v.Service.Wire.exhaustive
        = Core.Experiments.Undecided "explicit breaker open");
      check (what ^ ": not from the cache") false v.Service.Wire.cached)
    [ "first check"; "its repeat" ]

let test_server_flood_sheds_explicitly () =
  let path = temp_sock () in
  (* one worker, a two-deep queue, sub-second deadlines: most of the
     flood must be shed, all of it must be answered *)
  let t = Service.Server.start (mk_cfg ~jobs:1 ~queue_cap:2 ~deadline:0.3 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let reqs =
    [| Service.Wire.request ~states:3 ~deadline_s:0.3 "submod";
       Service.Wire.request ~states:3 ~deadline_s:0.3 "nonsubmod" |]
  in
  let r = Service.Client.flood ~concurrency:8 ~total:24 addr reqs in
  check_int "every request answered" 24 r.Service.Client.sent;
  check_int "no transport errors, no crashes" 0 r.Service.Client.flood_errors;
  check "flood at 12x capacity sheds" true (r.Service.Client.flood_shed > 0);
  check_int "answered = verdicts + shed" 24
    (r.Service.Client.verdicts + r.Service.Client.flood_shed);
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "server counted the sheds" r.Service.Client.flood_shed
        (get "shed");
      check_int "server still idle and empty" 0 (get "depth")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

(* Satellite 3: abort a server mid-request, restart onto the same
   journal, and the finished verdict set must render byte-identically
   to an uninterrupted sweep of the same scope. *)
let test_server_abort_restart_byte_identical () =
  let scope =
    { Core.Mca_model.pnodes = 2; vnodes = 2; states = 3; values = 6;
      bitwidth = 4 }
  in
  let scopes = [ ("2p2v/3st", scope) ] in
  let reference =
    Core.Experiments.render_sweep
      (Core.Experiments.run_sweep ~jobs:1 ~seed:1 ~scopes ())
  in
  let policies = List.map fst Mca.Policy.paper_grid in
  with_temp ".wal" @@ fun journal ->
  Sys.remove journal;
  let path = temp_sock () in
  let addr = Service.Server.Unix_path path in
  let send policy =
    Service.Client.check addr (Service.Wire.request ~states:3 policy)
  in
  (* first server: abort as soon as the first verdict is journaled,
     leaving the rest of the matrix unfinished *)
  let t1 = Service.Server.start (mk_cfg ~journal path) in
  let feeder = Domain.spawn (fun () -> List.map send policies) in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while
    (Parallel.Journal.read journal).Parallel.Journal.entries = []
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.02
  done;
  Service.Server.stop ~abort:true t1;
  Service.Server.join t1;
  ignore (Domain.join feeder : (Service.Wire.response, string) result list);
  let done_before =
    List.length (Parallel.Journal.read journal).Parallel.Journal.entries
  in
  check "abort interrupted the matrix" true (done_before >= 1);
  (* second server, same journal: the six requests finish the matrix,
     partly from cache, partly recomputed *)
  let t2 = Service.Server.start (mk_cfg ~journal path) in
  Fun.protect ~finally:(fun () -> stop_and_join t2) @@ fun () ->
  List.iter
    (fun policy ->
      match send policy with
      | Ok (Service.Wire.Verdict v) ->
          check "decided after restart" true
            (match v.Service.Wire.sat with
            | Core.Experiments.Undecided _ -> false
            | _ -> true)
      | r ->
          Alcotest.failf "restart: %s failed (%s)" policy
            (match r with
            | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
            | Result.Error e -> e))
    policies;
  (* the journal now resumes to the uninterrupted sweep, byte for byte *)
  let resumed =
    Core.Experiments.run_sweep ~jobs:1 ~seed:1 ~scopes ~journal ~resume:true ()
  in
  check_int "every cell came from the journal"
    (List.length policies) resumed.Core.Experiments.sweep_resumed;
  check_string "resumed sweep byte-identical to uninterrupted run" reference
    (Core.Experiments.render_sweep resumed)

(* ---- the submit verb: wire, tenants, pipeline, daemon ---- *)

let test_wire_submit_roundtrip () =
  let hostile = "a|b=c%d\ne" in
  let h =
    Service.Wire.submit ~id:hostile ~tenant:"t|1" ~cmd:"uniqueID"
      ~certify:true ~deadline_s:2.5 ~spec_bytes:212 ()
  in
  let line = Service.Wire.render_submit_header h in
  check "header is one line" true (not (String.contains line '\n'));
  (match Service.Wire.parse_incoming line with
  | Ok (Service.Wire.Submit h') ->
      check_string "id survives escaping" hostile h'.Service.Wire.sub_id;
      check_string "tenant" "t|1" h'.Service.Wire.tenant;
      check_int "bytes" 212 h'.Service.Wire.spec_bytes;
      check "cmd" true (h'.Service.Wire.sub_cmd = Some "uniqueID");
      check "certify" true h'.Service.Wire.certify;
      check "deadline" true (h'.Service.Wire.sub_deadline_s = Some 2.5)
  | _ -> Alcotest.fail "submit header did not parse");
  let rejected s =
    match Service.Wire.parse_incoming s with
    | Result.Error _ -> true
    | Ok _ -> false
  in
  check "missing bytes" true (rejected "submit|1|id=x");
  check "negative bytes" true (rejected "submit|1|bytes=-1");
  check "bytes over the framing cap" true
    (rejected
       (Printf.sprintf "submit|1|bytes=%d" (Service.Wire.max_spec_bytes + 1)));
  check "bytes at the framing cap accepted" false
    (rejected (Printf.sprintf "submit|1|bytes=%d" Service.Wire.max_spec_bytes))

let test_wire_spec_replies_roundtrip () =
  let roundtrip r =
    match Service.Wire.parse_response (Service.Wire.render_response r) with
    | Ok r' -> r' = r
    | Result.Error _ -> false
  in
  check "spec verdict" true
    (roundtrip
       (Service.Wire.Spec
          {
            Service.Wire.spec_id = "s|1";
            digest = "9af3";
            command = "check uniqueID";
            spec_verdict = Service.Wire.Spec_holds;
            certified = true;
            spec_cached = false;
            spec_secs = 0.25;
          }));
  check "unknown verdict carries its reason" true
    (roundtrip
       (Service.Wire.Spec
          {
            Service.Wire.spec_id = "s2";
            digest = "00";
            command = "run {}";
            spec_verdict = Service.Wire.Spec_unknown "deadline|2s";
            certified = false;
            spec_cached = true;
            spec_secs = 0.5;
          }));
  check "quota" true
    (roundtrip
       (Service.Wire.Quota
          { req_id = "q1"; tenant = "mallory"; retry_after_s = 0.125 }));
  (* a typed rejection: the span survives the wire, and the frame is an
     [error] so a pre-submit client still sees a refusal *)
  let diag =
    {
      Alloylite.Diag.stage = Alloylite.Diag.Parse;
      span = { Alloylite.Diag.line = 3; col = 7; end_line = 3; end_col = 8 };
      msg = "expected } (found ])";
      hint = Some "close the block";
    }
  in
  let line =
    Service.Wire.render_response
      (Service.Wire.Bad_spec { req_id = "b1"; diag })
  in
  check "typed rejection is an error frame" true
    (String.length line >= 6 && String.sub line 0 6 = "error|");
  check "stage on the wire" true (contains line "|stage=parse");
  check "span on the wire" true (contains line "|line=3|col=7");
  match Service.Wire.parse_response line with
  | Ok (Service.Wire.Bad_spec { req_id; diag = d }) ->
      check_string "id" "b1" req_id;
      check "stage" true (d.Alloylite.Diag.stage = Alloylite.Diag.Parse);
      check "span" true (d.Alloylite.Diag.span = diag.Alloylite.Diag.span);
      check "hint" true (d.Alloylite.Diag.hint = Some "close the block");
      check_string "msg round-trips exactly" "expected } (found ])"
        d.Alloylite.Diag.msg
  | _ -> Alcotest.fail "typed rejection did not parse back"

let test_tenant_bucket_and_fairness () =
  let t =
    Service.Tenant.create
      { Service.Tenant.rate = 1.0; burst = 2.0; max_tenants = 16 }
  in
  let admit ~now name = Service.Tenant.admit t ~now ~queue_cap:8 name in
  check "first" true (admit ~now:0.0 "m" = Service.Tenant.Granted);
  check "burst" true (admit ~now:0.0 "m" = Service.Tenant.Granted);
  (match admit ~now:0.0 "m" with
  | Service.Tenant.Quota { retry_after_s } ->
      check "retry hint positive" true (retry_after_s > 0.0)
  | Service.Tenant.Granted -> Alcotest.fail "bucket did not exhaust");
  check "tokens refill with time" true
    (admit ~now:5.0 "m" = Service.Tenant.Granted);
  (* anonymous bypasses both mechanisms *)
  for _ = 1 to 50 do
    check "anonymous always admitted" true
      (admit ~now:0.0 "" = Service.Tenant.Granted)
  done;
  check_int "anonymous holds no slots" 1 (Service.Tenant.active t);
  (* fair share with queue_cap 4: a newcomer gets one slot while [m]
     holds three, and its second in-flight request is refused even
     though its token bucket is full *)
  let admit4 ~now name = Service.Tenant.admit t ~now ~queue_cap:4 name in
  check "newcomer admitted" true (admit4 ~now:5.0 "a" = Service.Tenant.Granted);
  (match admit4 ~now:5.0 "a" with
  | Service.Tenant.Quota _ -> ()
  | Service.Tenant.Granted -> Alcotest.fail "fair share did not bind");
  Service.Tenant.release t "a";
  check "release frees the slot" true
    (admit4 ~now:5.2 "a" = Service.Tenant.Granted);
  check_int "two tenants in flight" 2 (Service.Tenant.active t)

(* a trimmed version of the paper's model: uniqueIDs holds by fact *)
let paper_spec =
  "sig vnode {}\n\
   sig pnode { pid: one Int, initBids: set vnode }\n\
   fact uniqueIDs { all disj p, q: pnode | p.pid != q.pid }\n\
   assert uniqueID { all disj p, q: pnode | p.pid != q.pid }\n\
   check uniqueID for 3 but 4 Int\n\
   run {} for 2 but 4 Int\n"

let ample () = Netsim.Budget.create ~wall_s:30.0 ()

let test_speccheck_pipeline () =
  (* first command by default *)
  (match Service.Speccheck.analyze ~budget:(ample ()) paper_spec with
  | Ok r ->
      check_string "command" "check uniqueID" r.Service.Speccheck.command;
      check "holds" true (r.Service.Speccheck.verdict = Service.Wire.Spec_holds);
      check "uncertified by default" false r.Service.Speccheck.certified
  | Result.Error d -> Alcotest.failf "pipeline: %s" (Alloylite.Diag.to_string d));
  (* certified: a holds (refutation), a counterexample and an instance
     (model certificates), each decided and certified on one session *)
  List.iter
    (fun (what, cmd, spec, want) ->
      match
        Service.Speccheck.analyze ~certify:true ?cmd
          ~budget:(ample ()) spec
      with
      | Ok r ->
          check (what ^ ": verdict") true (r.Service.Speccheck.verdict = want);
          check (what ^ ": certified") true r.Service.Speccheck.certified
      | Result.Error d ->
          Alcotest.failf "certify %s: %s" what (Alloylite.Diag.to_string d))
    [
      ("check uniqueID", None, paper_spec, Service.Wire.Spec_holds);
      ( "check everyoneBids", Some "everyoneBids",
        paper_spec
        ^ "assert everyoneBids { all p: pnode | some p.initBids }\n\
           check everyoneBids for 3 but 4 Int\n",
        Service.Wire.Spec_counterexample );
      ( "run {}", None,
        "sig vnode {}\n\
         sig pnode { pid: one Int, initBids: set vnode }\n\
         run {} for 2 but 4 Int\n",
        Service.Wire.Spec_instance );
    ];
  (* a certified submit whose deadline has passed: the one solve comes
     back UNKNOWN (a counterexample takes decisions, and the budget is
     polled before each), and an UNKNOWN carries no certificate *)
  (match
     Service.Speccheck.analyze ~certify:true ~cmd:"everyoneBids"
       ~budget:(Netsim.Budget.create ~wall_s:0.0 ())
       (paper_spec
       ^ "assert everyoneBids { all p: pnode | some p.initBids }\n\
          check everyoneBids for 3 but 4 Int\n")
   with
  | Ok r ->
      check "past deadline: unknown" true
        (match r.Service.Speccheck.verdict with
        | Service.Wire.Spec_unknown _ -> true
        | _ -> false);
      check "past deadline: uncertified" false r.Service.Speccheck.certified
  | Result.Error d ->
      Alcotest.failf "certify past deadline: %s" (Alloylite.Diag.to_string d));
  (* unknown command: typed error listing what the spec defines *)
  (match
     Service.Speccheck.analyze ~cmd:"ghost" ~budget:(ample ())
       paper_spec
   with
  | Result.Error d ->
      check "elab stage" true (d.Alloylite.Diag.stage = Alloylite.Diag.Elab);
      check "hint lists the commands" true
        (match d.Alloylite.Diag.hint with
        | Some h -> contains h "check uniqueID"
        | None -> false)
  | Ok _ -> Alcotest.fail "unknown command accepted");
  (* a parse error surfaces with its span, never an exception *)
  (match Service.Speccheck.analyze ~budget:(ample ()) "sig a {" with
  | Result.Error d ->
      check "parse stage" true (d.Alloylite.Diag.stage = Alloylite.Diag.Parse)
  | Ok _ -> Alcotest.fail "truncated spec accepted");
  (* a resource-hungry scope is refused before translation *)
  match
    Service.Speccheck.analyze ~budget:(ample ())
      "sig a {}\nrun {} for 999999"
  with
  | Result.Error d ->
      check "cap stage" true (d.Alloylite.Diag.stage = Alloylite.Diag.Cap);
      check "span points at the command" true
        (d.Alloylite.Diag.span.Alloylite.Diag.line = 2)
  | Ok _ -> Alcotest.fail "hostile scope accepted"

let test_speccheck_record_roundtrip () =
  let r =
    {
      Service.Speccheck.rec_digest = Service.Speccheck.digest paper_spec;
      rec_req = "";
      rec_cmd = "check uniqueID";
      rec_certify = true;
      rec_verdict = Service.Wire.Spec_holds;
      rec_secs = 0.125;
    }
  in
  let line = Service.Speccheck.spec_record r in
  (match Service.Speccheck.spec_of_record line with
  | Some r' -> check "round trip" true (r = r')
  | None -> Alcotest.fail "record did not parse back");
  (* a flipped byte breaks the fingerprint *)
  let corrupt = String.map (fun c -> if c = '0' then '1' else c) line in
  check "corrupt record rejected" true
    (corrupt = line || Service.Speccheck.spec_of_record corrupt = None);
  (* the sweep's cell records share the journal and are skipped *)
  check "cell record skipped" true
    (Service.Speccheck.spec_of_record
       "cell|1|seed=1|scope=2p2v/3st|policy=submod|sat=holds|exh=holds|sim=true|secs=0.1|cert=00000000"
    = None)

let submit_cfg ?(queue_cap = 8) ?journal ?(max_spec_bytes = 65536)
    ?(quota_rate = 1000.0) ?(quota_burst = 1000.0) path =
  {
    (Service.Server.default_config (Service.Server.Unix_path path)) with
    Service.Server.jobs = 1;
    queue_cap;
    journal;
    default_deadline = 20.0;
    io_deadline = 5.0;
    max_spec_bytes;
    quota_rate;
    quota_burst;
  }

let test_server_submit_end_to_end () =
  let path = temp_sock () in
  let t = Service.Server.start (submit_cfg ~max_spec_bytes:512 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  (* a valid spec: verdict with the spec's content address *)
  (match Service.Client.submit ~id:"s1" addr paper_spec with
  | Ok (Service.Wire.Spec s) ->
      check_string "id echoed" "s1" s.Service.Wire.spec_id;
      check_string "digest" (Service.Speccheck.digest paper_spec)
        s.Service.Wire.digest;
      check_string "command" "check uniqueID" s.Service.Wire.command;
      check "holds" true (s.Service.Wire.spec_verdict = Service.Wire.Spec_holds);
      check "computed, not cached" false s.Service.Wire.spec_cached
  | r ->
      Alcotest.failf "valid spec: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  (* the run command of the same file, by name selection *)
  (match Service.Client.submit ~id:"s2" ~cmd:"uniqueID" addr paper_spec with
  | Ok (Service.Wire.Spec s) ->
      check "named command served" true
        (s.Service.Wire.spec_verdict = Service.Wire.Spec_holds)
  | _ -> Alcotest.fail "named command failed");
  (* malformed spec: a span-bearing typed error, not a disconnect *)
  (match Service.Client.submit ~id:"s3" addr "sig a {\n  pid: one Int" with
  | Ok (Service.Wire.Bad_spec { req_id; diag }) ->
      check_string "id echoed on rejection" "s3" req_id;
      check "parse stage" true
        (diag.Alloylite.Diag.stage = Alloylite.Diag.Parse);
      check "span present" true (diag.Alloylite.Diag.span.Alloylite.Diag.line >= 1)
  | r ->
      Alcotest.failf "malformed spec: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  (* oversized spec: refused at the cap from the header alone *)
  (match Service.Client.submit ~id:"s4" addr (String.make 4096 'x') with
  | Ok (Service.Wire.Bad_spec { diag; _ }) ->
      check "cap stage" true (diag.Alloylite.Diag.stage = Alloylite.Diag.Cap)
  | r ->
      Alcotest.failf "oversized spec: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  (* certified verdict, then a byte-identical certified cache hit *)
  let canonical s =
    Service.Wire.render_response
      (Service.Wire.Spec { s with Service.Wire.spec_id = ""; spec_cached = false })
  in
  let first =
    match Service.Client.submit ~id:"c" ~certify:true addr paper_spec with
    | Ok (Service.Wire.Spec s) ->
        check "certified" true s.Service.Wire.certified;
        s
    | _ -> Alcotest.fail "certified submit failed"
  in
  (match Service.Client.submit ~id:"c" ~certify:true addr paper_spec with
  | Ok (Service.Wire.Spec s) ->
      check "served from the cache" true s.Service.Wire.spec_cached;
      check "cache hit still certified" true s.Service.Wire.certified;
      check_string "cache hit byte-identical (canonical fields)"
        (canonical first) (canonical s)
  | _ -> Alcotest.fail "cache hit failed");
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "submits" 6 (get "submits");
      check_int "spec_errors" 2 (get "spec_errors");
      check_int "spec_cached" 1 (get "spec_cached");
      check_int "no sheds" 0 (get "shed")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

let test_server_tenant_quota_isolation () =
  let path = temp_sock () in
  (* two-token buckets, negligible refill: the third rapid submission
     from one tenant must be refused while another tenant's first
     request sails through *)
  let t =
    Service.Server.start
      (submit_cfg ~queue_cap:4 ~quota_rate:0.01 ~quota_burst:2.0 path)
  in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let submit ~id tenant =
    Service.Client.submit ~id ~tenant addr paper_spec
  in
  let mallory_quota = ref 0 and mallory_served = ref 0 in
  for i = 1 to 4 do
    match submit ~id:(Printf.sprintf "m%d" i) "mallory" with
    | Ok (Service.Wire.Quota { tenant; retry_after_s; _ }) ->
        check_string "quota names the tenant" "mallory" tenant;
        check "retry hint positive" true (retry_after_s > 0.0);
        incr mallory_quota
    | Ok (Service.Wire.Spec _) -> incr mallory_served
    | r ->
        Alcotest.failf "mallory %d: %s" i
          (match r with
          | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
          | Result.Error e -> e)
  done;
  check_int "burst of 2 served" 2 !mallory_served;
  check_int "the rest refused by quota" 2 !mallory_quota;
  (* the polite tenant is untouched by mallory's exhaustion *)
  (match submit ~id:"a1" "alice" with
  | Ok (Service.Wire.Spec s) ->
      check "alice served" true
        (s.Service.Wire.spec_verdict = Service.Wire.Spec_holds)
  | r ->
      Alcotest.failf "alice: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "server counted the quota refusals" 2 (get "quota")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

let test_server_epoch_fencing () =
  let path = temp_sock () in
  let t = Service.Server.start (mk_cfg ~jobs:1 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let req epoch id =
    Service.Wire.request ~id ?epoch ~states:3 ~seed:1 "submod"
  in
  (* legacy requests carry no epoch and are never fenced *)
  (match Service.Client.check addr (req None "l1") with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "unfenced legacy check must be served");
  (* a coordinator announces epoch 5; the fence is answered inline *)
  (match Service.Client.fence ~id:"f1" addr ~epoch:5 with
  | Ok e -> check_int "fence raises the watermark" 5 e
  | Result.Error e -> Alcotest.fail e);
  (* fencing is monotonic: a lower fence leaves the watermark alone *)
  (match Service.Client.fence addr ~epoch:3 with
  | Ok e -> check_int "stale fence cannot lower the watermark" 5 e
  | Result.Error e -> Alcotest.fail e);
  (* a request from the fenced-off coordinator is refused with the
     watermark — never queued, never computed *)
  (match Service.Client.check addr (req (Some 4) "old1") with
  | Ok (Service.Wire.Fenced { req_id; fenced_epoch }) ->
      check_string "refusal echoes the request id" "old1" req_id;
      check_int "refusal names the watermark" 5 fenced_epoch
  | Ok r -> Alcotest.failf "stale check: %a" Service.Wire.pp_response r
  | Result.Error e -> Alcotest.fail e);
  (* the current epoch is served *)
  (match Service.Client.check addr (req (Some 5) "cur1") with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "current-epoch check must be served");
  (* a newer epoch in an ordinary request raises the watermark too —
     a worker that missed the fence learns it from the first stamped
     request *)
  (match Service.Client.check addr (req (Some 7) "new1") with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "newer-epoch check must be served");
  (match Service.Client.check addr (req (Some 5) "dep1") with
  | Ok (Service.Wire.Fenced { fenced_epoch; _ }) ->
      check_int "the implicit raise fences the old epoch" 7 fenced_epoch
  | Ok r -> Alcotest.failf "deposed check: %a" Service.Wire.pp_response r
  | Result.Error e -> Alcotest.fail e);
  (* legacy requests still pass after all the fencing *)
  (match Service.Client.check addr (req None "l2") with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "legacy check must survive fencing");
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "stats expose the watermark" 7 (get "epoch");
      check_int "stats count the refusals" 2 (get "fenced")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

let test_server_tenant_stats_two_tenant_flood () =
  let path = temp_sock () in
  (* three-token buckets, negligible refill: the per-tenant ledger must
     come out exactly pinned — admission (and therefore quota spend)
     happens before the cache, so cache hits consume tokens too *)
  let t =
    Service.Server.start
      (submit_cfg ~queue_cap:8 ~quota_rate:0.001 ~quota_burst:3.0 path)
  in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let submit ~id tenant = Service.Client.submit ~id ~tenant addr paper_spec in
  let expect_spec ~cached name r =
    match r with
    | Ok (Service.Wire.Spec s) ->
        check (name ^ " cached flag") cached s.Service.Wire.spec_cached
    | r ->
        Alcotest.failf "%s: %s" name
          (match r with
          | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
          | Result.Error e -> e)
  in
  (* alice: compute, two cache hits, then a quota refusal *)
  expect_spec ~cached:false "alice 1" (submit ~id:"a1" "alice");
  expect_spec ~cached:true "alice 2" (submit ~id:"a2" "alice");
  expect_spec ~cached:true "alice 3" (submit ~id:"a3" "alice");
  (match submit ~id:"a4" "alice" with
  | Ok (Service.Wire.Quota { tenant; _ }) ->
      check_string "refusal names alice" "alice" tenant
  | r ->
      Alcotest.failf "alice 4: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e));
  (* bob rides the shared content-addressed cache, within his own quota *)
  expect_spec ~cached:true "bob 1" (submit ~id:"b1" "bob");
  expect_spec ~cached:true "bob 2" (submit ~id:"b2" "bob");
  match Service.Client.get_stats addr with
  | Ok kvs ->
      let get k = Option.value (List.assoc_opt k kvs) ~default:(-1) in
      check_int "alice served" 3 (get "tenant.alice.served");
      check_int "alice refused" 1 (get "tenant.alice.refused");
      check_int "alice cache hits" 2 (get "tenant.alice.cached");
      check_int "bob served" 2 (get "tenant.bob.served");
      check_int "bob refused" 0 (get "tenant.bob.refused");
      check_int "bob cache hits" 2 (get "tenant.bob.cached");
      check_int "server-wide quota refusals" 1 (get "quota")
  | Result.Error e -> Alcotest.failf "stats failed: %s" e

let test_server_spec_journal_restart () =
  with_temp ".wal" @@ fun journal ->
  Sys.remove journal;
  let path = temp_sock () in
  let addr = Service.Server.Unix_path path in
  let secs1 =
    let t1 = Service.Server.start (submit_cfg ~journal path) in
    Fun.protect ~finally:(fun () -> stop_and_join t1) @@ fun () ->
    match Service.Client.submit ~id:"j1" ~certify:true addr paper_spec with
    | Ok (Service.Wire.Spec s) ->
        check "decided" true
          (s.Service.Wire.spec_verdict = Service.Wire.Spec_holds);
        s.Service.Wire.spec_secs
    | _ -> Alcotest.fail "first submit failed"
  in
  (* restart on the same journal: the resubmission must be a cache hit
     carrying the original solve time — no recomputation *)
  let t2 = Service.Server.start (submit_cfg ~journal path) in
  Fun.protect ~finally:(fun () -> stop_and_join t2) @@ fun () ->
  match Service.Client.submit ~id:"j2" ~certify:true addr paper_spec with
  | Ok (Service.Wire.Spec s) ->
      check "served from the recovered journal" true s.Service.Wire.spec_cached;
      check "certified across the restart" true s.Service.Wire.certified;
      check "original solve seconds replayed" true
        (Float.abs (s.Service.Wire.spec_secs -. secs1) < 1e-6)
  | r ->
      Alcotest.failf "restart submit: %s"
        (match r with
        | Ok resp -> Format.asprintf "%a" Service.Wire.pp_response resp
        | Result.Error e -> e)

(* The hostile-tenant smoke, in-process: a mutating flood against the
   submit verb. The contract: every request is answered with a verdict,
   a typed diagnostic, a quota refusal or a shed — transport stays 0
   and the server is still healthy afterwards. *)
let test_server_hostile_spec_flood () =
  let path = temp_sock () in
  let t = Service.Server.start (submit_cfg ~queue_cap:4 path) in
  Fun.protect ~finally:(fun () -> stop_and_join t) @@ fun () ->
  let addr = Service.Server.Unix_path path in
  let r =
    Service.Client.spec_flood ~concurrency:2 ~mutate_seed:11 ~total:40 addr
      paper_spec
  in
  check_int "every submission answered" 40 r.Service.Client.spec_sent;
  check_int "no transport errors, no internal errors" 0
    r.Service.Client.spec_transport;
  check "mutants both pass and fail" true
    (r.Service.Client.spec_verdicts > 0 && r.Service.Client.spec_typed > 0);
  check_int "tally is complete" 40
    (r.Service.Client.spec_verdicts + r.Service.Client.spec_typed
    + r.Service.Client.spec_quota + r.Service.Client.spec_shed);
  (* the server survived: a clean request still gets a clean verdict *)
  match Service.Client.submit ~id:"after" addr paper_spec with
  | Ok (Service.Wire.Spec s) ->
      check "healthy after the flood" true
        (s.Service.Wire.spec_verdict = Service.Wire.Spec_holds)
  | _ -> Alcotest.fail "server unhealthy after the flood"

let suite =
  [
    Alcotest.test_case "client: reply written a byte at a time" `Quick
      test_client_reply_byte_at_a_time;
    Alcotest.test_case "repl: frame stream split across writes" `Quick
      test_repl_stream_split_across_writes;
    Alcotest.test_case "wire: request round trip" `Quick test_wire_request_roundtrip;
    Alcotest.test_case "wire: response round trip" `Quick test_wire_response_roundtrip;
    Alcotest.test_case "wire: hostile input rejected" `Quick test_wire_hostile_input;
    Alcotest.test_case "wire: forward compatibility (proto, unknown keys)"
      `Quick test_wire_forward_compat;
    Alcotest.test_case "breaker: trips, half-opens, re-trips" `Quick
      test_breaker_trips_and_reopens;
    Alcotest.test_case "breaker: success resets" `Quick test_breaker_success_resets;
    Alcotest.test_case "breaker: per-key cooldown streams" `Quick
      test_breaker_streams_decorrelated;
    Alcotest.test_case "breaker: half-open admits exactly one racing probe"
      `Quick test_breaker_half_open_race;
    Alcotest.test_case "breaker: cancelled probe releases the slot" `Quick
      test_breaker_cancel_releases_probe;
    Alcotest.test_case "ladder: top rung answers" `Quick test_ladder_top_rung_answers;
    Alcotest.test_case "ladder: falls through and trips" `Quick
      test_ladder_falls_through_and_trips;
    Alcotest.test_case "ladder: cancellation is not a backend failure" `Quick
      test_ladder_cancelled_stops_without_tripping;
    Alcotest.test_case "ladder: bottom is an honest UNKNOWN" `Quick
      test_ladder_bottom_is_unknown;
    Alcotest.test_case "ladder: forced CDCL timeout matches explicit verdict" `Slow
      test_ladder_forced_cdcl_timeout_matches_explicit;
    Alcotest.test_case "server: verdict, cache, errors, stats" `Slow
      test_server_verdict_cache_stats;
    Alcotest.test_case "server: reply secs include the explicit checker" `Slow
      test_server_secs_include_checker;
    Alcotest.test_case "server: an open explicit breaker skips the checker"
      `Slow test_server_open_explicit_breaker_skips_checker;
    Alcotest.test_case "server: flood sheds explicitly, never hangs" `Slow
      test_server_flood_sheds_explicitly;
    Alcotest.test_case "server: abort + restart resumes byte-identical" `Slow
      test_server_abort_restart_byte_identical;
    Alcotest.test_case "server: serves clients one protocol revision apart"
      `Slow test_wire_cross_revision_server;
    Alcotest.test_case "wire: submit header round trip, hostile headers"
      `Quick test_wire_submit_roundtrip;
    Alcotest.test_case "wire: spec/quota/typed-error replies round trip"
      `Quick test_wire_spec_replies_roundtrip;
    Alcotest.test_case "tenant: token bucket and fair share" `Quick
      test_tenant_bucket_and_fairness;
    Alcotest.test_case "speccheck: pipeline verdicts and typed rejections"
      `Quick test_speccheck_pipeline;
    Alcotest.test_case "speccheck: journal record round trip" `Quick
      test_speccheck_record_roundtrip;
    Alcotest.test_case "server: submit verb end to end (caps, spans, cache)"
      `Slow test_server_submit_end_to_end;
    Alcotest.test_case "server: tenant quotas isolate the polite tenant"
      `Slow test_server_tenant_quota_isolation;
    Alcotest.test_case "server: epoch fencing refuses a deposed coordinator"
      `Slow test_server_epoch_fencing;
    Alcotest.test_case "server: per-tenant ledger pinned by two-tenant flood"
      `Slow test_server_tenant_stats_two_tenant_flood;
    Alcotest.test_case "server: verdict cache survives a restart" `Slow
      test_server_spec_journal_restart;
    Alcotest.test_case "server: hostile spec flood never hangs or crashes"
      `Slow test_server_hostile_spec_flood;
  ]
