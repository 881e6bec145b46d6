(* mca_serve: the overload-safe verification service.

   Server mode binds a Unix or TCP socket and answers `check` requests
   (one policy-matrix cell each) with the same verdict vocabulary as
   `mca_check --sweep`; overload is answered with an explicit SHED reply
   (exit 12 on the client side), and SIGTERM drains gracefully — the
   backlog completes, decided cells land in the --journal, and a
   restarted server (or `mca_check --sweep --resume`) picks them up.

   The `submit` verb accepts tenant-supplied mini-Alloy specs: a header
   line declaring the body byte count, then the spec text itself. Bad
   specs come back as typed span-carrying diagnostics (stage, line,
   col, hint — identical to `alloy_lite --parse-only` on the same
   file), oversized ones are refused at the --max-spec-bytes cap before
   the body is read, and per-tenant token buckets (--quota-rate,
   --quota-burst) plus fair queue shares keep one flooding tenant from
   starving the rest.

   Client modes: --client POLICY sends one check; --submit FILE sends
   one spec (with --tenant/--cmd/--certify); --stats dumps the live
   counters; --flood N hammers the check verb; --spec-flood N hammers
   the submit verb, mutating the base spec per request when --mutate
   SEED is given (the hostile-tenant smoke probe). *)

open Cmdliner

let exit_violated = 1
let exit_error = 2
let exit_unknown = 10
let exit_shed = 12

let addr_of socket tcp =
  match (socket, tcp) with
  | Some p, None -> Ok (Service.Server.Unix_path p)
  | None, Some hp -> Service.Server.addr_of_string ("tcp:" ^ hp)
  | None, None -> Error "one of --socket or --tcp is required"
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"

let serve addr jobs queue_cap deadline max_deadline io_deadline seed journal
    trip_after max_spec_bytes quota_rate quota_burst =
  let cfg =
    {
      (Service.Server.default_config addr) with
      Service.Server.jobs;
      queue_cap;
      default_deadline = deadline;
      max_deadline;
      io_deadline;
      seed;
      journal;
      trip_after;
      max_spec_bytes;
      quota_rate;
      quota_burst;
    }
  in
  let t = Service.Server.start cfg in
  Parallel.Supervise.on_drain_signals (fun () -> Service.Server.stop t);
  Format.printf "mca_serve: listening on %a (jobs=%d cap=%d%s)@."
    Service.Server.pp_addr addr jobs queue_cap
    (match journal with Some p -> " journal=" ^ p | None -> "");
  Service.Server.join t;
  List.iter
    (fun (k, v) -> Format.printf "%s=%d@." k v)
    (Service.Server.stats t);
  0

let print_response r =
  Format.printf "%a@." Service.Wire.pp_response r;
  match r with
  | Service.Wire.Verdict v -> (
      match (v.Service.Wire.sat, v.Service.Wire.exhaustive) with
      | Core.Experiments.Violated, _ | _, Core.Experiments.Violated ->
          exit_violated
      | Core.Experiments.Undecided _, _ | _, Core.Experiments.Undecided _ ->
          exit_unknown
      | Core.Experiments.Holds, Core.Experiments.Holds -> 0)
  | Service.Wire.Spec s -> (
      match s.Service.Wire.spec_verdict with
      | Service.Wire.Spec_holds | Service.Wire.Spec_instance -> 0
      | Service.Wire.Spec_counterexample | Service.Wire.Spec_none ->
          exit_violated
      | Service.Wire.Spec_unknown _ -> exit_unknown)
  | Service.Wire.Shed _ -> exit_shed
  | Service.Wire.Quota _ -> exit_shed
  | Service.Wire.Bad_spec _ -> exit_error
  | Service.Wire.Error _ -> exit_error
  | Service.Wire.Fenced _ -> exit_error
  | Service.Wire.Repl_ack _ | Service.Wire.Repl_frame _ -> exit_error
  | Service.Wire.Stats _ -> 0

let client addr policy agents items states seed deadline timeout retries
    retry_budget =
  let req =
    Service.Wire.request ~agents ~items ~states ~seed ?deadline_s:deadline
      policy
  in
  let reply, report =
    Service.Client.check_retry ~timeout_s:timeout ~retries
      ?retry_budget_s:retry_budget ~seed addr req
  in
  if report.Service.Client.attempts > 1 then
    Printf.eprintf "retried: attempts=%d shed=%d transport=%d%s\n"
      report.Service.Client.attempts report.Service.Client.retried_shed
      report.Service.Client.retried_transport
      (match report.Service.Client.gave_up with
      | Some why -> " gave-up=" ^ why
      | None -> "");
  match reply with
  | Ok r -> print_response r
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_error

let stats addr timeout =
  match Service.Client.get_stats ~timeout_s:timeout addr with
  | Ok kvs ->
      List.iter (fun (k, v) -> Format.printf "%s=%d@." k v) kvs;
      0
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_error

let read_spec file =
  match open_in file with
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      None
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s

let submit_one addr file tenant cmd_name certify deadline timeout retries
    retry_budget seed =
  match read_spec file with
  | None -> exit_error
  | Some spec -> (
      let reply, report =
        Service.Client.submit_retry ~timeout_s:timeout ~tenant ?cmd:cmd_name
          ~certify ?deadline_s:deadline ~retries ?retry_budget_s:retry_budget
          ~seed addr spec
      in
      if report.Service.Client.attempts > 1 then
        Printf.eprintf "retried: attempts=%d quota=%d transport=%d%s\n"
          report.Service.Client.attempts report.Service.Client.retried_quota
          report.Service.Client.retried_transport
          (match report.Service.Client.gave_up with
          | Some why -> " gave-up=" ^ why
          | None -> "");
      match reply with
      | Ok r -> print_response r
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit_error)

let spec_flood addr total concurrency file tenant cmd_name certify mutate
    timeout =
  match read_spec file with
  | None -> exit_error
  | Some spec ->
      let r =
        Service.Client.spec_flood ~timeout_s:timeout ~concurrency ~tenant
          ?cmd:cmd_name ~certify ?mutate_seed:mutate ~total addr spec
      in
      Format.printf "%a@." Service.Client.pp_spec_flood r;
      if r.Service.Client.spec_transport > 0 then exit_error else 0

let flood addr total concurrency policy agents items states seed deadline
    timeout =
  let req =
    Service.Wire.request ~agents ~items ~states ~seed ?deadline_s:deadline
      policy
  in
  let r =
    Service.Client.flood ~timeout_s:timeout ~concurrency ~total addr [| req |]
  in
  Format.printf "%a@." Service.Client.pp_flood r;
  if r.Service.Client.flood_errors > 0 then exit_error else 0

let main socket tcp mode jobs queue_cap deadline max_deadline io_deadline seed
    journal trip_after max_spec_bytes quota_rate quota_burst policy agents
    items states tenant cmd_name certify mutate concurrency timeout retries
    retry_budget =
  match addr_of socket tcp with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_error
  | Ok addr -> (
      match
        match mode with
        | `Serve ->
            serve addr jobs queue_cap
              (Option.value deadline ~default:30.0)
              max_deadline io_deadline seed journal trip_after max_spec_bytes
              quota_rate quota_burst
        | `Client ->
            client addr policy agents items states seed deadline timeout
              retries retry_budget
        | `Submit file ->
            submit_one addr file tenant cmd_name certify deadline timeout
              retries retry_budget seed
        | `Stats -> stats addr timeout
        | `Flood n ->
            flood addr n concurrency policy agents items states seed deadline
              timeout
        | `Spec_flood (file, n) ->
            spec_flood addr n concurrency file tenant cmd_name certify mutate
              timeout
      with
      | code -> code
      | exception (Failure msg | Invalid_argument msg) ->
          Printf.eprintf "error: %s\n" msg;
          exit_error
      | exception Unix.Unix_error (e, fn, _) ->
          Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
          exit_error)

let term =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~doc:"listen/connect on a Unix socket $(docv)"
             ~docv:"PATH")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~doc:"listen/connect on $(docv)" ~docv:"HOST:PORT")
  in
  let mode =
    let client =
      Arg.(value & flag & info [ "client" ] ~doc:"send one check request")
    in
    let stats =
      Arg.(value & flag & info [ "stats" ] ~doc:"query the live counters")
    in
    let flood =
      Arg.(value & opt (some int) None
           & info [ "flood" ]
               ~doc:"send $(docv) concurrent check requests and tally the \
                     shed/verdict split (overload probe)" ~docv:"N")
    in
    let submit =
      Arg.(value & opt (some file) None
           & info [ "submit" ]
               ~doc:"send the mini-Alloy spec in $(docv) through the submit \
                     verb (also the base spec of --spec-flood)"
               ~docv:"FILE")
    in
    let spec_flood =
      Arg.(value & opt (some int) None
           & info [ "spec-flood" ]
               ~doc:"send $(docv) submissions of the --submit spec and tally \
                     the verdict/typed-error/quota/shed split (hostile-tenant \
                     probe; see --mutate)" ~docv:"N")
    in
    let combine client stats flood submit spec_flood =
      match (client, stats, flood, submit, spec_flood) with
      | false, false, None, None, None -> Ok `Serve
      | true, false, None, None, None -> Ok `Client
      | false, true, None, None, None -> Ok `Stats
      | false, false, Some n, None, None when n > 0 -> Ok (`Flood n)
      | false, false, Some _, None, None -> Error "non-positive --flood"
      | false, false, None, Some f, None -> Ok (`Submit f)
      | false, false, None, Some f, Some n when n > 0 -> Ok (`Spec_flood (f, n))
      | false, false, None, Some _, Some _ -> Error "non-positive --spec-flood"
      | false, false, None, None, Some _ -> Error "--spec-flood needs --submit"
      | _ ->
          Error
            "--client, --stats, --flood and --submit are mutually exclusive"
    in
    Term.term_result' ~usage:true
      Term.(const combine $ client $ stats $ flood $ submit $ spec_flood)
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~doc:"worker domains (server)" ~docv:"N")
  in
  let queue_cap =
    Arg.(value & opt int 8
         & info [ "queue-cap" ]
             ~doc:"admission watermark: requests beyond this backlog are \
                   shed with an explicit SHED reply (server)" ~docv:"N")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ]
             ~doc:"per-request wall-clock allowance in seconds (server \
                   default for clients that do not ask; client: sent with \
                   the request)" ~docv:"SECS")
  in
  let max_deadline =
    Arg.(value & opt float 120.0
         & info [ "max-deadline" ]
             ~doc:"cap on client-requested deadlines (server)" ~docv:"SECS")
  in
  let io_deadline =
    Arg.(value & opt float 5.0
         & info [ "io-deadline" ]
             ~doc:"client socket read/write allowance (server)" ~docv:"SECS")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"cell identity seed")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ]
             ~doc:"write-ahead journal: decided cells are persisted (and \
                   served as cache hits); interchangeable with mca_check \
                   --sweep --journal (server)" ~docv:"PATH")
  in
  let trip_after =
    Arg.(value & opt int 3
         & info [ "trip-after" ]
             ~doc:"circuit breaker: consecutive backend timeouts before a \
                   ladder rung is skipped while it cools off (server)"
             ~docv:"N")
  in
  let max_spec_bytes =
    Arg.(value & opt int Service.Speccheck.default_caps.Service.Speccheck.max_bytes
         & info [ "max-spec-bytes" ]
             ~doc:"submit body cap: larger declarations are refused with a \
                   typed diagnostic before the body is read (server)"
             ~docv:"N")
  in
  let quota_rate =
    Arg.(value & opt float Service.Tenant.default_config.Service.Tenant.rate
         & info [ "quota-rate" ]
             ~doc:"per-tenant sustained submissions per second (server)"
             ~docv:"R")
  in
  let quota_burst =
    Arg.(value & opt float Service.Tenant.default_config.Service.Tenant.burst
         & info [ "quota-burst" ]
             ~doc:"per-tenant burst allowance (server)" ~docv:"B")
  in
  let tenant =
    Arg.(value & opt string ""
         & info [ "tenant" ]
             ~doc:"tenant identity for --submit/--spec-flood (empty = \
                   anonymous, bypasses quotas)" ~docv:"NAME")
  in
  let cmd_name =
    Arg.(value & opt (some string) None
         & info [ "cmd" ]
             ~doc:"check/run command to execute (default: the spec's first)"
             ~docv:"NAME")
  in
  let certify =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"ask for a DRUP-certified verdict (--submit/--spec-flood)")
  in
  let mutate =
    Arg.(value & opt (some int) None
         & info [ "mutate" ]
             ~doc:"--spec-flood: mutate the base spec per request with the \
                   fuzzer operators, seeded with $(docv)" ~docv:"SEED")
  in
  let policy =
    Arg.(value & opt string "submod"
         & info [ "policy" ]
             ~doc:"paper-grid policy label (client/flood): submod, \
                   submod+release, nonsubmod, nonsubmod+release, \
                   submod+rebid-attack, nonsubmod+rebid-attack"
             ~docv:"LABEL")
  in
  let agents =
    Arg.(value & opt int 2 & info [ "agents"; "n" ] ~doc:"scope: agents")
  in
  let items =
    Arg.(value & opt int 2 & info [ "items" ] ~doc:"scope: items")
  in
  let states =
    Arg.(value & opt int 5 & info [ "states" ] ~doc:"scope: trace length")
  in
  let concurrency =
    Arg.(value & opt int 4
         & info [ "concurrency" ] ~doc:"--flood client domains" ~docv:"N")
  in
  let timeout =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~doc:"client-side socket timeout" ~docv:"SECS")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ]
             ~doc:"client: retry a shed reply or a transport failure up to \
                   $(docv) times with jittered exponential backoff (default \
                   0: a single shed stays terminal, exit 12). With --submit, \
                   retries transport failures and quota refusals (honoring \
                   the server's retry=… hint); shed stays terminal" ~docv:"N")
  in
  let retry_budget =
    Arg.(value & opt (some float) None
         & info [ "retry-budget" ]
             ~doc:"client: total wall-clock allowance across retries, \
                   including backoff sleeps" ~docv:"SECS")
  in
  Term.(
    const main $ socket $ tcp $ mode $ jobs $ queue_cap $ deadline
    $ max_deadline $ io_deadline $ seed $ journal $ trip_after
    $ max_spec_bytes $ quota_rate $ quota_burst $ policy $ agents $ items
    $ states $ tenant $ cmd_name $ certify $ mutate $ concurrency $ timeout
    $ retries $ retry_budget)

let cmd =
  let exits =
    Cmd.Exit.info 0 ~doc:"server: clean drain; client: consensus holds"
    :: Cmd.Exit.info exit_violated
         ~doc:"client: consensus violated; submit: counterexample found or \
               no instance"
    :: Cmd.Exit.info exit_error
         ~doc:"invalid arguments, I/O or server error; submit: the spec was \
               rejected with a typed diagnostic"
    :: Cmd.Exit.info exit_unknown
         ~doc:"client: UNKNOWN — the degradation ladder ran out of rungs or \
               the request deadline expired"
    :: Cmd.Exit.info exit_shed
         ~doc:"client: the request was shed by admission control (queue at \
               capacity) or refused by a tenant quota; retry with backoff"
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "mca_serve" ~exits
       ~doc:"Overload-safe verification service for Max-Consensus Auction \
             policy cells")
    term

let () = exit (Cmd.eval' cmd)
