(* Child processes and the per-run directory. The service under test is
   a real [mca_serve] child with its socket and journal in that
   directory. Paths stay relative to the working directory so the
   socket path fits the 108-byte sun_path limit however deep the
   checkout is. *)

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* Children not yet reaped, and the run directory: [cleanup] stops the
   ones and removes the other on every way out, an interrupt included. *)
let children : int list ref = ref []
let run_dir : string option ref = ref None
let runs_root = ".perf_runs"

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let spawn_child exe argv ~out ~err =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe argv null out err)
  in
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

let wait_child pid =
  let _, status = waitpid_retry [] pid in
  forget pid;
  status

(* SIGTERM asks for a graceful exit (a daemon drains its backlog); a
   child still alive 20 s later is killed. Either way it is reaped
   before returning. *)
let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Measure.now () +. 20.0 in
  let rec reap () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  forget pid

let cleanup () =
  List.iter stop_child !children;
  Option.iter remove_tree !run_dir;
  run_dir := None;
  try Sys.rmdir runs_root with Sys_error _ -> ()

(* Runs [f dir] with a fresh directory under [.perf_runs/]. *)
let with_run_dir f =
  (try Sys.mkdir runs_root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat runs_root (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  run_dir := Some dir;
  Fun.protect ~finally:cleanup (fun () -> f dir)

type t = { pid : int; addr : Service.Server.addr }

(* [name] distinguishes several daemons of one run (the repeated
   set-ups); each gets its own socket, journal and log. *)
let spawn ~exe ~dir name =
  let sock = Filename.concat dir (name ^ ".sock") in
  let journal = Filename.concat dir (name ^ ".wal") in
  let log =
    Unix.openfile
      (Filename.concat dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        spawn_child exe
          [| exe; "--socket"; sock; "--jobs"; "2"; "--journal"; journal |]
          ~out:log ~err:log)
  in
  let t = { pid; addr = Service.Server.Unix_path sock } in
  let deadline = Measure.now () +. 10.0 in
  let rec wait_listening () =
    match Service.Client.get_stats ~timeout_s:1.0 t.addr with
    | Ok _ -> t
    | Error _ -> (
        match waitpid_retry [ Unix.WNOHANG ] pid with
        | 0, _ when Measure.now () < deadline ->
            Unix.sleepf 0.002;
            wait_listening ()
        | 0, _ ->
            stop_child pid;
            failwith (exe ^ " did not start listening within 10 s")
        | _ ->
            forget pid;
            failwith (exe ^ " exited at startup"))
  in
  wait_listening ()

let with_daemon ~exe ~dir name f =
  let t = spawn ~exe ~dir name in
  Fun.protect ~finally:(fun () -> stop_child t.pid) (fun () -> f t)

let rss_kb t = Option.value (Measure.vm_hwm_kb (Some t.pid)) ~default:0
