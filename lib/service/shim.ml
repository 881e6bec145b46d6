(* Connection-level fault proxy: one accepted connection = one logical
   send on the plan's (src -> dst) link, timestamped by the connection
   index. The plan decides drop/delay/partition; crash windows refuse
   connections outright. Everything runs in plain domains with an
   Atomic stop flag — the same dependency-free toolkit as the rest of
   the service. *)

type config = {
  listen : Server.addr;
  forward : Server.addr;
  plan : Netsim.Faults.plan;
  shim_src : int;
  shim_dst : int;
  delay_unit_s : float;
}

let config ?(shim_src = 0) ?(shim_dst = 1) ?(delay_unit_s = 0.05) ~listen
    ~forward plan =
  { listen; forward; plan; shim_src; shim_dst; delay_unit_s }

type t = {
  cfg : config;
  faults : Netsim.Faults.t;
  faults_lock : Mutex.t;  (* the plan's Rng stream is not thread-safe *)
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  accepted : int Atomic.t;
  acceptor : unit Domain.t option ref;
  conns : unit Domain.t list ref;
  conns_lock : Mutex.t;
}

(* bidirectional copy until both sides are done, the shim stops, or
   either side errors (a reset is just another fault to the peer) *)
let pump stopping a b =
  let buf = Bytes.create 4096 in
  let open_a = ref true and open_b = ref true in
  (try
     while (!open_a || !open_b) && not (Atomic.get stopping) do
       let rd =
         (if !open_a then [ a ] else []) @ if !open_b then [ b ] else []
       in
       let ready, _, _ = Unix.select rd [] [] 0.25 in
       List.iter
         (fun fd ->
           let fwd = if fd == a then b else a in
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 ->
               (try Unix.shutdown fwd Unix.SHUTDOWN_SEND
                with Unix.Unix_error _ -> ());
               if fd == a then open_a := false else open_b := false
           | n -> Client.send_all fwd (Bytes.sub_string buf 0 n)
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
         ready
     done
   with _ -> ());
  Server.close_quiet a;
  Server.close_quiet b

(* is the worker inside one of its crash windows at logical [time]? *)
let crashed_at plan ~agent ~time =
  List.exists
    (fun c ->
      c.Netsim.Faults.agent = agent
      && time >= c.crash_at
      && match c.restart_at with None -> true | Some r -> time < r)
    plan.Netsim.Faults.crashes

let handle t client =
  let time = Atomic.fetch_and_add t.accepted 1 in
  let cfg = t.cfg in
  if crashed_at cfg.plan ~agent:cfg.shim_dst ~time then begin
    Mutex.protect t.faults_lock (fun () ->
        Netsim.Faults.note_to_down t.faults ~time ~src:cfg.shim_src
          ~dst:cfg.shim_dst);
    Server.close_quiet client
  end
  else begin
    let action =
      Mutex.protect t.faults_lock (fun () ->
          Netsim.Faults.on_send t.faults ~time ~src:cfg.shim_src
            ~dst:cfg.shim_dst)
    in
    match action with
    | Netsim.Faults.Lost -> Server.close_quiet client
    | Netsim.Faults.Pass { delays } ->
        let delay = match delays with d :: _ -> d | [] -> 0 in
        if delay > 0 then Unix.sleepf (float_of_int delay *. cfg.delay_unit_s);
        if Atomic.get t.stopping then Server.close_quiet client
        else begin
          match Client.connect cfg.forward with
          | upstream -> pump t.stopping client upstream
          | exception _ -> Server.close_quiet client
        end
  end

let acceptor_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | client, _ ->
            let d = Domain.spawn (fun () -> handle t client) in
            Mutex.protect t.conns_lock (fun () -> t.conns := d :: !(t.conns))
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set t.stopping true
  done

let start cfg =
  let t =
    {
      cfg;
      faults = Netsim.Faults.start cfg.plan;
      faults_lock = Mutex.create ();
      listen_fd = Server.listen cfg.listen;
      stopping = Atomic.make false;
      accepted = Atomic.make 0;
      acceptor = ref None;
      conns = ref [];
      conns_lock = Mutex.create ();
    }
  in
  t.acceptor := Some (Domain.spawn (fun () -> acceptor_loop t));
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match !(t.acceptor) with
    | Some d ->
        Domain.join d;
        t.acceptor := None
    | None -> ());
    Server.close_quiet t.listen_fd;
    Server.unlink t.cfg.listen;
    let conns =
      Mutex.protect t.conns_lock (fun () ->
          let conns = !(t.conns) in
          t.conns := [];
          conns)
    in
    List.iter Domain.join conns
  end

let connections t = Atomic.get t.accepted
let faults t = t.faults
