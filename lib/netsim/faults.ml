type link_profile = { drop : float; duplicate : float; max_delay : int }

let reliable = { drop = 0.0; duplicate = 0.0; max_delay = 0 }

let lossy ?(drop = 0.0) ?(duplicate = 0.0) ?(max_delay = 0) () =
  let prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Faults.lossy: %s not in [0,1]" name)
  in
  prob "drop" drop;
  prob "duplicate" duplicate;
  if max_delay < 0 then invalid_arg "Faults.lossy: negative max_delay";
  { drop; duplicate; max_delay }

type window = { w_src : int; w_dst : int; w_from : int; w_until : int }

let link_down ~src ~dst ~from_t ~until_t =
  if until_t < from_t then invalid_arg "Faults.link_down: empty window";
  [
    { w_src = src; w_dst = dst; w_from = from_t; w_until = until_t };
    { w_src = dst; w_dst = src; w_from = from_t; w_until = until_t };
  ]

let partition ~group ~others ~from_t ~until_t =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> link_down ~src:a ~dst:b ~from_t ~until_t)
        others)
    group

type crash = { agent : int; crash_at : int; restart_at : int option }

let crash ?restart_at ~agent ~at () =
  (match restart_at with
  | Some r when r <= at -> invalid_arg "Faults.crash: restart before crash"
  | _ -> ());
  { agent; crash_at = at; restart_at }

type plan = {
  default_link : link_profile;
  links : ((int * int) * link_profile) list;
  windows : window list;
  crashes : crash list;
  seed : int;
}

let plan ?(default_link = reliable) ?(links = []) ?(windows = [])
    ?(crashes = []) ~seed () =
  { default_link; links; windows; crashes; seed }

let no_faults = plan ~seed:0 ()

type event_kind =
  | Dropped
  | Duplicated
  | Delayed of int
  | Blocked
  | To_down
  | Crashed
  | Restarted

type event = { time : int; src : int; dst : int; kind : event_kind }

type link_stats = {
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable blocked : int;
  mutable to_down : int;
}

let fresh_stats () =
  { sent = 0; dropped = 0; duplicated = 0; delayed = 0; blocked = 0;
    to_down = 0 }

type t = {
  plan : plan;
  rng : Rng.t;
  stats : (int * int, link_stats) Hashtbl.t;
  mutable rev_events : event list;
}

let start plan =
  {
    plan;
    rng = Rng.create plan.seed;
    stats = Hashtbl.create 16;
    rev_events = [];
  }

let stats_for t src dst =
  match Hashtbl.find_opt t.stats (src, dst) with
  | Some s -> s
  | None ->
      let s = fresh_stats () in
      Hashtbl.add t.stats (src, dst) s;
      s

let profile_for t src dst =
  match List.assoc_opt (src, dst) t.plan.links with
  | Some p -> p
  | None -> t.plan.default_link

let window_down t ~time ~src ~dst =
  List.exists
    (fun w ->
      w.w_src = src && w.w_dst = dst && w.w_from <= time && time < w.w_until)
    t.plan.windows

let note t time src dst kind =
  t.rev_events <- { time; src; dst; kind } :: t.rev_events

type action = Pass of { delays : int list } | Lost

let on_send t ~time ~src ~dst =
  let st = stats_for t src dst in
  st.sent <- st.sent + 1;
  if window_down t ~time ~src ~dst then begin
    st.blocked <- st.blocked + 1;
    note t time src dst Blocked;
    Lost
  end
  else
    let p = profile_for t src dst in
    if p.drop > 0.0 && Rng.float t.rng 1.0 < p.drop then begin
      st.dropped <- st.dropped + 1;
      note t time src dst Dropped;
      Lost
    end
    else begin
      let copies =
        if p.duplicate > 0.0 && Rng.float t.rng 1.0 < p.duplicate then begin
          st.duplicated <- st.duplicated + 1;
          note t time src dst Duplicated;
          2
        end
        else 1
      in
      let delays =
        List.init copies (fun _ ->
            if p.max_delay = 0 then 0
            else
              let d = Rng.int_in t.rng 0 p.max_delay in
              if d > 0 then begin
                st.delayed <- st.delayed + 1;
                note t time src dst (Delayed d)
              end;
              d)
      in
      Pass { delays }
    end

let note_to_down t ~time ~src ~dst =
  let st = stats_for t src dst in
  st.to_down <- st.to_down + 1;
  note t time src dst To_down

let note_crash t ~time ~agent = note t time agent agent Crashed
let note_restart t ~time ~agent = note t time agent agent Restarted
let events t = List.rev t.rev_events

let ledger t =
  List.sort
    (fun (l1, _) (l2, _) -> compare l1 l2)
    (Hashtbl.fold (fun link st acc -> (link, st) :: acc) t.stats [])

let totals t =
  let sum f = Hashtbl.fold (fun _ st acc -> acc + f st) t.stats 0 in
  ( sum (fun s -> s.sent),
    sum (fun s -> s.dropped + s.blocked + s.to_down),
    sum (fun s -> s.duplicated),
    sum (fun s -> s.delayed) )

let pp_event_kind ppf = function
  | Dropped -> Format.pp_print_string ppf "dropped"
  | Duplicated -> Format.pp_print_string ppf "duplicated"
  | Delayed d -> Format.fprintf ppf "delayed+%d" d
  | Blocked -> Format.pp_print_string ppf "blocked"
  | To_down -> Format.pp_print_string ppf "to-down-agent"
  | Crashed -> Format.pp_print_string ppf "crashed"
  | Restarted -> Format.pp_print_string ppf "restarted"

let pp_event ppf e =
  match e.kind with
  | Crashed | Restarted ->
      Format.fprintf ppf "t=%d agent %d %a" e.time e.src pp_event_kind e.kind
  | _ ->
      Format.fprintf ppf "t=%d %d->%d %a" e.time e.src e.dst pp_event_kind
        e.kind

let pp_ledger ppf t =
  let rows = ledger t in
  if rows = [] then Format.pp_print_string ppf "fault ledger: no traffic"
  else begin
    Format.fprintf ppf "@[<v>fault ledger (per link):";
    List.iter
      (fun ((src, dst), st) ->
        Format.fprintf ppf
          "@,  %d->%d sent=%d dropped=%d dup=%d delayed=%d blocked=%d \
           to-down=%d"
          src dst st.sent st.dropped st.duplicated st.delayed st.blocked
          st.to_down)
      rows;
    let sent, lost, dup, delayed = totals t in
    Format.fprintf ppf "@,  total sent=%d lost=%d dup=%d delayed=%d@]" sent
      lost dup delayed
  end

let ledger_digest t =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((src, dst), st) ->
      Buffer.add_string buf
        (Printf.sprintf "%d>%d:%d,%d,%d,%d,%d,%d;" src dst st.sent st.dropped
           st.duplicated st.delayed st.blocked st.to_down))
    (ledger t);
  Buffer.contents buf
