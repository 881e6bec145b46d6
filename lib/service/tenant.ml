type config = { rate : float; burst : float; max_tenants : int }

let default_config = { rate = 5.0; burst = 10.0; max_tenants = 1024 }

type entry = {
  mutable tokens : float;
  mutable last : float;  (** last refill instant *)
  mutable slots : int;  (** queue slots currently held *)
  mutable last_seen : float;  (** eviction ordering *)
  mutable served : int;  (** submissions answered with substance *)
  mutable refused : int;  (** quota refusals (either rule) *)
  mutable cached : int;  (** the subset of [served] from the cache *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let create cfg = { cfg; mutex = Mutex.create (); entries = Hashtbl.create 64 }

(* registry bound: drop the least-recently-seen tenant that holds no
   queue slot. If every entry holds slots (more tenants mid-flight
   than max_tenants — queue_cap makes that practically impossible),
   grow past the bound rather than lose accounting. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun name e acc ->
        if e.slots > 0 then acc
        else
          match acc with
          | Some (_, seen) when seen <= e.last_seen -> acc
          | _ -> Some (name, e.last_seen))
      t.entries None
  in
  match victim with
  | Some (name, _) -> Hashtbl.remove t.entries name
  | None -> ()

let entry_of t ~now name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
      if Hashtbl.length t.entries >= t.cfg.max_tenants then evict_one t;
      let e =
        { tokens = t.cfg.burst; last = now; slots = 0; last_seen = now;
          served = 0; refused = 0; cached = 0 }
      in
      Hashtbl.add t.entries name e;
      e

type decision = Granted | Quota of { retry_after_s : float }

let holders t =
  Hashtbl.fold (fun _ e n -> if e.slots > 0 then n + 1 else n) t.entries 0

let admit t ~now ~queue_cap name =
  if name = "" then Granted
  else
    Mutex.protect t.mutex @@ fun () ->
    let e = entry_of t ~now name in
    e.last_seen <- now;
    e.tokens <-
      Float.min t.cfg.burst (e.tokens +. ((now -. e.last) *. t.cfg.rate));
    e.last <- now;
    if e.tokens < 1.0 then begin
      e.refused <- e.refused + 1;
      Quota { retry_after_s = (1.0 -. e.tokens) /. t.cfg.rate }
    end
    else begin
      (* fair share of the queue among tenants currently in flight,
         with headroom for one newcomer *)
      let others = holders t - if e.slots > 0 then 1 else 0 in
      let share = max 1 (queue_cap / (others + 2)) in
      if e.slots >= share then begin
        (* not a rate problem: retry once a slot frees up. Advertise
           one expected service interval. *)
        e.refused <- e.refused + 1;
        Quota { retry_after_s = 1.0 /. t.cfg.rate }
      end
      else begin
        e.tokens <- e.tokens -. 1.0;
        e.slots <- e.slots + 1;
        Granted
      end
    end

let release t name =
  if name <> "" then
    Mutex.protect t.mutex @@ fun () ->
    match Hashtbl.find_opt t.entries name with
    | Some e -> e.slots <- max 0 (e.slots - 1)
    | None -> ()

let active t = Mutex.protect t.mutex @@ fun () -> holders t

(* ---- per-tenant accounting ----------------------------------------- *)

(* Serving happens in a worker domain after admission released the
   registry mutex, so the notes re-find the entry; a tenant evicted
   between admission and service (possible only once the registry is
   past max_tenants) just loses that one count. *)

let note t name f =
  if name <> "" then
    Mutex.protect t.mutex @@ fun () ->
    match Hashtbl.find_opt t.entries name with Some e -> f e | None -> ()

let note_served t name = note t name (fun e -> e.served <- e.served + 1)

let note_cached t name = note t name (fun e -> e.cached <- e.cached + 1)

let stats t =
  Mutex.protect t.mutex @@ fun () ->
  let rows =
    Hashtbl.fold
      (fun name e acc -> (name, e.served, e.refused, e.cached) :: acc)
      t.entries []
  in
  let rows = List.sort compare rows in
  List.concat_map
    (fun (name, served, refused, cached) ->
      [
        (Printf.sprintf "tenant.%s.served" name, served);
        (Printf.sprintf "tenant.%s.refused" name, refused);
        (Printf.sprintf "tenant.%s.cached" name, cached);
      ])
    rows
