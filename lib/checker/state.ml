type pending = {
  src : Mca.Types.agent_id;
  dst : Mca.Types.agent_id;
  view : Mca.Types.view;
}

(* A state is never mutated once built: [apply] copies the agent array
   and clones only the agents its transition changes, so a successor
   shares every other agent with its parent. *)
type t = {
  agents : Mca.Agent.t array;
  buffer : pending list;
  drops_left : int;
  dups_left : int;
}

let rec sends i view = function
  | [] -> []
  | nb :: rest -> { src = i; dst = nb; view } :: sends i view rest

(* The messages agent [i] sends, one per neighbor, in neighbor order. *)
let broadcast cfg agents i =
  sends i (Mca.Agent.snapshot agents.(i))
    (Netsim.Graph.neighbors cfg.Mca.Protocol.graph i)

let initial ?(drops = 0) ?(dups = 0) (cfg : Mca.Protocol.config) =
  if drops < 0 || dups < 0 then
    invalid_arg "State.initial: negative adversary budget";
  let n = Netsim.Graph.num_nodes cfg.Mca.Protocol.graph in
  let agents =
    Array.init n (fun i ->
        Mca.Agent.create ~id:i ~num_items:cfg.Mca.Protocol.num_items
          ~base_utility:cfg.Mca.Protocol.base_utilities.(i)
          ~policy:cfg.Mca.Protocol.policies.(i))
  in
  Array.iter (fun a -> ignore (Mca.Agent.bid_phase a)) agents;
  let buffer = List.concat (List.init n (broadcast cfg agents)) in
  { agents; buffer; drops_left = drops; dups_left = dups }

type transition = Deliver of int | Drop of int | Duplicate of int | Quiesce

let consensus s = Mca.Protocol.consensus_reached s.agents
let conflict_free s = Mca.Protocol.conflict_free s.agents
let can_bid s = Array.exists Mca.Agent.would_bid s.agents
let is_terminal _cfg s = s.buffer = [] && (not (can_bid s)) && consensus s

(* The transitions of a state with [n] messages in flight, in the order
   [enabled] lists them: every delivery, then every drop, then every
   duplication. *)
let transitions n ~drops ~dups =
  let tail = if dups then List.init n (fun i -> Duplicate i) else [] in
  let tail = if drops then List.init n (fun i -> Drop i) @ tail else tail in
  List.init n (fun i -> Deliver i) @ tail

(* The lists are immutable, so every state with the same buffer length
   and the same spent budgets shares one: [memo.(n).(f)], where bit 0
   of [f] says drops are left and bit 1 duplications. Longer buffers
   get a fresh list. *)
let memo =
  Array.init 24 (fun n ->
      Array.init 4 (fun f ->
          transitions n ~drops:(f land 1 <> 0) ~dups:(f land 2 <> 0)))

let enabled s =
  match s.buffer with
  | [] -> if (not (can_bid s)) && consensus s then [] else [ Quiesce ]
  | msgs ->
      let n = List.length msgs in
      let drops = s.drops_left > 0 and dups = s.dups_left > 0 in
      if n < Array.length memo then
        memo.(n).(Bool.to_int drops lor (2 * Bool.to_int dups))
      else transitions n ~drops ~dups

(* [Array.copy] allocates through a C call, an array literal inline;
   most configurations have two or three agents. *)
let copy_agents = function
  | [| a; b |] -> [| a; b |]
  | [| a; b; c |] -> [| a; b; c |]
  | [| a; b; c; d |] -> [| a; b; c; d |]
  | agents -> Array.copy agents

let rec nth_message i = function
  | [] -> invalid_arg "State.apply: no such message"
  | m :: rest -> if i = 0 then m else nth_message (i - 1) rest

(* The buffer without its message [i], then [sent]. The messages before
   [i] are copied; the ones after it are shared unless [sent] follows
   them. *)
let rec remove_nth i sent = function
  | [] -> invalid_arg "State.apply: no such message"
  | m :: rest ->
      if i <> 0 then m :: remove_nth (i - 1) sent rest
      else (match sent with [] -> rest | _ :: _ -> rest @ sent)

let apply cfg s tr =
  match tr with
  | Deliver i ->
      let m = nth_message i s.buffer in
      let agents = copy_agents s.agents in
      let dst = Mca.Agent.clone agents.(m.dst) in
      agents.(m.dst) <- dst;
      let changed =
        Mca.Agent.receive dst { Mca.Types.sender = m.src; view = m.view }
      in
      let rebid = Mca.Agent.bid_phase dst in
      let sent = if changed || rebid then broadcast cfg agents m.dst else [] in
      { s with agents; buffer = remove_nth i sent s.buffer }
  | Drop i ->
      if s.drops_left <= 0 then invalid_arg "State.apply: drop budget spent";
      { s with buffer = remove_nth i [] s.buffer; drops_left = s.drops_left - 1 }
  | Duplicate i ->
      if s.dups_left <= 0 then
        invalid_arg "State.apply: duplication budget spent";
      let m = nth_message i s.buffer in
      { s with buffer = s.buffer @ [ m ]; dups_left = s.dups_left - 1 }
  | Quiesce ->
      let agents = copy_agents s.agents in
      let sent = ref [] in
      Array.iteri
        (fun i a ->
          if Mca.Agent.would_bid a then begin
            let a = Mca.Agent.clone a in
            ignore (Mca.Agent.bid_phase a);
            agents.(i) <- a;
            sent := broadcast cfg agents i :: !sent
          end)
        s.agents;
      let sent =
        if !sent = [] && not (Mca.Protocol.consensus_reached agents) then
          (* anti-entropy: full exchange to flush stale entries *)
          List.init (Array.length agents) (broadcast cfg agents)
        else List.rev !sent
      in
      { s with agents; buffer = s.buffer @ List.concat sent }

(* ---- canonical key ---- *)

(* Sorts the first [len] cells of [a] in place; the arrays are short. *)
let sort_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Removes duplicates from the sorted prefix [a.(0 .. len-1)]; returns
   the number of distinct values left at the front. *)
let dedup_prefix (a : int array) len =
  if len = 0 then 0
  else begin
    let k = ref 1 in
    for i = 1 to len - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    !k
  end

(* Index of [t] among the [k] sorted distinct values of [a]. *)
let rank (a : int array) k t =
  let lo = ref 0 and hi = ref (k - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether the [size]-byte record at [a] in [b] sorts after the one at
   [a + size]; if so, swaps them. *)
let swap_if_after b a size =
  let i = ref 0 in
  while !i < size && Bytes.get b (a + !i) = Bytes.get b (a + size + !i) do
    incr i
  done;
  !i < size
  && Bytes.get b (a + !i) > Bytes.get b (a + size + !i)
  && begin
       for j = !i to size - 1 do
         let c = Bytes.get b (a + j) in
         Bytes.set b (a + j) (Bytes.get b (a + size + j));
         Bytes.set b (a + size + j) c
       done;
       true
     end

(* Sorts the [count] records of [size] bytes from [start] in [b], in
   byte order, in place (insertion sort: buffers are short). *)
let sort_records b start size count =
  for i = 1 to count - 1 do
    let j = ref (i - 1) in
    while !j >= 0 && swap_if_after b (start + (!j * size)) size do
      decr j
    done
  done

(* Whether the record whose [n] chunks start at [x * n] in [chunks]
   sorts after the one at [y * n]. *)
let chunks_after (chunks : int array) x y n =
  let i = ref 0 in
  while !i < n && chunks.((x * n) + !i) = chunks.((y * n) + !i) do
    incr i
  done;
  !i < n && chunks.((x * n) + !i) > chunks.((y * n) + !i)

(* One step of the key hash, over an 8-byte word. *)
let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

type packed = { mutable bytes : Bytes.t; mutable len : int; mutable hash : int }

(* The key is built in scratch arrays, one set per domain: server
   workers and sweep domains explore at the same time. *)
type scratch = {
  packed : packed;
  mutable fields : int array;
      (* the width, the counts and budgets, then the agents' fields *)
  mutable raw : int array;  (* every time, the agents' then the records'; then their ranks *)
  mutable at : int array;
      (* where each rank goes: an agent time's field, or a record time's
         chunk lsl 6 lor its bit shift in the chunk *)
  mutable times : int array;  (* the distinct times, sorted *)
  mutable chunks : int array;
      (* the buffer's records, seven one-byte fields to an int, first
         field most significant, the last chunk zero-filled *)
  mutable order : int array;  (* the records in chunk order *)
  mutable least : int;  (* the records' least and greatest time *)
  mutable most : int;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        packed = { bytes = Bytes.create 256; len = 0; hash = 0 };
        fields = Array.make 256 0;
        raw = Array.make 64 0;
        at = Array.make 64 0;
        times = Array.make 64 0;
        chunks = Array.make 64 0;
        order = Array.make 32 0;
        least = 0;
        most = 0;
      })

(* Makes room for [n] fields, keeping those stored. *)
let reserve sc n =
  let f = sc.fields in
  let g = Array.make (max n (2 * Array.length f)) 0 in
  Array.blit f 0 g 0 (Array.length f);
  sc.fields <- g

let winner_code = function Mca.Types.Nobody -> 0 | Mca.Types.Agent i -> i + 1

(* Stores [list] from [pos] on; returns the next position. *)
let rec store_list sc pos = function
  | [] -> pos
  | x :: rest ->
      if pos >= Array.length sc.fields then reserve sc (pos + 16);
      sc.fields.(pos) <- x;
      store_list sc (pos + 1) rest

(* Stores the buffer's messages, from record [r] on, as [per] chunks
   each in [sc.chunks], with a zero byte for each time, whose rank is
   ORed in later; the times go to [sc.raw] from [nt], and the least and
   greatest of them and of [least] and [most] to [sc]. Returns [bits]
   ORed with every field but the times. *)
let rec store_records sc per r nt bits least most = function
  | [] ->
      sc.least <- least;
      sc.most <- most;
      bits
  | m :: rest ->
      let chunks = sc.chunks and view = m.view in
      let v = ref ((m.src lsl 8) lor m.dst) and fill = ref 2 and c = ref (r * per) in
      let bits = ref (bits lor m.src lor m.dst) in
      let least = ref least and most = ref most in
      for j = 0 to Array.length view - 1 do
        let e = view.(j) in
        let w = winner_code e.Mca.Types.winner and bid = e.Mca.Types.bid in
        let t = e.Mca.Types.time in
        if t < !least then least := t;
        if t > !most then most := t;
        bits := !bits lor w lor bid;
        if !fill <= 4 then begin
          (* the item's three fields fit in the chunk *)
          sc.raw.(nt + j) <- t;
          sc.at.(nt + j) <- (!c lsl 6) lor (8 * (4 - !fill));
          v := (((!v lsl 8) lor w) lsl 16) lor (bid lsl 8);
          fill := !fill + 3
        end
        else
          for field = 0 to 2 do
            if !fill = 7 then begin
              chunks.(!c) <- !v;
              incr c;
              v := 0;
              fill := 0
            end;
            if field = 2 then begin
              sc.raw.(nt + j) <- t;
              sc.at.(nt + j) <- (!c lsl 6) lor (8 * (6 - !fill))
            end;
            v := (!v lsl 8) lor (if field = 0 then w else if field = 1 then bid else 0);
            incr fill
          done
      done;
      chunks.(!c) <- !v lsl (8 * (7 - !fill));
      store_records sc per (r + 1) (nt + Array.length view) !bits !least !most rest

(* Puts rank [r] of time [i] where [sc.at] says: the first [na] go to the
   agents' fields, the others into a lane of a record's chunk, and
   stay in [sc.raw] for [pack_wide]. *)
let[@inline] place sc na i r =
  if i < na then sc.fields.(sc.at.(i)) <- r
  else begin
    sc.raw.(i) <- r;
    let c = sc.at.(i) lsr 6 in
    sc.chunks.(c) <- sc.chunks.(c) lor (r lsl (sc.at.(i) land 63))
  end

(* Ranks the [nt] times in [sc.raw], from [least] to [most], among the
   distinct ones and [place]s each rank; returns how many distinct times
   there are. When the times span one or two values (in the paper's
   scopes the agents' clocks stay in step: at 3p1v every time in a
   state is the same, at 3p2v there are two) both ends occur, so [t]'s
   rank is [t - least]; other times are sorted. *)
let rank_times sc na nt ~least ~most =
  let raw = sc.raw in
  (* negative when the subtraction overflows *)
  let span = most - least + 1 in
  if nt = 0 then 0
  else if span = 1 || span = 2 then begin
    for i = 0 to nt - 1 do
      place sc na i (raw.(i) - least)
    done;
    span
  end
  else begin
    if Array.length sc.times < nt then sc.times <- Array.make nt 0;
    let times = sc.times in
    Array.blit raw 0 times 0 nt;
    sort_prefix times nt;
    let k = dedup_prefix times nt in
    for i = 0 to nt - 1 do
      place sc na i (rank times k raw.(i))
    done;
    k
  end

(* Sorts [sc.order] to list the [count] records by their [per] chunks. *)
let sort_chunks sc per count =
  let chunks = sc.chunks and order = sc.order in
  for r = 0 to count - 1 do
    let j = ref (r - 1) in
    while
      !j >= 0
      &&
      if per = 1 then chunks.(order.(!j)) > chunks.(r)
      else chunks_after chunks order.(!j) r per
    do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- r
  done

(* Writes [v] as the [w]-byte field at [pos]. *)
let put b w pos v =
  match w with
  | 1 -> Bytes.set_uint8 b pos v
  | 2 -> Bytes.set_uint16_le b pos v
  | _ -> Bytes.set_int64_le b pos (Int64.of_int v)

(* A key with a field wider than a byte: the records are stored again
   as fields from [start], after the agents', with the ranks [sc.raw]
   holds from [na]; every field is written little-endian in [w] bytes,
   so the records are sorted as bytes. Returns the key's length. *)
let pack_wide sc s w ~items ~start ~record ~na =
  let pending = List.length s.buffer in
  let total = start + (pending * record) in
  if Array.length sc.fields < total then reserve sc total;
  let f = sc.fields in
  List.iteri
    (fun r m ->
      let at = start + (r * record) in
      f.(at) <- m.src;
      f.(at + 1) <- m.dst;
      Array.iteri
        (fun j (e : Mca.Types.entry) ->
          f.(at + 2 + (3 * j)) <- winner_code e.Mca.Types.winner;
          f.(at + 3 + (3 * j)) <- e.Mca.Types.bid;
          f.(at + 4 + (3 * j)) <- sc.raw.(na + (r * items) + j))
        m.view)
    s.buffer;
  let len = 1 + ((total - 1) * w) in
  let p = sc.packed in
  if Bytes.length p.bytes < len + 8 then p.bytes <- Bytes.create (2 * (len + 8));
  let b = p.bytes in
  Bytes.set_uint8 b 0 w;
  for i = 1 to total - 1 do
    put b w (1 + ((i - 1) * w)) f.(i)
  done;
  sort_records b (1 + ((start - 1) * w)) (record * w) pending;
  Bytes.fill b len (((len + 7) land lnot 7) - len) '\000';
  len

(* Packs the canonical key: every timestamp is replaced by its rank
   among the timestamps occurring anywhere in the configuration, and the
   state is packed into fixed-width fields. Byte 0 is the width [w] (1,
   2 or 8 bytes), the narrowest that holds every field. Then: agent and
   item counts, the adversary budgets (the same protocol state with more
   drops available has strictly more behaviors ahead of it), then per
   agent its view (winner, bid, time rank per item), its bundle (length,
   then items in order), its lost flags and its clock rank, and last the
   buffer as a multiset: one fixed-size record (src, dst, view) per
   pending message, records sorted. The layout is parseable, so equal
   keys mean equal rank-canonical states: the key is exact, not a hash,
   and never merges two distinct states. Agent ids are array indices,
   so winner codes ([Nobody] 0, [Agent i] i+1) never collide.

   With one-byte fields, byte order is the order of field values: the
   agents' fields are written a word at a time, and each record as its
   chunks of seven fields, in chunk order. Wider fields are
   little-endian, so their records are sorted as bytes ([pack_wide]).
   The key is zero-padded to whole 8-byte words. *)
let pack s =
  let sc = Domain.DLS.get scratch in
  let agents = s.agents in
  let n = Array.length agents in
  let items = if n = 0 then 0 else Array.length (Mca.Agent.view agents.(0)) in
  let pending = List.length s.buffer in
  let record = 2 + (3 * items) in
  let per = (record + 6) / 7 in
  let nt = (n * (items + 1)) + (pending * items) in
  if Array.length sc.raw < nt then begin
    sc.raw <- Array.make (2 * nt) 0;
    sc.at <- Array.make (2 * nt) 0
  end;
  if Array.length sc.chunks < pending * per then
    sc.chunks <- Array.make (2 * pending * per) 0;
  if Array.length sc.order < pending then sc.order <- Array.make (2 * pending) 0;
  (* room for bundles of up to [items] items; [store_list] makes more *)
  let room = 13 + (n * ((5 * items) + 2)) in
  if Array.length sc.fields < room then reserve sc room;
  let f = sc.fields in
  f.(0) <- 1;
  f.(1) <- n;
  f.(2) <- items;
  f.(3) <- s.drops_left;
  f.(4) <- s.dups_left;
  (* the OR of every field value but the times: its magnitude picks the
     width *)
  let bits = ref (n lor items lor s.drops_left lor s.dups_left) in
  let least = ref max_int and most = ref min_int in
  let pos = ref 5 and nt = ref 0 in
  for i = 0 to n - 1 do
    let a = agents.(i) in
    let f = sc.fields and raw = sc.raw and at = sc.at in
    let view = Mca.Agent.view a in
    for j = 0 to Array.length view - 1 do
      let e = view.(j) and field = !pos + (3 * j) in
      let w = winner_code e.Mca.Types.winner and bid = e.Mca.Types.bid in
      let t = e.Mca.Types.time in
      f.(field) <- w;
      f.(field + 1) <- bid;
      raw.(!nt + j) <- t;
      at.(!nt + j) <- field + 2;
      if t < !least then least := t;
      if t > !most then most := t;
      bits := !bits lor w lor bid
    done;
    nt := !nt + items;
    let len_at = !pos + (3 * items) in
    let next = store_list sc (len_at + 1) (Mca.Agent.bundle a) in
    let f = sc.fields in
    f.(len_at) <- next - len_at - 1;
    for j = len_at to next - 1 do
      bits := !bits lor f.(j)
    done;
    if Array.length f < next + items + 9 then reserve sc (next + items + 9);
    let f = sc.fields in
    for j = 0 to items - 1 do
      f.(next + j) <- Bool.to_int (Mca.Agent.has_lost a j)
    done;
    let clock = next + items and t = Mca.Agent.clock a in
    raw.(!nt) <- t;
    at.(!nt) <- clock;
    if t < !least then least := t;
    if t > !most then most := t;
    incr nt;
    pos := clock + 1
  done;
  let start = !pos and na = !nt in
  (* the agents' fields are written a word at a time, past [start] *)
  if Array.length sc.fields < start + 8 then reserve sc (start + 8);
  let bits = store_records sc per 0 na !bits !least !most s.buffer in
  (* a rank is below [k], so ranks never widen the key *)
  let bits =
    bits lor rank_times sc na (na + (pending * items)) ~least:sc.least ~most:sc.most
  in
  let w =
    if bits < 0 then 8 else if bits < 0x100 then 1 else if bits < 0x10000 then 2 else 8
  in
  let p = sc.packed in
  if w = 1 then begin
    let len = start + (pending * record) in
    if Bytes.length p.bytes < len + 8 then p.bytes <- Bytes.create (2 * (len + 8));
    let b = p.bytes and f = sc.fields in
    (* zeros past the key: the last word's padding, and the agents' last
       word past [start] when nothing follows *)
    Bytes.set_int64_le b (((len + 7) land lnot 7) - 8) 0L;
    for i = start to start + 7 do
      f.(i) <- 0
    done;
    (* the hash mixes the agents' words, then the records' chunks *)
    let h = ref len in
    let i = ref 0 in
    while !i < start do
      let at = !i in
      let lo = f.(at) lor (f.(at + 1) lsl 8) lor (f.(at + 2) lsl 16) lor (f.(at + 3) lsl 24)
      and hi = f.(at + 4) lor (f.(at + 5) lsl 8) lor (f.(at + 6) lsl 16) lor (f.(at + 7) lsl 24) in
      Bytes.set_int64_le b at
        (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32));
      h := mix !h (lo lor (hi lsl 32));
      i := at + 8
    done;
    sort_chunks sc per pending;
    for r = 0 to pending - 1 do
      let from = sc.order.(r) * per and out = start + (r * record) in
      for c = 0 to per - 1 do
        let chunk = sc.chunks.(from + c) in
        Bytes.set_int64_be b (out + (7 * c)) (Int64.shift_left (Int64.of_int chunk) 8);
        h := mix !h chunk
      done
    done;
    p.len <- len;
    p.hash <- !h land max_int
  end
  else begin
    let len = pack_wide sc s w ~items ~start ~record ~na in
    let h = ref len in
    let i = ref 0 in
    while !i < len do
      h := mix !h (Int64.to_int (Bytes.get_int64_le p.bytes !i));
      i := !i + 8
    done;
    p.len <- len;
    p.hash <- !h land max_int
  end;
  p

let canonical_key s =
  let p = pack s in
  Bytes.sub_string p.bytes 0 p.len

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  Array.iter (fun a -> Format.fprintf ppf "%a@," Mca.Agent.pp a) s.agents;
  Format.fprintf ppf "in flight: %d message(s)" (List.length s.buffer);
  if s.drops_left > 0 || s.dups_left > 0 then
    Format.fprintf ppf "; adversary budget: %d drop(s), %d dup(s)"
      s.drops_left s.dups_left;
  Format.fprintf ppf "@]"
