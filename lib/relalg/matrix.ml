module F = Sat.Formula

module Tmap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = { arity : int; cells : F.t Tmap.t }

let arity m = m.arity
let empty n = { arity = n; cells = Tmap.empty }

let set m t f =
  if List.length t <> m.arity then invalid_arg "Matrix.set: arity mismatch";
  if f == F.ff then { m with cells = Tmap.remove t m.cells }
  else { m with cells = Tmap.add t f m.cells }

let get m t = match Tmap.find_opt t m.cells with Some f -> f | None -> F.ff

let of_entries n entries =
  List.fold_left
    (fun m (t, f) ->
      if f == F.ff then m else set m t (F.or2 (get m t) f))
    (empty n) entries

let entries m = Tmap.bindings m.cells
let singleton t = of_entries (List.length t) [ (t, F.tt) ]
let iden u = of_entries 2 (List.map (fun a -> ([ a; a ], F.tt)) (Universe.indices u))
let full u n = of_entries n (List.map (fun t -> (t, F.tt)) (Tuple.all u n))

let union a b =
  if a.arity <> b.arity then invalid_arg "Matrix.union: arity mismatch";
  Tmap.fold (fun t f m -> set m t (F.or2 (get m t) f)) b.cells a

let inter a b =
  if a.arity <> b.arity then invalid_arg "Matrix.inter: arity mismatch";
  Tmap.fold
    (fun t fa m ->
      match Tmap.find_opt t b.cells with
      | None -> m
      | Some fb -> set m t (F.and2 fa fb))
    a.cells (empty a.arity)

let diff a b =
  if a.arity <> b.arity then invalid_arg "Matrix.diff: arity mismatch";
  Tmap.fold
    (fun t fa m ->
      match Tmap.find_opt t b.cells with
      | None -> set m t fa
      | Some fb -> set m t (F.and2 fa (F.not_ fb)))
    a.cells (empty a.arity)

let split_last t =
  match List.rev t with
  | last :: rev_init -> (List.rev rev_init, last)
  | [] -> invalid_arg "Matrix.join: nullary tuple"

let join a b =
  let res_arity = a.arity + b.arity - 2 in
  if res_arity < 1 then invalid_arg "Matrix.join: resulting arity < 1";
  (* index b's entries by their first atom *)
  let by_head = Hashtbl.create 64 in
  Tmap.iter
    (fun t f ->
      match t with
      | h :: rest -> Hashtbl.add by_head h (rest, f)
      | [] -> ())
    b.cells;
  (* group contributions per result tuple, then or them *)
  let acc = Hashtbl.create 64 in
  Tmap.iter
    (fun t fa ->
      let init, last = split_last t in
      List.iter
        (fun (rest, fb) ->
          let rt = init @ rest in
          let cur = try Hashtbl.find acc rt with Not_found -> [] in
          Hashtbl.replace acc rt (F.and2 fa fb :: cur))
        (Hashtbl.find_all by_head last))
    a.cells;
  Hashtbl.fold (fun t fs m -> set m t (F.or_ fs)) acc (empty res_arity)

let product a b =
  let m = ref (empty (a.arity + b.arity)) in
  Tmap.iter
    (fun t1 f1 ->
      Tmap.iter (fun t2 f2 -> m := set !m (t1 @ t2) (F.and2 f1 f2)) b.cells)
    a.cells;
  !m

let transpose m =
  if m.arity <> 2 then invalid_arg "Matrix.transpose: arity must be 2";
  Tmap.fold (fun t f acc -> set acc (List.rev t) f) m.cells (empty 2)

let closure u m =
  if m.arity <> 2 then invalid_arg "Matrix.closure: arity must be 2";
  let n = Universe.size u in
  let rec squares acc steps =
    if steps >= n then acc else squares (union acc (join acc acc)) (steps * 2)
  in
  if n = 0 then m else squares m 1

let reflexive_closure u m = union (closure u m) (iden u)

let domain m =
  (* unary matrix of first atoms *)
  Tmap.fold
    (fun t f acc ->
      match t with
      | h :: _ -> set acc [ h ] (F.or2 (get acc [ h ]) f)
      | [] -> acc)
    m.cells (empty 1)

let override p q =
  if p.arity <> q.arity then invalid_arg "Matrix.override: arity mismatch";
  let qdom = domain q in
  let kept =
    Tmap.fold
      (fun t f acc ->
        match t with
        | h :: _ -> set acc t (F.and2 f (F.not_ (get qdom [ h ])))
        | [] -> acc)
      p.cells (empty p.arity)
  in
  union kept q

let restrict_domain s r =
  if s.arity <> 1 then invalid_arg "Matrix.restrict_domain: s must be unary";
  Tmap.fold
    (fun t f acc ->
      match t with
      | h :: _ -> set acc t (F.and2 f (get s [ h ]))
      | [] -> acc)
    r.cells (empty r.arity)

let restrict_range r s =
  if s.arity <> 1 then invalid_arg "Matrix.restrict_range: s must be unary";
  Tmap.fold
    (fun t f acc ->
      let _, last = split_last t in
      set acc t (F.and2 f (get s [ last ])))
    r.cells (empty r.arity)

let formulas m = Tmap.fold (fun _ f acc -> f :: acc) m.cells []
let some m = F.or_ (formulas m)
let no m = F.and_ (List.map F.not_ (formulas m))
let lone m = F.at_most_one (formulas m)
let one m = F.exactly_one (formulas m)

let subset a b =
  if a.arity <> b.arity then invalid_arg "Matrix.subset: arity mismatch";
  F.and_
    (Tmap.fold (fun t fa acc -> F.implies fa (get b t) :: acc) a.cells [])

let equal a b = F.and2 (subset a b) (subset b a)
let count m = formulas m
let map f m = Tmap.fold (fun t g acc -> set acc t (f g)) m.cells (empty m.arity)

let pp u ppf m =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (t, f) -> Format.fprintf ppf "%a: %a@," (Tuple.pp u) t F.pp f)
    (entries m);
  Format.fprintf ppf "@]"
