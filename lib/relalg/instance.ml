type t = {
  universe : Universe.t;
  order : string list; (* reversed declaration order *)
  table : (string, Tuple.t list) Hashtbl.t;
}

let create universe bindings =
  let table = Hashtbl.create 16 in
  let order =
    List.rev_map
      (fun (name, ts) ->
        Hashtbl.replace table name (Tuple.sort_uniq ts);
        name)
      bindings
  in
  { universe; order; table }

let universe t = t.universe
let tuples t name = Hashtbl.find t.table name
let rels t = List.rev_map (fun n -> (n, Hashtbl.find t.table n)) t.order

let equal a b =
  let norm t =
    List.sort compare (List.map (fun (n, ts) -> (n, Tuple.sort_uniq ts)) (rels t))
  in
  norm a = norm b

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, ts) ->
      Format.fprintf ppf "%s = {%a}@," name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (Tuple.pp t.universe))
        ts)
    (rels t);
  Format.fprintf ppf "@]"
