type t = int list

let arity = List.length
let concat = ( @ )

let pp u ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
    (fun ppf i -> Format.pp_print_string ppf (Universe.name u i))
    ppf t

let all u n =
  let atoms = Universe.indices u in
  let rec go n =
    if n = 0 then [ [] ]
    else
      let rest = go (n - 1) in
      List.concat_map (fun a -> List.map (fun t -> a :: t) rest) atoms
  in
  if n < 0 then invalid_arg "Tuple.all: negative arity" else go n

let product ts1 ts2 = List.concat_map (fun t1 -> List.map (fun t2 -> t1 @ t2) ts2) ts1
let compare = Stdlib.compare
let sort_uniq ts = List.sort_uniq compare ts
let mem t ts = List.exists (fun t' -> compare t t' = 0) ts
let subset ts1 ts2 = List.for_all (fun t -> mem t ts2) ts1
