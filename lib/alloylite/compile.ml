open Relalg

type t = {
  model : Model.t;
  scope : Scope.t;
  universe : Universe.t;
  bounds : Bounds.t;
  facts : Ast.formula;
  sig_atoms : (string * string list) list;
}

(* Allocate atom names for the signature tree rooted at [s]. Children
   get disjoint blocks; a non-abstract parent keeps its remaining budget
   as own atoms; an abstract parent is exactly the union of children. *)
let rec allocate_sig model scope (s : Model.sig_decl) :
    (string * string list) list =
  let entry =
    if s.Model.sig_mult = Model.One then { Scope.count = 1; exact = true }
    else if List.mem s.Model.sig_name (model.Model.orderings) then
      { (Scope.entry_for scope s.Model.sig_name) with Scope.exact = true }
    else Scope.entry_for scope s.Model.sig_name
  in
  let children = Model.children model s.Model.sig_name in
  let child_allocs = List.map (allocate_sig model scope) children in
  let child_atoms =
    List.concat_map
      (fun alloc ->
        match alloc with (_, atoms) :: _ -> atoms | [] -> [])
      child_allocs
  in
  let n_children = List.length child_atoms in
  let own_count =
    if s.Model.abstract then 0 else max 0 (entry.Scope.count - n_children)
  in
  let own =
    List.init own_count (fun i -> Printf.sprintf "%s$%d" s.Model.sig_name i)
  in
  (s.Model.sig_name, child_atoms @ own) :: List.concat child_allocs

let structural_facts model =
  let open Ast in
  let facts = ref [] in
  let push name f = facts := (name, f) :: !facts in
  List.iter
    (fun (s : Model.sig_decl) ->
      (* subsig containment *)
      (match s.Model.parent with
      | Some p -> push (s.Model.sig_name ^ "_extends") (rel s.Model.sig_name <=: rel p)
      | None -> ());
      (* sig multiplicity *)
      (match s.Model.sig_mult with
      | Model.One -> push (s.Model.sig_name ^ "_one") (one (rel s.Model.sig_name))
      | Model.Lone -> push (s.Model.sig_name ^ "_lone") (lone (rel s.Model.sig_name))
      | Model.Some_ -> push (s.Model.sig_name ^ "_some") (some (rel s.Model.sig_name))
      | Model.Set -> ());
      (* abstract = union of children *)
      if s.Model.abstract then begin
        match Model.children model s.Model.sig_name with
        | [] -> ()
        | kids ->
            let union =
              List.fold_left
                (fun acc k -> acc + rel k.Model.sig_name)
                (rel (List.hd kids).Model.sig_name)
                (List.tl kids)
            in
            push (s.Model.sig_name ^ "_abstract") (rel s.Model.sig_name <=: union)
      end;
      (* fields: containment and multiplicity *)
      List.iter
        (fun (f : Model.field) ->
          let col_expr c = rel c in
          let prod =
            List.fold_left
              (fun acc c -> acc --> col_expr c)
              (rel f.Model.owner) f.Model.cols
          in
          push (f.Model.field_name ^ "_cols") (rel f.Model.field_name <=: prod);
          (* trailing multiplicity: quantify all columns but the last *)
          let n_mid = Stdlib.( - ) (List.length f.Model.cols) 1 in
          let mid_cols = List.filteri (fun i _ -> i < n_mid) f.Model.cols in
          let decls =
            ("this", rel f.Model.owner)
            :: List.mapi (fun i c -> (Printf.sprintf "c%d" i, col_expr c)) mid_cols
          in
          (* join the quantified columns in declaration order:
             this.f, then c0.(this.f), ... leaving a unary last column *)
          let target =
            List.fold_left
              (fun acc (x, _) -> join (v x) acc)
              (rel f.Model.field_name)
              decls
          in
          let mult_f =
            match f.Model.field_mult with
            | Model.One -> Some (one target)
            | Model.Lone -> Some (lone target)
            | Model.Some_ -> Some (some target)
            | Model.Set -> None
          in
          match mult_f with
          | Some mf -> push (f.Model.field_name ^ "_mult") (for_all decls mf)
          | None -> ())
        s.Model.fields)
    model.Model.sigs;
  List.rev !facts

(* Predicted translation size, computable without allocating anything —
   the service's pre-admission cap check. Counts are upper bounds (child
   atoms are double-counted into their parents rather than deduped) and
   saturate instead of overflowing, so a hostile [for 999999999] scope
   yields a huge number, not wraparound. *)
let universe_estimate model scope =
  let sat_add a b = if a > max_int - b then max_int else a + b in
  let sat_mul a b =
    if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
  in
  let sig_count (s : Model.sig_decl) =
    if s.Model.sig_mult = Model.One then 1
    else max 0 (Scope.entry_for scope s.Model.sig_name).Scope.count
  in
  let ints =
    match Scope.int_range scope with
    | None -> 0
    | Some (lo, hi) -> hi - lo + 1
  in
  let atoms =
    List.fold_left
      (fun acc s -> sat_add acc (sig_count s))
      ints model.Model.sigs
  in
  let col_count c =
    if c = "Int" then ints
    else match Model.find_sig model c with Some s -> sig_count s | None -> 0
  in
  let tuples =
    List.fold_left
      (fun acc (s : Model.sig_decl) ->
        List.fold_left
          (fun acc (f : Model.field) ->
            sat_add acc
              (List.fold_left
                 (fun p c -> sat_mul p (col_count c))
                 (sig_count s) f.Model.cols))
          acc s.Model.fields)
      0 model.Model.sigs
  in
  (atoms, tuples)

let prepare model scope =
  (match Model.validate model with
  | Ok () -> ()
  | Error msg -> failwith ("Alloylite.Compile: " ^ msg));
  let roots = List.filter (fun s -> s.Model.parent = None) model.Model.sigs in
  let sig_atoms = List.concat_map (allocate_sig model scope) roots in
  (* universe: all sig atoms (dedup: child atoms appear in parents too)
     plus Int atoms *)
  let all_atoms =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun a ->
        if Hashtbl.mem seen a then false
        else begin
          Hashtbl.add seen a ();
          true
        end)
      (List.concat_map snd sig_atoms)
  in
  let int_atoms =
    match Scope.int_range scope with
    | None -> []
    | Some (lo, hi) -> List.init (hi - lo + 1) (fun i -> (string_of_int (lo + i), lo + i))
  in
  let universe = Universe.create_with_ints all_atoms int_atoms in
  let atom_idx name = Universe.index universe name in
  let bounds = Bounds.create universe in
  (* signature relations *)
  let bounds =
    List.fold_left
      (fun b (s : Model.sig_decl) ->
        let atoms = List.assoc s.Model.sig_name sig_atoms in
        let upper = List.map (fun a -> [ atom_idx a ]) atoms in
        let exact =
          s.Model.sig_mult = Model.One
          || List.mem s.Model.sig_name model.Model.orderings
          || ((Scope.entry_for scope s.Model.sig_name).Scope.exact
             && not s.Model.abstract)
        in
        let lower = if exact then upper else [] in
        Bounds.declare b s.Model.sig_name ~arity:1 ~lower ~upper)
      bounds model.Model.sigs
  in
  (* Int relation *)
  let bounds =
    if int_atoms = [] then bounds
    else
      Bounds.declare_exact bounds "Int" ~arity:1
        (List.map (fun (a, _) -> [ atom_idx a ]) int_atoms)
  in
  (* field relations *)
  let col_atoms c =
    if c = "Int" then List.map fst int_atoms
    else
      match List.assoc_opt c sig_atoms with
      | Some atoms -> atoms
      | None -> failwith ("Alloylite.Compile: unknown column signature " ^ c)
  in
  let bounds =
    List.fold_left
      (fun b (f : Model.field) ->
        let cols = f.Model.owner :: f.Model.cols in
        let tuple_sets =
          List.map (fun c -> List.map (fun a -> [ atom_idx a ]) (col_atoms c)) cols
        in
        let upper =
          List.fold_left Tuple.product (List.hd tuple_sets) (List.tl tuple_sets)
        in
        Bounds.declare b f.Model.field_name ~arity:(List.length cols) ~lower:[]
          ~upper)
      bounds
      (List.concat_map (fun s -> s.Model.fields) model.Model.sigs)
  in
  (* ordering relations: exact bounds over allocation order *)
  let bounds =
    List.fold_left
      (fun b ord_sig ->
        let atoms = List.assoc ord_sig sig_atoms in
        let idx = List.map atom_idx atoms in
        match idx with
        | [] -> failwith ("Alloylite.Compile: ordering over empty sig " ^ ord_sig)
        | first :: _ ->
            let rec pairs = function
              | a :: (b' :: _ as rest) -> [ a; b' ] :: pairs rest
              | _ -> []
            in
            let last = List.nth idx (List.length idx - 1) in
            let b = Bounds.declare_exact b (ord_sig ^ "_first") ~arity:1 [ [ first ] ] in
            let b = Bounds.declare_exact b (ord_sig ^ "_last") ~arity:1 [ [ last ] ] in
            Bounds.declare_exact b (ord_sig ^ "_next") ~arity:2 (pairs idx))
      bounds model.Model.orderings
  in
  let facts =
    Ast.and_
      (List.map snd (structural_facts model) @ List.map snd model.Model.facts)
  in
  { model; scope; universe; bounds; facts; sig_atoms }

let int_atom c n =
  match Scope.int_range c.scope with
  | None -> invalid_arg "Compile.int_atom: scope has no bitwidth"
  | Some (lo, hi) ->
      if n < lo || n > hi then
        invalid_arg
          (Printf.sprintf "Compile.int_atom: %d outside [%d,%d]" n lo hi)
      else
        (* the Int atom is named by its decimal value; build a singleton
           via comprehension over Int *)
        Ast.compr
          [ ("n", Ast.rel "Int") ]
          (Ast.( =! ) (Ast.sum_over (Ast.v "n")) (Ast.i n))

type outcome = Translate.outcome = Sat of Instance.t | Unsat

let translation ?symmetry c f =
  Translate.translate ?symmetry c.bounds (Ast.and_ [ c.facts; f ])

(* Every command is [translation] plus a throwaway session: opened for
   one solve, then dropped. The unbudgeted commands cannot come back
   [Unknown]. *)
let decide sn =
  match Translate.solve_cell ~budget:Netsim.Budget.unlimited sn [] with
  | Translate.Decided o -> o
  | Translate.Unknown _ -> assert false (* unlimited budgets never expire *)

let run_formula ?symmetry c f = decide (Translate.session (translation ?symmetry c f))

let run_pred ?symmetry c name =
  match Model.find_pred c.model name with
  | None -> invalid_arg (Printf.sprintf "Compile.run_pred: unknown predicate %s" name)
  | Some p ->
      let decls = List.map (fun (x, s) -> (x, Ast.rel s)) p.Model.params in
      run_formula ?symmetry c (Ast.exists decls p.Model.body)

let check ?symmetry c name =
  match Model.find_assert c.model name with
  | None -> invalid_arg (Printf.sprintf "Compile.check: unknown assertion %s" name)
  | Some f -> decide (Translate.session (translation ?symmetry c (Ast.not_ f)))

let check_formula_certified ?symmetry c f =
  let sn = Translate.session ~certify:true (translation ?symmetry c (Ast.not_ f)) in
  let outcome = decide sn in
  { Translate.outcome; certification = Translate.certify sn }

let enumerate ?symmetry ?limit c f =
  Translate.enumerate ?symmetry ?limit c.bounds (Ast.and_ [ c.facts; f ])

let pp_outcome ppf = function
  | Unsat -> Format.pp_print_string ppf "no instance found (UNSAT in scope)"
  | Sat inst -> Format.fprintf ppf "instance found:@.%a" Instance.pp inst
