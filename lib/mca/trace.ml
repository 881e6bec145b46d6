type snapshot = {
  step : int;
  agents : (Types.view * Types.item_id list * Types.item_id list) array;
}

type t = {
  mutable rev_snaps : snapshot list;
  mutable n : int;
  mutable rev_faults : Netsim.Faults.event list;
}

let create () = { rev_snaps = []; n = 0; rev_faults = [] }

let record t agents =
  let snap =
    {
      step = t.n;
      agents =
        Array.map
          (fun a -> (Agent.snapshot a, Agent.bundle a, Agent.lost_items a))
          agents;
    }
  in
  t.rev_snaps <- snap :: t.rev_snaps;
  t.n <- t.n + 1

let snapshots t = List.rev t.rev_snaps
let length t = t.n
let last t = match t.rev_snaps with [] -> None | s :: _ -> Some s
let record_fault t e = t.rev_faults <- e :: t.rev_faults
let fault_events t = List.rev t.rev_faults

let add_view_fp buf view =
  Array.iter
    (fun (e : Types.entry) ->
      (match e.Types.winner with
      | Types.Nobody -> Buffer.add_string buf "-"
      | Types.Agent i -> Buffer.add_string buf (string_of_int i));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int e.Types.bid);
      Buffer.add_char buf ' ')
    view

let fingerprint_with_messages agents messages =
  let buf = Buffer.create 256 in
  Array.iter
    (fun a ->
      add_view_fp buf (Agent.view a);
      Buffer.add_char buf '|';
      List.iter
        (fun j ->
          Buffer.add_string buf (string_of_int j);
          Buffer.add_char buf ',')
        (Agent.bundle a);
      Buffer.add_char buf '|';
      List.iter
        (fun j ->
          Buffer.add_string buf (string_of_int j);
          Buffer.add_char buf ',')
        (Agent.lost_items a);
      Buffer.add_char buf ';')
    agents;
  List.iter
    (fun (src, dst, view) ->
      Buffer.add_string buf (string_of_int src);
      Buffer.add_char buf '>';
      Buffer.add_string buf (string_of_int dst);
      Buffer.add_char buf '=';
      add_view_fp buf view;
      Buffer.add_char buf ';')
    messages;
  Buffer.contents buf

let fingerprint agents = fingerprint_with_messages agents []

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v 2>step %d:" s.step;
  Array.iteri
    (fun i (view, bundle, lost) ->
      Format.fprintf ppf "@,agent %d: %a bundle=[%a] lost=[%a]" i
        Types.pp_view view
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        bundle
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        lost)
    s.agents;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    pp_snapshot ppf (snapshots t);
  match fault_events t with
  | [] -> ()
  | events ->
      Format.fprintf ppf "@,@[<v 2>fault events:";
      List.iter
        (fun e -> Format.fprintf ppf "@,%a" Netsim.Faults.pp_event e)
        events;
      Format.fprintf ppf "@]"
