(* Per-layer spans recorded by the traced replay around its calls into
   the library's public functions. The replay is single-domain and its
   spans do not nest, so a span's duration is its layer's self time.
   (The one place they could, the ladder falling through to its
   explicit-checker rung inside a SAT span, is never reached: the
   replay's CDCL rung has no deadline.)
   Spans and counts stay in memory until the run reports. *)

let layers =
  [ "codec"; "cache"; "frontend"; "translate"; "sat"; "proof"; "checker";
    "sim"; "journal" ]

let spans : (string * float) list ref = ref []
let counts : (string * float) list ref = ref []
let recording = ref false
let window_s = ref 0.0

(* Runs [f] with recording on; its wall time joins the window that
   trace coverage is measured against. *)
let window f =
  let t0 = Measure.now () in
  recording := true;
  Fun.protect
    ~finally:(fun () ->
      recording := false;
      window_s := !window_s +. (Measure.now () -. t0))
    f

let time layer f =
  let t0 = Measure.now () in
  let finish () =
    if !recording then spans := (layer, Measure.now () -. t0) :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let count name v = if !recording then counts := (name, v) :: !counts

let select name l =
  List.rev (List.filter_map (fun (n, v) -> if n = name then Some v else None) l)

let durations layer = select layer !spans
let counted name = select name !counts
let total layer = List.fold_left ( +. ) 0.0 (durations layer)
