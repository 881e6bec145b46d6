(* Clocks, order statistics, memory probes and the result printer. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [p] in [0, 1], linear interpolation between closest ranks. *)
let percentile xs p =
  match Array.of_list xs with
  | [||] -> nan
  | a ->
      Array.sort compare a;
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = percentile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Peak resident set ("VmHWM") of a process, in kB; [None] when the
   process is gone or the kernel does not report it. *)
let vm_hwm_kb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf_opt (String.sub line 6 (String.length line - 6))
              " %d kB" Fun.id
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_)
    metrics

(* The one-line result the benchmark's last stdout line carries. Every
   value keeps all its digits; a non-finite value is a bug upstream. *)
let result_json ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else invalid_arg "result_json: non-finite metric"
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics))
