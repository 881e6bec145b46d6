let available_jobs () = Domain.recommended_domain_count ()

(* A task travels as (index, thunk); results land in a slot array keyed
   by index, so collection order is deterministic regardless of which
   worker finishes first. A task that raises fills its own slot with
   [Error] — a worker never dies with a slot unfilled, and joiners never
   wait on a crashed worker. *)
let map_result ?(jobs = 1) f tasks =
  if jobs < 1 then invalid_arg "Pool.map_result: jobs < 1";
  let n = Array.length tasks in
  let protected x = match f x with r -> Ok r | exception e -> Error e in
  (* Cap workers at the hardware parallelism: spawning more domains
     than cores makes OCaml's stop-the-world minor collections wait on
     descheduled domains, and a CPU-bound sweep runs *slower* than
     sequentially (the BENCH_E11 0.47× regression). The caller's [jobs]
     is a ceiling, not a demand. *)
  let workers = min jobs (min n (available_jobs ())) in
  if workers <= 1 || n <= 1 then Array.map protected tasks
  else begin
    let queue = Bqueue.create ~capacity:(2 * workers) in
    let results = Array.make n None in
    let worker () =
      let rec loop () =
        match Bqueue.pop queue with
        | None -> ()
        | Some i ->
            results.(i) <- Some (protected tasks.(i));
            loop ()
      in
      loop ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    for i = 0 to n - 1 do
      Bqueue.push queue i
    done;
    Bqueue.close queue;
    Array.iter Domain.join domains;
    Array.map Option.get results
  end
