(* The IO shell over Engine_core: backend registration, telemetry spans,
   and the domain-pool batch orchestration. The single-spec execution path
   and all JSONL rendering live in Engine_core, which is pure and
   re-entrant. *)

open Engine_core
module Tel = Qec_telemetry.Telemetry

let ensure_backends () =
  Qec_surgery.Surgery_scheduler.register ();
  Qec_lookahead.Lookahead_scheduler.register ()

let run_spec ?cache spec =
  ensure_backends ();
  fst (Engine_core.exec_safe cache spec)

(* ---------------- batch ---------------- *)

let run_batch ?jobs ?cache specs =
  ensure_backends ();
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Qec_util.Parallel.default_jobs ()
  in
  Tel.with_span "engine.run_batch" @@ fun () ->
  let n = List.length specs in
  let queue = Qec_util.Parallel.Queue.of_list specs in
  let slots = Array.make n None in
  let t_queue = Unix.gettimeofday () in
  let worker _id =
    (* Workers run under Telemetry.worker_scope (via the Parallel probe),
       so these probes record for real on every domain and merge into the
       root collector at join. *)
    let rec loop () =
      match Qec_util.Parallel.Queue.pop queue with
      | None -> ()
      | Some (index, spec) ->
        let t0 = Unix.gettimeofday () in
        Tel.sample "engine.queue_wait_s" (t0 -. t_queue);
        let outcome, cache_status =
          Tel.with_span "engine.job" @@ fun () ->
          Engine_core.exec_safe cache spec
        in
        let elapsed_s = Unix.gettimeofday () -. t0 in
        Tel.sample "engine.job_s" elapsed_s;
        Tel.count
          (match outcome with
          | Ok _ -> "engine.jobs_ok"
          | Error _ -> "engine.jobs_failed");
        slots.(index) <-
          Some { index; spec; elapsed_s; cache = cache_status; outcome };
        loop ()
    in
    loop ()
  in
  Qec_util.Parallel.run_workers ~jobs:(max 1 (min jobs (max 1 n))) worker;
  let results =
    Array.to_list slots
    |> List.map (function Some j -> j | None -> assert false)
  in
  (* The cache's counters are process-wide totals, so they are read once
     on the caller's domain rather than per worker. *)
  Option.iter
    (fun c ->
      let k = Placement_cache.counters c in
      Tel.count ~by:k.memory_hits "engine.placement_cache.memory_hits";
      Tel.count ~by:k.disk_hits "engine.placement_cache.disk_hits";
      Tel.count ~by:k.misses "engine.placement_cache.misses")
    cache;
  results
