let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

exception Worker_failure of exn

(* Telemetry instrumentation is injected (Qec_telemetry registers a probe
   at link time) because qec_telemetry depends on qec_util — the hooks keep
   this module dependency-free while letting worker domains report real
   spans and queue histograms. The null probe makes every hook a no-op. *)
type probe = {
  wrap_worker : worker:int -> (unit -> unit) -> unit;
  enabled : unit -> bool;
  now : unit -> float;
  count : string -> int -> unit;
  sample : string -> float -> unit;
  span_open : string -> unit;
  span_close : unit -> unit;
}

let null_probe =
  {
    wrap_worker = (fun ~worker:_ f -> f ());
    enabled = (fun () -> false);
    now = (fun () -> 0.);
    count = (fun _ _ -> ());
    sample = (fun _ _ -> ());
    span_open = ignore;
    span_close = (fun () -> ());
  }

let probe = ref null_probe
let set_probe p = probe := p

module Queue = struct
  type 'a t = { items : 'a array; next : int Atomic.t }

  let of_list xs = { items = Array.of_list xs; next = Atomic.make 0 }
  let length q = Array.length q.items

  let pop q =
    let i = Atomic.fetch_and_add q.next 1 in
    if i < Array.length q.items then Some (i, q.items.(i)) else None

  let remaining q =
    max 0 (Array.length q.items - Atomic.get q.next)
end

let run_workers ~jobs worker =
  let jobs = max 1 jobs in
  if jobs = 1 then worker 0
  else begin
    let p = !probe in
    let spawned =
      (* Spawned domains run inside the probe's worker scope, so their
         telemetry buffers per domain and merges into the installing
         domain's collector at join. The caller's domain is worker 0 and
         already carries its own telemetry state (if any). *)
      List.init (jobs - 1) (fun k ->
          Domain.spawn (fun () ->
              p.wrap_worker ~worker:(k + 1) (fun () -> worker (k + 1))))
    in
    (* The caller's domain is worker 0; always join every spawned domain,
       even when a worker raises, so none outlives the call. *)
    let own = try Ok (worker 0) with e -> Error e in
    let joined =
      List.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
    in
    match own :: joined |> List.find_opt Result.is_error with
    | Some (Error e) -> raise e
    | Some (Ok ()) | None -> ()
  end

let map_jobs ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length xs in
  if n <= 1 || jobs <= 1 then List.map f xs
  else begin
    let queue = Queue.of_list xs in
    let output = Array.make n None in
    (* All items are "enqueued" when the queue is built, so an item's
       queue wait is pop time minus this stamp. *)
    let t_queue = (!probe).now () in
    let worker _id =
      let p = !probe in
      let live = p.enabled () in
      let rec loop () =
        match Queue.pop queue with
        | None -> ()
        | Some (i, x) ->
          if live then begin
            let t0 = p.now () in
            p.sample "parallel.queue_wait_s" (t0 -. t_queue);
            p.span_open "parallel.job";
            (match f x with
            | y -> output.(i) <- Some (Ok y)
            | exception e -> output.(i) <- Some (Error e));
            p.span_close ();
            p.sample "parallel.job_s" (p.now () -. t0);
            p.count "parallel.jobs" 1
          end
          else begin
            match f x with
            | y -> output.(i) <- Some (Ok y)
            | exception e -> output.(i) <- Some (Error e)
          end;
          loop ()
      in
      loop ()
    in
    run_workers ~jobs:(min jobs n) worker;
    Array.to_list output
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise (Worker_failure e)
         | None -> assert false)
  end
