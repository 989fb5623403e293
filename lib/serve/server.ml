(* The autobraid-serve daemon.

   Thread/domain layout:

   - The domain that calls [run] owns the listen socket. An accept loop
     runs on a dedicated thread of that domain; each accepted connection
     gets its own reader thread. Reader threads only block on IO, decode
     request lines, answer control requests (ping/stats/shutdown) inline,
     and push compile work through admission control — they never
     schedule circuits themselves.
   - Compile work executes on a Qec_util.Parallel worker pool sized by
     [config.jobs]; worker 0 is the calling domain itself (its reader
     threads stay responsive because systhreads preempt at safe points).
     Workers call straight into the pure Engine_core, so every domain of
     the pool runs the same re-entrant execution path, sharing one
     mutex-guarded Placement_cache.
   - Admission control is a bounded queue: a request that would push the
     pending count past [max_pending] is answered with an "overloaded"
     error record immediately, on the reader thread — the socket never
     silently buffers unbounded work. A per-request [timeout_s] is
     enforced at dequeue: a request that sat in the queue past its
     deadline is answered with a "timeout" error and never starts
     executing (clean cancellation — no mid-flight abort, so no
     half-mutated state).
   - Graceful drain: SIGTERM/SIGINT (when [handle_signals]) or a
     [shutdown] request stop the accept loop and new admissions
     ("shutting-down" errors), let the queue run dry, join the pool,
     flush telemetry, write the optional Perfetto trace, and remove the
     socket file. *)

module Json = Qec_report.Json
module Spec = Qec_engine.Spec
module Core = Qec_engine.Engine_core
module PC = Qec_engine.Placement_cache
module Tel = Qec_telemetry.Telemetry

type config = {
  socket : string;
  jobs : int;
  max_pending : int;
  timeout_s : float option;
  cache_dir : string option;
  trace_out : string option;
  handle_signals : bool;
  log : string -> unit;
}

let default_config ~socket () =
  {
    socket;
    jobs = Qec_util.Parallel.default_jobs ();
    max_pending = 128;
    timeout_s = None;
    cache_dir = None;
    trace_out = None;
    handle_signals = false;
    log = ignore;
  }

(* ---------------- connections ---------------- *)

type conn = {
  fd : Unix.file_descr;
  out : out_channel;
  write_lock : Mutex.t;
  alive : bool Atomic.t;
}

(* One response line, atomically with respect to other writers on this
   connection (several workers may answer interleaved requests). A dead
   peer (EPIPE with SIGPIPE ignored surfaces as Sys_error) just marks the
   connection dead; the work that produced the response is already done
   and the reader thread will observe EOF. *)
let send conn json =
  if Atomic.get conn.alive then begin
    Mutex.lock conn.write_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.write_lock)
      (fun () ->
        try
          output_string conn.out (Protocol.encode json);
          output_char conn.out '\n';
          flush conn.out
        with Sys_error _ -> Atomic.set conn.alive false)
  end

(* ---------------- work items ---------------- *)

type batch_ctx = {
  b_request : string option;
  b_conn : conn;
  remaining : int Atomic.t;
  b_ok : int Atomic.t;
  b_failed : int Atomic.t;
}

type work = {
  w_conn : conn;
  w_request : string option;
  w_spec : Spec.t;
  w_index : int;
  enqueued_at : float;
  batch : batch_ctx option;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  queue : work Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable pending : int;
  draining : bool Atomic.t;
  tally : Tel.Tally.t;  (* the live [stats] numbers, under [tally_lock] *)
  tally_lock : Mutex.t;
  started_at : float;
  cache : PC.t;
}

(* ---------------- live metrics ---------------- *)

(* The daemon does not record into the telemetry session: pool workers
   never leave their scope, so they would never merge, and an installed
   session would switch on every hot-path probe of every request. It keeps
   its own tally, readable by a [stats] request at any moment. Like every
   tally, each series keeps its newest [Tel.Tally.window] samples, so a
   long-lived daemon does not grow without bound: percentiles follow
   current behaviour while count/sum/min/max stay exact. *)

let with_tally t f = Mutex.protect t.tally_lock (fun () -> f t.tally)
let count t name = with_tally t (fun m -> Tel.Tally.count m name)
let gauge t name v = with_tally t (fun m -> Tel.Tally.gauge m name v)
let sample t name v = with_tally t (fun m -> Tel.Tally.sample m name v)
let counter t name = with_tally t (fun m -> Tel.Tally.counter m name)

(* ---------------- admission control ---------------- *)

let admit t conn ~request specs ~batch =
  let n = List.length specs in
  Mutex.lock t.lock;
  let verdict =
    if Atomic.get t.draining then
      Error { Core.kind = "shutting-down"; message = "server is draining" }
    else if t.pending + n > t.config.max_pending then
      Error
        {
          Core.kind = "overloaded";
          message =
            Printf.sprintf
              "queue full: %d pending + %d submitted exceeds --max-pending %d"
              t.pending n t.config.max_pending;
        }
    else begin
      let now = Unix.gettimeofday () in
      let ctx =
        if batch then
          Some
            {
              b_request = request;
              b_conn = conn;
              remaining = Atomic.make n;
              b_ok = Atomic.make 0;
              b_failed = Atomic.make 0;
            }
        else None
      in
      List.iteri
        (fun i spec ->
          Queue.push
            {
              w_conn = conn;
              w_request = request;
              w_spec = spec;
              w_index = i;
              enqueued_at = now;
              batch = ctx;
            }
            t.queue)
        specs;
      t.pending <- t.pending + n;
      gauge t "serve.queue_depth" (float_of_int t.pending);
      for _ = 1 to n do
        Condition.signal t.nonempty
      done;
      Ok ()
    end
  in
  Mutex.unlock t.lock;
  match verdict with
  | Ok () -> ()
  | Error e ->
    count t ("serve.rejected." ^ e.Core.kind);
    send conn (Protocol.error_record ~request e)

(* ---------------- workers ---------------- *)

let finish_batch t (w : work) ~ok =
  ignore t;
  match w.batch with
  | None -> ()
  | Some b ->
    (if ok then Atomic.incr b.b_ok else Atomic.incr b.b_failed);
    if Atomic.fetch_and_add b.remaining (-1) = 1 then
      send b.b_conn
        (Protocol.done_record ~request:b.b_request ~ok:(Atomic.get b.b_ok)
           ~failed:(Atomic.get b.b_failed))

let handle t (w : work) =
  let t0 = Unix.gettimeofday () in
  let queue_wait = t0 -. w.enqueued_at in
  let timed_out =
    match t.config.timeout_s with Some s -> queue_wait > s | None -> false
  in
  if timed_out then begin
    count t "serve.rejected.timeout";
    send w.w_conn
      (Protocol.error_record ~request:w.w_request
         {
           Core.kind = "timeout";
           message =
             Printf.sprintf
               "request waited %.3f s in queue (timeout %g s); cancelled \
                before execution"
               queue_wait
               (Option.get t.config.timeout_s);
         });
    finish_batch t w ~ok:false
  end
  else begin
    sample t "serve.queue_wait_s" queue_wait;
    let outcome, cache_status =
      Tel.with_span "serve.request" @@ fun () ->
      Core.exec_safe (Some t.cache) w.w_spec
    in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    sample t "serve.request_s" elapsed_s;
    count t
      (match cache_status with
      | Core.Memory_hit -> "serve.cache.memory_hits"
      | Core.Disk_hit -> "serve.cache.disk_hits"
      | Core.Miss -> "serve.cache.misses"
      | Core.Uncached -> "serve.cache.uncached");
    let ok = Result.is_ok outcome in
    count t
      (if ok then "serve.results_ok" else "serve.results_failed");
    let job =
      {
        Core.index = w.w_index;
        spec = w.w_spec;
        elapsed_s;
        cache = cache_status;
        outcome;
      }
    in
    send w.w_conn (Protocol.result_record ~request:w.w_request job);
    finish_batch t w ~ok
  end

let worker t _id =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not (Atomic.get t.draining) do
      Condition.wait t.nonempty t.lock
    done;
    (* Draining still serves everything already admitted: the loop only
       exits on an empty queue. *)
    match Queue.take_opt t.queue with
    | None -> Mutex.unlock t.lock
    | Some w ->
      t.pending <- t.pending - 1;
      gauge t "serve.queue_depth" (float_of_int t.pending);
      Mutex.unlock t.lock;
      handle t w;
      loop ()
  in
  loop ()

(* ---------------- control requests ---------------- *)

let stats_json t =
  let k = PC.counters t.cache in
  let queue_depth =
    Mutex.lock t.lock;
    let d = t.pending in
    Mutex.unlock t.lock;
    d
  in
  Json.Obj
    [
      ("schema", Json.String "autobraid-serve-stats/v1");
      ( "server",
        Json.Obj
          [
            ("version", Json.String Protocol.version);
            ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
            ("jobs", Json.Int t.config.jobs);
            ("max_pending", Json.Int t.config.max_pending);
            ("queue_depth", Json.Int queue_depth);
            ("draining", Json.Bool (Atomic.get t.draining));
          ] );
      ( "cache",
        Json.Obj
          [
            ("memory_hits", Json.Int k.PC.memory_hits);
            ("disk_hits", Json.Int k.PC.disk_hits);
            ("misses", Json.Int k.PC.misses);
          ] );
      ( "telemetry",
        Json.Obj
          (Qec_report.Export.metrics_members (with_tally t Tel.Tally.records))
      );
    ]

let drain t =
  if not (Atomic.exchange t.draining true) then begin
    t.config.log "serve: draining";
    (* Wake every worker blocked on the empty queue so it can observe the
       flag, and break the accept loop out of its blocking accept. *)
    Mutex.lock t.lock;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (* Belt and braces: a no-op connection unblocks accept on platforms
       where shutdown on a listening socket does not. *)
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.connect fd (Unix.ADDR_UNIX t.config.socket))
    with Unix.Unix_error _ -> ()
  end

let op_name = function
  | Protocol.Compile { op; _ } -> op
  | Protocol.Batch _ -> "batch"
  | Protocol.Ping _ -> "ping"
  | Protocol.Stats _ -> "stats"
  | Protocol.Shutdown _ -> "shutdown"

(* ---------------- per-connection reader ---------------- *)

let reader t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  send conn Protocol.hello;
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line ->
      (if String.trim line <> "" then
         match Protocol.decode line with
         | Error e ->
           (* A malformed line is answered, never disconnected on: a
              client bug must not tear down its other in-flight work. *)
           count t ("serve.rejected." ^ e.Core.kind);
           send conn (Protocol.error_record ~request:None e)
         | Ok req -> (
           count t ("serve.requests." ^ op_name req);
           match req with
           | Protocol.Ping { id } -> send conn (Protocol.pong_record ~request:id)
           | Protocol.Stats { id } ->
             send conn (Protocol.stats_record ~request:id (stats_json t))
           | Protocol.Shutdown { id } ->
             send conn (Protocol.shutdown_record ~request:id);
             drain t
           | Protocol.Compile { id; op = _; spec } ->
             admit t conn ~request:id [ spec ] ~batch:false
           | Protocol.Batch { id; specs } ->
             admit t conn ~request:id specs ~batch:true));
      if Atomic.get conn.alive then loop ()
  in
  loop ();
  Atomic.set conn.alive false;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ---------------- accept loop ---------------- *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.draining) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Atomic.get t.draining then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          count t "serve.connections";
          let conn =
            {
              fd;
              out = Unix.out_channel_of_descr fd;
              write_lock = Mutex.create ();
              alive = Atomic.make true;
            }
          in
          ignore (Thread.create (fun () -> reader t conn) ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
        (* listen socket shut down (drain) or unusable: stop accepting *)
        ()
  in
  loop ()

(* ---------------- lifecycle ---------------- *)

let run config =
  Qec_engine.Engine.ensure_backends ();
  (* A client that disconnects mid-response must cost us an EPIPE error,
     not the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* The cache first: an unusable cache directory must fail before the
     socket file exists. *)
  let ( let* ) = Result.bind in
  let* cache = PC.create ?dir:config.cache_dir () in
  if Sys.file_exists config.socket then (
    try Unix.unlink config.socket with Unix.Unix_error _ | Sys_error _ -> ());
  let* listen_fd =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX config.socket);
      Unix.listen fd 64
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error
        (Printf.sprintf "cannot listen on %s: %s" config.socket
           (Unix.error_message e))
  in
  let t =
    {
      config;
      listen_fd;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      pending = 0;
      draining = Atomic.make false;
      tally = Tel.Tally.create ();
      tally_lock = Mutex.create ();
      started_at = Unix.gettimeofday ();
      cache;
    }
  in
  if config.handle_signals then begin
    (* A Sys.Signal_handle would never run here: every daemon thread
       parks in a C call (accept, read, pthread_cond_wait) and the
       runtime only executes OCaml signal handlers at OCaml safe points.
       Instead, block the signals everywhere (the mask is inherited by
       the accept/reader threads and the worker domains spawned below)
       and sigwait on a dedicated watcher thread, which can call [drain]
       directly. *)
    let signals = [ Sys.sigterm; Sys.sigint ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK signals);
    ignore
      (Thread.create
         (fun () ->
           let signum = Thread.wait_signal signals in
           config.log
             (Printf.sprintf "serve: received signal %d, draining" signum);
           drain t)
         ())
  end;
  let accept_thread = Thread.create accept_loop t in
  config.log
    (Printf.sprintf
       "serve: listening on %s (%d worker%s, max-pending %d%s)" config.socket
       config.jobs
       (if config.jobs = 1 then "" else "s")
       config.max_pending
       (match config.timeout_s with
       | Some s -> Printf.sprintf ", timeout %g s" s
       | None -> ""));
  let run_pool () =
    Qec_util.Parallel.run_workers ~jobs:(max 1 config.jobs) (worker t)
  in
  (match config.trace_out with
  | None -> run_pool ()
  | Some path -> (
    (* Worker spans buffer per domain and merge at join, so the Perfetto
       trace written on drain carries one lane per pool worker. *)
    let collector = Qec_telemetry.Collector.create () in
    Tel.with_sink (Qec_telemetry.Collector.sink collector) run_pool;
    match Qec_obs.Perfetto.write path collector with
    | () -> config.log (Printf.sprintf "serve: wrote %s" path)
    | exception Sys_error msg -> config.log ("serve: cannot write trace: " ^ msg)));
  Thread.join accept_thread;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ | Sys_error _ -> ());
  config.log
    (Printf.sprintf "serve: drained (%d ok, %d failed, %d connections)"
       (counter t "serve.results_ok")
       (counter t "serve.results_failed")
       (counter t "serve.connections"));
  Ok ()
