(** The compilation-as-a-service daemon.

    [run config] binds a Unix-domain stream socket, speaks
    {!Protocol.version} over it, and blocks until drained. Inside, the
    one-shot engine's pure core ({!Qec_engine.Engine_core}) executes on a
    [Qec_util.Parallel] domain pool sharing a single mutex-guarded
    {!Qec_engine.Placement_cache}, so repeated requests for the same
    placement are memory hits across all clients. Per-connection reader
    threads decode lines, answer [ping]/[stats]/[shutdown] inline, and
    feed compile work through admission control: a bounded queue
    ([max_pending]) that answers overflow with an immediate ["overloaded"]
    error record, and an optional queue-wait deadline ([timeout_s])
    enforced before a job starts (["timeout"] error; clean cancellation —
    a job is never aborted mid-flight).

    Drain — triggered by a [shutdown] request, or by SIGTERM/SIGINT when
    [handle_signals] — stops accepting, rejects new admissions with
    ["shutting-down"], finishes everything already queued, joins the
    pool, writes the optional Perfetto trace ([trace_out]), removes the
    socket file and returns.

    A live {!Qec_telemetry.Telemetry.Tally} backs the [stats] response:
    request-latency and queue-wait histograms (percentiles over each
    series' most recent 16,384 samples), a queue-depth gauge, and
    per-kind cache/rejection counters. *)

type config = {
  socket : string;  (** socket path; an existing file is replaced *)
  jobs : int;  (** worker-pool size, clamped to [>= 1] *)
  max_pending : int;  (** admission-control queue bound *)
  timeout_s : float option;  (** per-request queue-wait deadline *)
  cache_dir : string option;  (** placement-cache disk tier *)
  trace_out : string option;  (** Perfetto trace written on drain *)
  handle_signals : bool;  (** drain on SIGTERM/SIGINT (daemon mode) *)
  log : string -> unit;  (** operational log lines (e.g. [prerr_endline]) *)
}

val default_config : socket:string -> unit -> config
(** [jobs = Parallel.default_jobs ()], [max_pending = 128], no timeout,
    no cache dir, no trace, no signal handlers, silent log. *)

val run : config -> (unit, string) result
(** Serve until drained, then [Ok ()]. [Error] names the [cache_dir] that
    cannot be used (checked before the socket file is created) or the
    socket that cannot be bound. Ignores SIGPIPE process-wide (a
    disconnecting client must surface as an IO error, not kill the
    daemon). *)
