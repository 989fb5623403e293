(** The batch compilation engine — every entry point's one execution path.

    The engine is split into a pure re-entrant core and this IO shell:

    - {!Engine_core} holds the single-spec execution path (validation,
      circuit loading, cache replay, backend dispatch, certification) and
      the deterministic JSONL rendering. It is safe to call concurrently
      from any domain and has no process-global effects.
    - This module is the shell: it registers backends, wraps the core in
      telemetry spans, and orchestrates the multicore batch pool. Its
      types are equal (not just isomorphic) to the core's, so callers can
      mix both freely.

    {!run_spec} executes a single declarative {!Spec.t}: load the circuit,
    optionally peephole-optimize, resolve the communication backend from
    the {!Autobraid.Comm_backend} registry, replay or keep its initial
    placement (through the {!Placement_cache} when one is supplied),
    schedule, and
    package the requested outputs. The CLI's [compile] and
    [schedule --backend ...] are thin wrappers over this function, so
    their byte-identity is structural rather than promised; the
    [autobraid serve] daemon ({!Qec_serve}) calls the core directly from
    its long-lived worker pool.

    {!run_batch} runs a list of specs on an OCaml 5 domain worker pool fed
    by a shared {!Qec_util.Parallel.Queue}. Results come back in input
    order regardless of worker count, each job's failure is captured as a
    structured {!error} record (one bad circuit never aborts the batch),
    and scheduling is deterministic: the rendered JSONL is byte-identical
    for any [~jobs] value. *)

type error = Engine_core.error = {
  kind : string;
      (** stable machine-readable tag: ["circuit-not-found"], ["parse"],
          ["unsupported"], ["invalid-circuit"], ["io"], ["invalid-spec"]
          (an unregistered backend included), or ["internal"] *)
  message : string;  (** human-readable; parse errors are [file:line:col]-prefixed *)
}

type payload = Engine_core.payload = {
  backend : string;
      (** what actually ran: the registry backend's name, or
          ["gp-baseline"] for [Spec.scheduler = Baseline] *)
  result : Autobraid.Scheduler.result;
  stats : (string * float) list;  (** backend extras, e.g. surgery volume *)
  trace : Autobraid.Trace.t option;
      (** the run's trace, when the path records one: registered
          backends always do, the baseline only when [Spec.outputs] asks
          for a trace or a certificate, the best-p sweep never *)
  curve : (float * Autobraid.Scheduler.result) list option;
      (** the full threshold sweep, when [Spec.best_p] *)
  peephole : (Qec_circuit.Optimize.stats * int * int) option;
      (** when [Spec.optimize]: stats plus (gates before, gates after) *)
  certificate : Qec_verify.Certifier.t option;
      (** when [Spec.outputs.certificate]: the independent
          {!Qec_verify.Certifier} verdict for the run's trace, computed
          on the worker's own domain *)
}

type cache_status = Engine_core.cache_status =
  | Memory_hit
  | Disk_hit
  | Miss
  | Uncached

val cache_status_to_string : cache_status -> string
(** ["memory-hit" | "disk-hit" | "miss" | "uncached"]. *)

type job = Engine_core.job = {
  index : int;  (** position in the submitted batch *)
  spec : Spec.t;
  elapsed_s : float;  (** wall time for this job (informational only) *)
  cache : cache_status;  (** placement-cache outcome for this job *)
  outcome : (payload, error) result;
}

val ensure_backends : unit -> unit
(** Register the built-in backends (braid registers with
    {!Autobraid.Comm_backend} on linking; surgery via
    {!Qec_surgery.Backend.register}). Idempotent; call before resolving
    backend names. *)

val load_circuit : Spec.t -> (Qec_circuit.Circuit.t, error) result
(** Re-exported {!Engine_core.load_circuit}. *)

val exec :
  Placement_cache.t option ->
  Spec.t ->
  (payload * cache_status, error) result
(** Re-exported {!Engine_core.exec}. *)

val exec_safe :
  Placement_cache.t option -> Spec.t -> (payload, error) result * cache_status
(** Re-exported {!Engine_core.exec_safe}. *)

val run_spec : ?cache:Placement_cache.t -> Spec.t -> (payload, error) result
(** Execute one spec. Never raises: spec validation failures, unreadable
    or malformed circuits and scheduler errors all come back as [Error].
    Deterministic for a fixed spec, with or without a (correct) cache. *)

val run_batch :
  ?jobs:int -> ?cache:Placement_cache.t -> Spec.t list -> job list
(** Execute the specs on a worker pool of [jobs] domains (default
    {!Qec_util.Parallel.default_jobs}), sharing [cache] across workers.
    Results are in input order. Telemetry is per worker: each domain
    records an [engine.job] span plus [engine.queue_wait_s] /
    [engine.job_s] samples and [engine.jobs_ok] / [engine.jobs_failed]
    counters for the jobs it ran, merged into the installing domain's
    collector at join (spans land on distinct [(domain, worker)] lanes).
    The caller's domain adds the [engine.run_batch] span and — when a
    cache is given — [engine.placement_cache.{memory_hits,disk_hits,
    misses}] counters for this batch. *)

val result_json : Autobraid.Scheduler.result -> Qec_report.Json.t
(** Re-exported {!Engine_core.result_json}. *)

val job_to_json : ?timings:bool -> job -> Qec_report.Json.t
(** One deterministic result record: [index], [id], [status], [spec], and
    on success [backend] / [result] / [backend_stats] plus the requested
    [reliability] / [trace] / [certificate] / [curve] blocks; on failure
    [error].
    [result.compile_time_s] is zeroed so records are byte-stable across
    runs and worker counts. [~timings:true] adds the measured [elapsed_s]
    and the [cache] status — useful interactively, off by default because
    both vary run to run. *)

val jobs_to_jsonl : ?timings:bool -> job list -> string
(** One compact {!job_to_json} line per job, newline-terminated, in input
    order. *)

val errors : job list -> (int * error) list
(** The failed jobs' [(index, error)]s, in input order. *)
