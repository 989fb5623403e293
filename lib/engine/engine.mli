(** The IO shell over {!Engine_core}: backend registration, telemetry
    spans and the multicore batch pool.

    {!Engine_core} holds the types ({!Engine_core.payload},
    {!Engine_core.error}, {!Engine_core.job}), the single-spec execution
    path and the deterministic JSONL rendering; it is pure and safe to
    call from any domain. The [autobraid serve] daemon ({!Qec_serve})
    calls the core directly from its long-lived worker pool; every CLI
    command that compiles runs its spec through {!run_spec}. *)

val ensure_backends : unit -> unit
(** Register the built-in backends (braid registers with
    {!Autobraid.Comm_backend} on linking; surgery and lookahead via
    {!Qec_surgery.Surgery_scheduler.register} and
    {!Qec_lookahead.Lookahead_scheduler.register}). Idempotent; call
    before resolving backend names. *)

val run_spec :
  ?cache:Placement_cache.t -> Spec.t -> (Engine_core.payload, Engine_core.error) result
(** Execute one spec: load the circuit, optionally peephole-optimize,
    resolve the communication backend from the {!Autobraid.Comm_backend}
    registry, replay or keep its initial placement (through the
    {!Placement_cache} when one is supplied), schedule, and package the
    requested outputs. Never raises: spec validation failures, unreadable
    or malformed circuits and scheduler errors all come back as [Error].
    Deterministic for a fixed spec, with or without a (correct) cache. *)

val run_batch :
  ?jobs:int -> ?cache:Placement_cache.t -> Spec.t list -> Engine_core.job list
(** Execute the specs on a worker pool of [jobs] domains (default
    {!Qec_util.Parallel.default_jobs}), sharing [cache] across workers.
    Results are in input order, each job's failure is captured as a
    structured error record (one bad circuit never aborts the batch), and
    the rendered JSONL is byte-identical for any [~jobs] value. Telemetry
    is per worker: each domain records an [engine.job] span plus
    [engine.queue_wait_s] / [engine.job_s] samples and [engine.jobs_ok] /
    [engine.jobs_failed] counters for the jobs it ran, merged into the
    installing domain's collector at join (spans land on distinct
    [(domain, worker)] lanes). The caller's domain adds the
    [engine.run_batch] span and — when a cache is given —
    [engine.placement_cache.{memory_hits,disk_hits,misses}] counters for
    this batch. *)
