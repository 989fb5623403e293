(** The pure, re-entrant core of the engine: execute one compile spec on
    any domain.

    This module is the thread- and domain-safe half of the pure-core /
    IO-shell split ({!Engine} is the shell). A call here

    - installs no telemetry sinks and spawns no domains,
    - handles no signals and prints nothing,
    - mutates no global state — the only shared structure it can touch is
      the caller-supplied {!Placement_cache.t}, which synchronizes
      internally.

    So [exec_safe] may run concurrently on every domain of a pool:
    {!Engine.run_batch}'s workers and {!Qec_serve.Server}'s long-lived
    request executors both call straight into this module.

    Precondition: the {!Autobraid.Comm_backend} registry must be populated
    ({!Engine.ensure_backends}) before specs naming registry backends are
    executed. *)

type error = {
  kind : string;
      (** stable machine-readable tag: ["circuit-not-found"], ["parse"],
          ["unsupported"], ["invalid-circuit"], ["io"], ["invalid-spec"],
          ["unknown-backend"], or ["internal"] *)
  message : string;  (** human-readable; parse errors are [file:line:col]-prefixed *)
}

type payload = {
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
          on the calling domain *)
}

type cache_status = Memory_hit | Disk_hit | Miss | Uncached

val cache_status_to_string : cache_status -> string
(** ["memory-hit" | "disk-hit" | "miss" | "uncached"]. *)

type job = {
  index : int;  (** position in the submitted batch *)
  spec : Spec.t;
  elapsed_s : float;  (** wall time for this job (informational only) *)
  cache : cache_status;  (** placement-cache outcome for this job *)
  outcome : (payload, error) result;
}

val load_circuit : Spec.t -> (Qec_circuit.Circuit.t, error) result
(** Resolve [spec.circuit] — a [.qasm] / [.real] path or a benchmark
    name — with every parser failure mapped to a structured {!error}. *)

val exec :
  Placement_cache.t option ->
  Spec.t ->
  (payload * cache_status, error) result
(** Execute one validated spec end to end. Raises only if a lower layer
    raises something unexpected; use {!exec_safe} to capture that too. *)

val exec_safe :
  Placement_cache.t option -> Spec.t -> (payload, error) result * cache_status
(** {!exec} with every escape hatch closed: an unexpected exception
    becomes an [Error {kind = "internal"; _}]. Deterministic for a fixed
    spec, with or without a (correct) cache; safe to call concurrently
    from any number of domains sharing one cache. *)

val result_json : Autobraid.Scheduler.result -> Qec_report.Json.t
(** {!Qec_report.Export.result_to_json} with [compile_time_s] zeroed, so
    rendered records are byte-stable across runs and worker counts. *)

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
