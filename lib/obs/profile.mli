(** Repeated-run profiler behind `autobraid profile`: run a list of specs
    [repeat] times through {!Qec_engine.Engine.run_batch} under a
    collector, and reduce per-phase wall/self time to min / median / p95
    across runs. *)

type stats = { min_s : float; median_s : float; p95_s : float }

type phase_row = {
  phase : string;
  calls : int;  (** max calls observed in any single run *)
  total : stats;  (** per-run summed wall time of this phase *)
  self : stats;  (** per-run summed self time (child spans excluded) *)
}

type timer_row = {
  timer : string;
  calls : float;  (** median over the runs that hit it *)
  seconds : float;  (** median of its per-run summed seconds *)
}
(** One {!Qec_telemetry.Telemetry.timed} timer across the runs. *)

type t = {
  runs : int;
  jobs : int;
  specs : int;
  jobs_ok : int;  (** from the last run *)
  jobs_failed : int;  (** from the last run *)
  errors : (int * string * string) list;
      (** the last run's failed jobs as [(index, circuit, engine message)],
          in input order *)
  wall : stats;  (** end-to-end wall time per run *)
  phases : phase_row list;  (** sorted by phase name *)
  timers : timer_row list;  (** sorted by timer name *)
}

val run :
  ?jobs:int -> repeat:int -> Qec_engine.Spec.t list ->
  t * Qec_telemetry.Collector.t
(** Run the specs [max 1 repeat] times on a [jobs]-domain pool (default
    {!Qec_util.Parallel.default_jobs}). Also returns the last run's
    collector, for {!Perfetto} export of a representative trace. Job
    failures are captured per record by the engine, never raised. *)

val to_json : t -> Qec_report.Json.t
(** Stable-schema report (["schema": "autobraid-profile/v1"]; phases
    and ["timers"] sorted by name, fixed key order) — only the measured
    times vary between invocations. *)

val print : t -> unit
(** Summary line + per-phase table sorted by descending median self,
    then the timer table sorted by name. *)
