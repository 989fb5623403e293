(** Exporters: scheduling results and analyses as JSON, DOT, and CSV.

    JSON for downstream plotting, DOT (Graphviz) for inspecting coupling
    and interference structure, CSV for p-sweep curves. *)

val result_to_json : Autobraid.Scheduler.result -> Json.t
(** All result fields, under stable snake_case keys. *)

val results_to_json :
  (string * Autobraid.Scheduler.result) list -> Json.t
(** Labelled comparison, e.g. [("baseline", r1); ("autobraid", r2)]. *)

val trace_to_json :
  ?max_rounds:int -> Autobraid.Trace.t -> Json.t
(** Trace summary plus the first [max_rounds] (default all) rounds with
    their scheduled gate ids, path lengths and swaps. *)

val exposure_to_json :
  d:int -> Autobraid.Reliability.exposure -> Json.t

val backend_outcome_to_json :
  ?max_rounds:int ->
  Qec_surface.Timing.t ->
  Autobraid.Comm_backend.outcome ->
  Json.t
(** One communication backend's run: [backend] name, the full
    {!result_to_json} record, the backend-specific [backend_stats]
    (generic float-valued keys, e.g. surgery's pipelining counters), the
    trace, and reliability exposure at the timing's distance. *)

val metrics_members :
  Qec_telemetry.Telemetry.record list -> (string * Json.t) list
(** The [counters] and [gauges] objects and the [histograms] list of the
    given records, in record order; each histogram object carries
    [name]/[count]/[sum]/[min]/[max]/[mean]/[p50]/[p95]. The first three
    members of {!telemetry_to_json}, and the serve daemon's live
    [telemetry] statistics. *)

val telemetry_to_json : Qec_telemetry.Collector.t -> Json.t
(** Everything a collector gathered: counters, gauges and timers
    ([{"calls", "total_s"}] per name) as objects, histograms / spans /
    aggregated phases as lists, all snake_case. *)

val coupling_to_dot : Qec_circuit.Coupling.t -> string
(** Undirected weighted graph; edge labels carry interaction counts. *)

val interference_to_dot :
  Qec_lattice.Placement.t -> Autobraid.Task.t list -> string
(** The CX interference graph of one round's tasks under a placement. *)

val p_curve_to_csv :
  Qec_surface.Timing.t -> (float * Autobraid.Scheduler.result) list -> string
(** "p,cycles,time_us,rounds,swaps" rows, one per threshold;
    [time_us] is {!Autobraid.Scheduler.time_us}. *)

val diagnostic_to_json : Qec_lint.Diagnostic.t -> Json.t
(** Fields [code], [severity], [file], [line], [col] (0 when the
    diagnostic has no source position), [message], and [context] when
    present — the same shape as [Qec_lint.Diagnostic.to_jsonl]. *)

val diagnostics_to_json : Qec_lint.Diagnostic.t list -> Json.t
(** A JSON array of {!diagnostic_to_json} objects. *)

val certificate_to_json : Qec_verify.Certifier.t -> Json.t
(** The [autobraid-cert/v1] schema: circuit/backend identity, round and
    cycle accounting, overall [ok], and one entry per
    {!Qec_verify.Invariant.t} with pass/fail status and failure
    witnesses (round, gate, detail). *)
