(** Live, thread-safe server metrics.

    {!Qec_telemetry} merges worker-domain records only when the pool
    joins; a daemon's [stats] endpoint needs numbers {e now}. This module
    keeps mutex-guarded counters, gauges and sample series that any
    domain may update or snapshot at any time, and exports them in the
    same [counters]/[gauges]/[histograms] JSON shape as
    {!Qec_report.Export.telemetry_to_json} (the [--metrics] machine
    shape), minus the span-derived members. *)

type t

val create : unit -> t
val count : ?by:int -> t -> string -> unit
val gauge : t -> string -> float -> unit

val sample : t -> string -> float -> unit
(** Record one observation of a latency-style series. Count/sum/min/max
    are exact forever; percentiles are computed over the most recent
    16384 samples. *)

val counter : t -> string -> int
(** Current value, 0 if never incremented. *)

val uptime_s : t -> float
(** Seconds since {!create}. *)

val to_json : t -> Qec_report.Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": [...]}], all
    name-sorted; histogram objects carry
    [name]/[count]/[sum]/[min]/[max]/[mean]/[p50]/[p95] exactly like the
    telemetry export, percentiles by the same nearest-rank
    {!Qec_util.Stats.percentile}. *)
