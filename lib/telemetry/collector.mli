(** In-memory telemetry sink: keeps every record for tests, summary tables
    and JSON export. *)

type t

type phase = {
  phase_name : string;
  calls : int;
  total_s : float;
  self_s : float;
}
(** Spans aggregated by name, sorted by descending self-time. *)

val create : unit -> t

val sink : t -> Telemetry.sink
(** A sink appending every record to [t]. Closing is a no-op, so the
    collector can be read after [Telemetry.with_sink] returns. *)

val records : t -> Telemetry.record list
(** Everything received, in arrival order. *)

val counters : t -> (string * int) list

val counter : t -> string -> int
(** 0 when the counter was never incremented. *)

val gauges : t -> (string * float) list
val gauge_opt : t -> string -> float option
val histograms : t -> Telemetry.histogram list
val histogram_opt : t -> string -> Telemetry.histogram option
val timers : t -> (string * int * float) list
(** Aggregate timers as [(name, calls, total seconds)], in arrival
    order (sorted by name within one flush). *)

val spans : t -> Telemetry.span list

val lanes : t -> (int * int) list
(** Distinct [(domain, worker)] pairs spans were recorded on, sorted —
    more than one entry means worker domains really reported. *)

val phases : t -> phase list

val phase_table : t -> Qec_util.Tableprint.t
(** Per-phase self-time summary: calls, total, self, self%. *)

val print_phases : t -> unit
(** [phase_table] to stdout (prints nothing when no spans were recorded). *)

val print_summary : t -> unit
(** Phase table plus counters, gauges, sample-histogram and timer
    tables. *)
