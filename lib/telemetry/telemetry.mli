(** Structured instrumentation for the AutoBraid pipeline.

    Counters, gauges, sample histograms and nested monotonic timing spans,
    delivered to a pluggable {!sink}. With no sink installed every probe is
    a single branch on domain-local state — hot paths (the A* router, the
    scheduler round loop) can stay instrumented unconditionally.

    Telemetry is {b domain-aware}: state lives in [Domain.DLS], so probes
    never race. The domain that calls {!install} is the {e root}; its spans
    stream to the sink as they close. Worker domains spawned by
    [Qec_util.Parallel] attach via {!worker_scope} (registered as the
    Parallel probe at link time): their spans and aggregates buffer
    per-domain, tagged [(domain, worker)], and merge into the session
    when the scope ends at join. Counters, gauges, sample histograms and
    aggregate timers live in one {!Tally} per domain and are emitted
    (sorted by name, so output is deterministic) on {!flush} /
    {!uninstall}. *)

type span = {
  span_name : string;
  depth : int;  (** nesting depth at open time; 0 = root *)
  start_s : float;  (** seconds since the sink was installed *)
  total_s : float;  (** wall time between open and close *)
  self_s : float;  (** [total_s] minus the time spent in direct child spans *)
  domain : int;  (** OCaml domain id the span was recorded on *)
  worker : int;  (** pool worker id; 0 = the installing (root) domain *)
}

type histogram = {
  hist_name : string;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p95 : float;
}

type record =
  | Span of span
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of histogram
  | Timer of { name : string; calls : int; total_s : float }
      (** An aggregate timer: calls and summed wall seconds. *)

type sink = { emit : record -> unit; close : unit -> unit }

(** One aggregate table: counters, gauges, sample series and timers.
    Every domain's probe state, the session's cross-domain buffer and the
    serve daemon's live statistics are each one tally. Not thread-safe:
    a tally shared between threads needs its owner's lock. *)
module Tally : sig
  type t

  val window : int
  (** 16,384: how many of its newest samples each series keeps for its
      percentiles, in every tally (session and serve daemon alike), so a
      long run or a long-lived daemon holds bounded memory;
      count/sum/min/max stay exact over every sample. *)

  val create : ?rank:int -> unit -> t
  (** [rank] (default 0) tags this tally's gauges for {!merge}. *)

  val count : ?by:int -> t -> string -> unit
  (** Add [by] (default 1) to the named counter. *)

  val counter : t -> string -> int
  (** Current value, 0 if never counted. *)

  val gauge : t -> string -> float -> unit
  (** Set the named gauge; the last write wins. *)

  val sample : t -> string -> float -> unit
  (** Record one observation of the named series. *)

  val time : t -> string -> float -> unit
  (** Add one call of the given seconds to the named timer. *)

  val merge : into:t -> t -> unit
  (** Fold the second tally into [into]: counters, timer calls and
      seconds sum; series fold their exact moments and append their kept
      samples; a gauge keeps the value of the lower rank, [into]'s on a
      tie. The second tally is left unchanged. *)

  val records : t -> record list
  (** Counters, then gauges, histograms and timers, each sorted by name.
      Histogram percentiles are nearest-rank
      ({!Qec_util.Stats.percentile}) over the kept samples. *)

  val reset : t -> unit
  (** Forget everything recorded. *)
end

val null : sink
(** Discards everything. *)

val tee : sink list -> sink
(** Fan a record out to several sinks; [tee \[\]] is {!null}. *)

val enabled : unit -> bool
(** [true] iff the calling domain has telemetry state — either it
    installed the sink, or it is a worker inside a {!worker_scope}. Use
    this to skip building expensive probe arguments. *)

val install : ?clock:(unit -> float) -> sink -> unit
(** Install [sink] as the active sink on the calling domain, replacing any
    previous one without flushing it. [clock] (default [Unix.gettimeofday])
    must be monotone non-decreasing for span math to make sense; tests
    inject a fake. The session is published for {!worker_scope} pickup by
    subsequently spawned domains. *)

val uninstall : unit -> unit
(** {!flush} accumulated aggregates, close the sink, disable telemetry.
    Only the installing domain can uninstall; elsewhere (and with nothing
    installed) this is a no-op. *)

val with_sink : ?clock:(unit -> float) -> sink -> (unit -> 'a) -> 'a
(** [with_sink sink f] installs [sink] for the duration of [f ()], then
    flushes, closes and restores whatever was installed before — safe to
    nest, exception-safe. *)

val worker_scope : worker:int -> (unit -> 'a) -> 'a
(** [worker_scope ~worker f] attaches the calling domain to the currently
    installed session (if any) for the duration of [f ()]: probes record
    into domain-local buffers tagged with this domain's id and [worker],
    and everything merges into the session when [f] returns or raises —
    dangling spans are closed first. On a domain that already has state
    (the root, or a nested call) and when no sink is installed this is
    just [f ()]. [Qec_util.Parallel] runs every spawned worker inside this
    scope via its probe. *)

val count : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter. Worker counters are summed
    into the root's at merge. *)

val gauge : string -> float -> unit
(** Set the named gauge (last write wins within a domain; across domains
    the root's value wins, then the lowest worker id — deterministic
    regardless of worker scheduling). *)

val sample : string -> float -> unit
(** Record one observation of the named sample histogram. Worker samples
    append to the root's series; count, min, max and percentiles are
    order-insensitive, while the sum adds in merge order. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed name f] runs [f ()] and adds its wall time and one call to the
    named aggregate timer, also when [f] raises. Unlike a span it writes
    no per-call record: the timer keeps only total seconds and a call
    count, which sum across domains at merge and are emitted on {!flush}
    as one [Timer] record per name (sorted by name). Meant for inner
    layers called thousands of times per compile. When disabled this is
    just [f ()] after one {!enabled} check. *)

val span_open : string -> unit
(** Open a nested timing span. Pair with {!span_close}. *)

val span_close : unit -> unit
(** Close the innermost open span and emit its record (root) or buffer it
    (worker). Unbalanced closes are ignored. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Scoped {!span_open}/{!span_close}. If [f] raises with child spans
    still open, the abandoned children are closed before this span's own
    frame, so outer spans' self-time stays consistent. When disabled this
    is just [f ()]. *)

val flush : unit -> unit
(** Drain merged worker buffers (spans emitted grouped by worker id,
    chronological within each worker), then emit accumulated counters,
    gauges, histograms and timers (each sorted by name) and reset them.
    Root spans already streamed on close. Only meaningful on the
    installing domain. *)
