(** Fork-join parallelism over OCaml 5 domains.

    Two layers:

    - {!Queue} + {!run_workers}: a shared concurrent work queue feeding a
      fixed-size worker pool — the primitive behind batch compilation
      ({!Qec_engine}), where callers need per-item bookkeeping (timings,
      error capture) inside the worker loop.
    - {!map_jobs}: fork-join map built on that queue. Callers
      pass pure-ish functions (the scheduler mutates only per-run state)
      and results come back in input order regardless of worker count. *)

exception Worker_failure of exn
(** Wraps an exception raised by a worker function in {!map_jobs};
    re-raised in the caller, for the lowest-index failing item. *)

type probe = {
  wrap_worker : worker:int -> (unit -> unit) -> unit;
      (** runs a spawned worker's whole loop; the telemetry probe opens a
          per-domain recording scope here and merges it at join *)
  enabled : unit -> bool;  (** telemetry live on the calling domain? *)
  now : unit -> float;  (** wall clock, only consulted when [enabled] *)
  count : string -> int -> unit;
  sample : string -> float -> unit;
  span_open : string -> unit;
  span_close : unit -> unit;
}
(** Instrumentation hooks. [qec_util] cannot depend on [qec_telemetry]
    (the dependency points the other way), so telemetry injects itself via
    {!set_probe} at link time. With the default {!null_probe} every hook
    is a no-op and workers run exactly as before. *)

val null_probe : probe
(** The do-nothing probe (default). *)

val set_probe : probe -> unit
(** Install the process-wide probe. Called once by [Qec_telemetry] on
    linking; tests may swap in their own. *)

module Queue : sig
  type 'a t
  (** A fixed work list consumed concurrently, lock-free (one atomic
      fetch-and-add per {!pop}). Items are handed out in input order with
      their original index, so consumers can write results positionally. *)

  val of_list : 'a list -> 'a t

  val pop : 'a t -> (int * 'a) option
  (** Next [(index, item)], or [None] once the queue is drained. Safe to
      call from any domain. *)

  val length : 'a t -> int
  (** Total number of items (drained or not). *)

  val remaining : 'a t -> int
  (** Items not yet popped — a racy snapshot, for progress reporting. *)
end

val run_workers : jobs:int -> (int -> unit) -> unit
(** [run_workers ~jobs worker] runs [worker id] on [max 1 jobs] domains
    (ids [0 .. jobs-1]; id 0 is the calling domain) and joins them all
    before returning. An exception from the caller's own worker is
    re-raised after the join; workers are expected to capture their own
    failures (e.g. into a results array) — an escape from a spawned
    domain surfaces via [Domain.join]. Spawned workers run under the
    installed {!probe}'s [wrap_worker], so with telemetry active their
    spans and counters record for real and merge at join. *)

val map_jobs : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f xs] evaluates [f] on every element using a worker
    pool of [jobs] domains (default {!default_jobs}) fed by a shared
    queue. Falls back to plain [List.map] for lists of length <= 1 or
    [jobs <= 1]. Exceptions raised by [f] are re-raised in the caller as
    {!Worker_failure}. Results are in input order. With telemetry active
    each item reports a [parallel.job] span plus [parallel.queue_wait_s]
    / [parallel.job_s] histogram samples and a [parallel.jobs] counter. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)
