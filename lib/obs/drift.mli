(** Bench drift gating: compare a freshly measured BENCH_*.json tree
    against a committed baseline and fail on regressions.

    The two JSON trees are walked in parallel; numeric leaves are gated by
    key name. {e Cycle} metrics (deterministic compiler outputs:
    [total_cycles], [rounds], [comm_rounds], [braid_rounds],
    [swap_layers], [swaps_inserted], [critical_path_cycles], the cycle
    ratios [speedup] / [lookahead_speedup] / [braid_vs_greedy_speedup],
    and the verify section's exact counts) are checked against
    [tolerance]. {e Wall} metrics (host timings: keys ending in [_s]) are
    lower-is-better and checked against the looser [wall_tolerance].
    Other leaves — descriptors, utilization ratios, backend stats — are
    informational and skipped. A gated baseline metric missing from the
    current tree is an error, not a silent pass. *)

type direction = Lower_better | Higher_better
type band = Cycle | Wall

val classify : string -> (direction * band) option
(** How a metric key is gated, or [None] for ungated keys. *)

type finding = {
  path : string;  (** dotted path, e.g. ["circuits[0].braid.total_cycles"] *)
  key : string;
  baseline : float;
  current : float;
  ratio : float;  (** current / baseline; [infinity] when baseline is 0 *)
  band : band;
}

type outcome = {
  checked : int;  (** gated metrics compared *)
  regressions : finding list;
  improvements : finding list;  (** beyond tolerance in the good direction *)
  missing : string list;  (** gated baseline paths absent from current *)
}

val check :
  tolerance:float ->
  wall_tolerance:float ->
  baseline:Qec_report.Json.t ->
  current:Qec_report.Json.t ->
  outcome
(** A metric regresses when it is worse than [baseline * (1 +/- tol)] in
    its gated direction (with a tiny epsilon so exact equality at the
    boundary never trips). *)

val pp_finding : finding -> string
val passed : outcome -> bool
(** No regressions and nothing missing. *)
