(** Windowed critical-path lookahead over the braiding round driver.

    The greedy schedulers (braid, surgery) commit each round looking only
    at the current DAG front; whenever two front gates contend for lattice
    paths, the routing race — not the dependency structure — decides which
    one waits. This scheduler re-runs the braiding driver through the
    {!Autobraid.Scheduler.drive_traced} seam and, each round, routes a
    {e portfolio} of candidate orderings through the same stack finder:

    + the greedy stack order, exactly as the braid backend would route
      the round;
    + the windowed critical-path order: gates sorted by their
      {!windowed_tail} (the longest dependent chain visible within
      [window] levels of successors);
    + the hardest-first order: largest bounding box first, committing
      the lattice-splitting paths before short local paths fragment the
      fabric;
    + two deterministic diversification shuffles — the multi-start that
      rescues rounds where every informed order walks into the same
      packing dead end.

    Every candidate is compacted ({!Autobraid.Compaction}) and its
    failed gates rescued over the freed vertices; candidates are then
    ranked by gates routed, then by the slack-weighted criticality of
    the routed set — each routed gate contributes
    [slack_weight * criticality], where criticality comes from
    {!Qec_verify.Dataflow.slack_analysis} (1 for zero-slack
    critical-path gates, → 0 for maximally slack ones) — then by lower
    lattice utilization (congestion pressure). The losers are ripped up
    (the occupancy is cleared and the winner deterministically
    re-routed), so the driver always commits a single coherent round.

    Per-round heuristics cannot promise global improvement, so the
    never-worse guarantee is enforced by construction: the whole
    lookahead run is compared against a plain greedy run with identical
    options, and the cheaper schedule (total cycles) is returned — the
    same keep-the-cheaper discipline surgery's [pipeline_splits] uses.
    With [window = 0] the route hook is not installed at all and the run
    {e is} the greedy braid schedule. *)

val options_spec : Autobraid.Comm_backend.Options.spec list
(** The lookahead knobs, the one place their defaults are written
    ([autobraid backends] lists them): [window] (int) is how many
    successor levels the priority looks past the front, 0 being pure
    greedy (identical to the braid backend); [slack_weight] (float)
    weighs the criticality term in the round score, 0 valuing every
    routed gate equally. *)

val validate : Autobraid.Comm_backend.Options.t -> (unit, string) result
(** The one range check: [window >= 0] and [slack_weight >= 0]. The
    registry entry's [validate], also applied by {!run_traced}. *)

type stats = {
  window : int;
  chose_lookahead : bool;
      (** the lookahead schedule was at least as cheap as greedy and was
          returned (always true when they tie) *)
  lookahead_cycles : int;
  greedy_cycles : int;
  priority_rounds : int;
      (** rounds of the lookahead run where a non-greedy portfolio
          candidate won the ranking and was committed *)
  rescued_gates : int;
      (** gates routed by the post-compaction rescue pass in committed
          rounds *)
}

val stats_to_assoc : stats -> (string * float) list
(** Stable order, booleans as 0/1 — the {!Autobraid.Comm_backend}
    [stats] payload. *)

val windowed_tail :
  dag:Qec_circuit.Dag.t -> window:int -> Qec_circuit.Circuit.t -> int array
(** [.(g)] is the longest-cost chain starting at gate [g] that stays
    within [window] dependency levels, under
    {!Qec_verify.Dataflow.default_cost}: [wt_0 g = cost g] and
    [wt_(k+1) g = cost g + max over successors of wt_k]. For
    [window >= depth] this is exactly the Dataflow [tail]. Computed on
    the circuit as given (no lowering) — callers wanting scheduler-gate
    ids must lower first. [dag] is the circuit's DAG. *)

val run_traced :
  ?config:Autobraid.Comm_backend.config ->
  ?options:Autobraid.Comm_backend.Options.t ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result * Autobraid.Trace.t * stats
(** [config] defaults to {!Autobraid.Comm_backend.default_config} and
    [options] (decoded against {!options_spec}) to the declared defaults.
    Raises [Invalid_argument] with {!validate}'s message when the options
    are out of range. Deterministic for fixed arguments; never more total
    cycles than {!Autobraid.Scheduler.run_traced} with
    [Comm_backend.scheduler_options config] (enforced by keeping the
    cheaper of the two runs). *)

val register : unit -> unit
(** Enter ["lookahead"] into {!Autobraid.Comm_backend}'s registry, with
    {!options_spec}, {!validate} and a ctor that is
    [run_traced ~config ~options] with [stats] flattened by
    {!stats_to_assoc}. Idempotent. Runs automatically when this module is
    linked and referenced; call it explicitly from code that only
    resolves backends by name, so linking is guaranteed. *)
