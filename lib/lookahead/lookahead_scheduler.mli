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

type options = {
  window : int;
      (** how many successor levels the priority looks past the front;
          0 = pure greedy (identical to the braid backend) *)
  slack_weight : float;
      (** weight of the criticality term in the round score; 0 values
          every routed gate equally *)
  initial : Autobraid.Initial_layout.method_;
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
}

val default_options : options
(** [window = 4], [slack_weight = 1.0], braid's initial/seed defaults. *)

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
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result * Autobraid.Trace.t * stats
(** Deterministic for fixed options; never more total cycles than
    {!Autobraid.Scheduler.run_traced} with the same initial / seed /
    placement (enforced by keeping the cheaper of the two runs). *)
