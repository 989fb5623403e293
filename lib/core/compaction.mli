(** Braiding-path compaction by rip-up-and-reroute.

    Braiding latency is path-length insensitive, but long paths hog routing
    vertices that later gates (in the same round) need. The paper calls
    topological path deformation orthogonal work (§5, first category); this
    pass implements its simplest useful form: repeatedly rip up the path
    with the most vertices and re-route it through the current residual
    occupancy, keeping the result only if strictly shorter, until a pass
    makes no progress.

    Compaction preserves endpoints and round validity (paths stay pairwise
    vertex-disjoint) and never increases total vertex usage. Enabled in the
    scheduler via [options.compaction] and always on in the lookahead
    backend's candidate attempts; measured in the ablation bench. *)

val compact :
  ?max_passes:int ->
  Qec_lattice.Router.t ->
  Qec_lattice.Occupancy.t ->
  Qec_lattice.Placement.t ->
  (Task.t * Qec_lattice.Path.t) list ->
  (Task.t * Qec_lattice.Path.t) list
(** [compact router occ placement routed] assumes every path in [routed]
    is currently reserved in [occ] (as {!Stack_finder.find} leaves them)
    and returns the compacted assignment, with [occ] updated to match.
    [max_passes] bounds the outer loop (default 3). Gate order is
    preserved. *)

val compact_and_rescue :
  Qec_lattice.Router.t ->
  Qec_lattice.Occupancy.t ->
  Qec_lattice.Placement.t ->
  Stack_finder.outcome ->
  Stack_finder.outcome * int
(** One round's compact-and-rescue step: {!compact} the outcome's routed
    paths (timed as [compaction.compact]), then route its failed gates in
    order ({!Stack_finder.route_in_order}) over the vertices that freed.
    Returns the new outcome, with [occ] holding exactly its paths, and the
    number of gates rescued. An outcome with nothing routed is returned
    as is (nothing to compact, so nothing frees). Counts no telemetry of
    its own beyond the timer: the caller decides whether the rescues are
    committed ([compaction.rescued_gates] in {!Scheduler}). *)

val total_vertices : (Task.t * Qec_lattice.Path.t) list -> int
(** Sum of path lengths — the quantity compaction minimizes. *)
