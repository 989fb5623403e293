(** Planar-code (teleportation) communication model, a route policy over
    {!Autobraid.Scheduler} — the comparison mode of Javadi-Abhari et al.
    (MICRO'17) that motivates the AutoBraid paper's closing discussion
    (§5): braiding congestion made the double-defect code look worse than
    the planar code; AutoBraid argues that a proper braiding scheduler
    flips the conclusion because the double-defect code "uses fewer
    physical qubits than the planar code".

    Model (a documented simplification, see DESIGN.md):

    - a CX between two tiles teleports through an EPR channel routed on
      the same channel graph; the channel is held for {e one} code-cycle
      block ([d] cycles) instead of a braid's [2d] — entanglement
      distribution parallelizes along the path;
    - channels of one round must still be vertex-disjoint, so the same
      routing machinery applies: the model is a route policy over
      {!Autobraid.Scheduler} — the stack-based path finder, or the greedy
      baseline's shortest-first order ({!Gp_baseline.route}) — with the
      rounds re-costed at [d] cycles each;
    - the layout never changes (teleportation {e is} transport);
    - a planar logical qubit plus its share of channel ancillas costs
      [overhead_factor] × the double-defect tile (default 1.5×).

    The headline comparison ({!Qec_benchmarks} + bench section "planar"):
    per-round latency favors the planar code by ~2×, but at equal physical
    budget the double-defect code affords a higher code distance; with
    AutoBraid closing the congestion gap, double-defect wins the
    qubits-for-reliability trade — the paper's claim. *)

type ordering =
  | Greedy_shortest  (** MICRO'17-style order, shortest channels first *)
  | Stack  (** AutoBraid's stack-based order, for a like-for-like fight *)

val run :
  ?ordering:ordering ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result
(** Schedule under the teleportation model, from a [Partitioned]
    placement at seed 11; [ordering] defaults to [Stack]. The shared
    result record's [swap_*] fields are always 0; a round with at least
    one teleported CX costs [d] cycles (not [2d]);
    [critical_path_cycles] uses the same teleport costs, so "vs CP"
    ratios stay comparable. *)

val physical_qubits :
  ?overhead_factor:float -> num_logical:int -> d:int -> unit -> int
(** Physical qubits of the planar layout at distance [d]. *)

val distance_for_budget :
  ?overhead_factor:float -> num_logical:int -> budget:int -> unit -> int option
(** Largest odd distance whose planar layout fits in [budget] physical
    qubits; [None] if even d = 3 does not fit. Used for the equal-budget
    comparison. *)
