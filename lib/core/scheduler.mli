(** Round-based braiding scheduler — the AutoBraid driver (Fig. 10).

    Repeats until every gate is scheduled: take the DAG front, route the
    concurrent CX gates with the stack-based path finder, and — in the
    [Full] variant — trigger the layout optimizer when less than
    [threshold_p] of them could be scheduled, spending one parallel SWAP
    layer (cost 3 CX) to change the placement before retrying.

    Latency model (see {!Qec_surface.Timing}): a round containing at least
    one braid costs [2d] cycles, a purely local round [d] cycles, a SWAP
    layer [6d] cycles. Ready single-qubit gates complete in any round.

    Circuits are lowered with
    {!Qec_circuit.Decompose.to_scheduler_gates} on entry, so callers may
    pass Toffoli/MCT/barrier-bearing circuits directly. *)

type variant =
  | Sp  (** stack-based path finder only — "autobraid-sp" *)
  | Full  (** path finder + dynamic layout optimization — "autobraid-full" *)

type options = {
  variant : variant;
  threshold_p : float;
      (** layout optimizer triggers when the scheduled ratio of a round
          falls below this value; in [0, 1), paper sweeps 0–0.9 *)
  initial : Initial_layout.method_;
  swap_strategy : Layout_opt.strategy option;
      (** [None] = auto: odd-even when the coupling graph is dense
          (all-to-all-like), greedy otherwise *)
  retry : bool;
      (** failed-first retry pass in the path finder (default true;
          disable for the ablation study) *)
  confine_llg : bool;
      (** route guaranteed LLGs inside their bounding boxes first, with
          whole-lattice fallback (default true — Theorems 1-2) *)
  compaction : bool;
      (** topological path compaction per round ({!Compaction}), using the
          freed vertices to rescue failed gates (default false) *)
  lookahead : bool;
      (** critical-path lookahead: within a round, route gates with the
          tallest dependent chains first (default false) *)
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
      (** start from this placement instead of running [initial]; copied,
          never mutated. Used to share one (annealed) placement across a
          p-sweep. *)
}

val default_options : options
(** [Full], [threshold_p = 0.3], [Annealed] initial placement, auto swap
    strategy, retry on, seed 11. *)

type result = {
  name : string;
  num_qubits : int;
  num_gates : int;  (** after lowering *)
  num_two_qubit : int;
  lattice_side : int;
  total_cycles : int;
  rounds : int;
  braid_rounds : int;
  swap_layers : int;
  swaps_inserted : int;
  critical_path_cycles : int;  (** routing-free lower bound, same costs *)
  avg_utilization : float;  (** mean occupied-vertex ratio over braid rounds *)
  peak_utilization : float;
  compile_time_s : float;  (** wall time spent scheduling *)
}

val time_us : Qec_surface.Timing.t -> result -> float
(** Execution time in microseconds: [total_cycles] at the timing's cycle
    length. *)

val critical_path_us : Qec_surface.Timing.t -> result -> float

type round_route =
  round:int ->
  router:Qec_lattice.Router.t ->
  occ:Qec_lattice.Occupancy.t ->
  placement:Qec_lattice.Placement.t ->
  Task.t list ->
  Stack_finder.outcome
(** A custom per-round routing policy for {!run} and {!run_traced_with}.
    Called once per round that has at least one ready two-qubit gate, with
    the occupancy already cleared; it owns the whole routing decision
    (ordering, candidate comparison, rip-up, rescue) and must return with
    [occ] holding exactly the reservations of the outcome — the driver's
    SWAP-layer rollback releases those paths when it overrides the
    round. *)

type policy = {
  select :
    prev:Trace.round option -> int list * Task.t list -> int list * Task.t list;
      (** which ready gates run this round: given the previous emitted
          round and the ready (local gate ids, two-qubit tasks), both in
          ascending gate id, return the subsets to schedule. Must keep at
          least one gate. *)
  route : round_route option;
      (** the round's routing; [None] is the stack finder under the
          driver's options (retry, LLG confinement, compaction,
          lookahead priority) *)
  routed_round : (Task.t * Qec_lattice.Path.t) list -> int list -> Trace.round;
      (** the trace round of a committed routed round, from its routed
          gates and local gates: [Braid], or [Merge] with
          [split_overlapped = false] *)
  gate_cycles : Qec_circuit.Gate.t -> int;
      (** per-gate cost of [critical_path_cycles] *)
}
(** What a backend plugs into the one round driver ({!drive}). The driver
    keeps everything else: the DAG frontier, local rounds, the SWAP-layer
    decision, utilization, counters, the wall clock, trace assembly and
    cycle accounting (each emitted round costs {!Trace.round_cycles}). *)

val braid_policy : ?route:round_route -> Qec_surface.Timing.t -> policy
(** Defect braiding: every ready gate runs, routed rounds are [Braid],
    gate costs are {!Qec_surface.Timing.gate_cycles}. [route] as in
    {!policy}. *)

type prepared
(** A circuit made ready for driving: lowered, placed on its lattice,
    with its DAG and (lazily) its layout optimizer's swap strategy. Never
    mutated by a drive, so one preparation serves many drives. *)

val prepare : options -> Qec_circuit.Circuit.t -> prepared
(** Lower the circuit ({!Qec_circuit.Decompose.to_scheduler_gates}),
    size the lattice (the smallest square grid fitting the qubit count,
    §4.1), place it ([placement_override] or [initial] with [seed]) and
    build its DAG. Reads only those options and [swap_strategy]. Raises
    [Invalid_argument] on a mismatched [placement_override]. *)

val lowered : prepared -> Qec_circuit.Circuit.t
(** The lowered circuit; gate and task ids in every drive index it. *)

val dag : prepared -> Qec_circuit.Dag.t
(** The DAG of {!lowered}, built once by {!prepare}. *)

val drive :
  policy -> options:options -> Qec_surface.Timing.t -> prepared -> result
(** The round loop: until every gate is scheduled, take the DAG front,
    let the policy select and route it, and emit a local, routed or SWAP
    round. Starts from a copy of the prepared placement. [compile_time_s]
    is the preparation's wall time plus this drive's. Raises
    [Invalid_argument] if [threshold_p] is outside [0, 1). *)

val drive_traced :
  policy ->
  options:options ->
  Qec_surface.Timing.t ->
  prepared ->
  result * Trace.t
(** {!drive}, also recording every round. Scheduling decisions are
    identical. *)

val run :
  ?route:round_route ->
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  result
(** Schedule the whole circuit. The lattice is the smallest square grid
    fitting the qubit count (§4.1). Deterministic for fixed options. With
    [route], that policy replaces the stack finder in every round that
    has a ready two-qubit gate (see {!run_traced_with}); nothing is
    recorded. *)

val run_traced :
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  result * Trace.t
(** Like {!run}, additionally recording the full per-round schedule
    ({!Trace}) for validation, rendering, and export. Scheduling decisions
    are identical to {!run}'s. *)

val run_traced_with :
  ?route:round_route ->
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  result * Trace.t
(** {!run_traced} under [braid_policy ?route]: frontier bookkeeping,
    trace emission, SWAP-layer logic and cycle accounting stay shared,
    only the path search is replaced. With [route] absent this {e is}
    [run_traced] (same code path). The seam the lookahead backend
    ([Qec_lookahead]) and the greedy baseline ([Gp_baseline]) schedule
    through. *)

val run_best_p :
  ?options:options ->
  ?grid_points:float list ->
  ?jobs:int ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  result * (float * result) list
(** The paper's p-sweep: run at each threshold (default 0.0 to 0.9 by 0.1)
    and return the best result plus the whole curve (for Fig. 18). The
    circuit is prepared ({!prepare}) once and driven per threshold. With
    [jobs > 1] the thresholds run on a {!Qec_util.Parallel} worker pool of
    that size — identical results in identical order, shorter wall time.
    Each run's [compile_time_s] is the shared preparation plus that run's
    own drive, so it does not count work done on other domains. [jobs]
    defaults to 1 (sequential). *)
