(** Round-based lattice-surgery scheduler: a round policy on
    {!Autobraid.Scheduler}'s one round driver.

    The driver keeps the DAG frontier, local rounds, counters, the clock
    and trace assembly; this module supplies what differs from braiding:

    - each two-qubit gate becomes a ZZ/XX merge through an ancilla path
      routed by {!Surgery_router} (tile-time-aware, with volume-based
      rip-up), then a split; routed rounds are recorded as
      [Trace.Merge];
    - a merge round costs [merge + split = 2d] cycles, except when the
      split {e pipelines}: if the next round touches none of this round's
      merge qubits, the split overlaps it and the round costs only [d]
      (see {!Qec_surface.Surgery_timing}). The policy's round selection
      defers gates off the previous round's merge qubits to buy such
      overlaps; both the deferred and the undeferred schedule are driven
      from one preparation and the cheaper is kept;
    - no SWAP layers are ever inserted — surgery reaches any two patches
      directly, so the placement stays static.

    Totals are derived by replaying the emitted {!Autobraid.Trace}
    ([Trace.cycles]), so every claimed cycle is backed by a round the
    validator can check. *)

val options_spec : Autobraid.Comm_backend.Options.spec list
(** The surgery knobs, the one place their defaults are written
    ([autobraid backends] lists them): [retry] (failed-first re-route
    inside the stack finder), [ripup] (volume-aware eviction of the
    costliest merge) and [pipeline_splits] (overlap splits with
    data-independent successor rounds). *)

type stats = {
  merge_rounds : int;
  local_rounds : int;
  pipelined_splits : int;  (** rounds whose split overlapped the next *)
  tile_time_cycles : int;
      (** Σ over merges of path-vertices × merge-cycles: the total
          space-time volume committed to ancilla corridors *)
  ripup_attempts : int;
  ripup_rescues : int;
  longest_merge_path : int;  (** vertices of the longest ancilla path *)
  mean_merge_path : float;
}

val stats_to_assoc : stats -> (string * float) list
(** Stable-keyed flat view for {!Autobraid.Comm_backend.outcome} stats
    and JSON export. *)

val run_traced :
  ?config:Autobraid.Comm_backend.config ->
  ?options:Autobraid.Comm_backend.Options.t ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result * Autobraid.Trace.t * stats
(** Schedule the circuit with lattice surgery. [config] (initial
    placement, seed, placement override) defaults to
    {!Autobraid.Comm_backend.default_config}; [options] is a record
    decoded against {!options_spec} and defaults to its declared
    defaults. The result reuses the braiding result record:
    [braid_rounds] holds merge rounds and [swap_layers]/[swaps_inserted]
    are 0 by construction. [critical_path_cycles] uses the surgery gate
    costs ({!Qec_surface.Surgery_timing.gate_cycles}). [stats] are read
    off the kept trace's merge rounds, plus the rip-up totals of the pass
    that produced it. Raises [Invalid_argument] on a mismatched placement
    override. *)

val register : unit -> unit
(** Enter ["surgery"] into {!Autobraid.Comm_backend}'s registry: its
    ctor is [run_traced ~config ~options], with [stats] flattened by
    {!stats_to_assoc}. Idempotent. Runs automatically when this module is
    linked and referenced; call it explicitly from code that only
    resolves backends by name, so linking is guaranteed. *)
