(** Full schedule traces.

    While {!Scheduler.result} carries aggregates, a trace records what
    happened in every round: which gates were scheduled on which braiding
    paths, which SWAPs were inserted, and how the placement evolved. Traces
    support {e independent} validation — {!validate} replays the trace
    against the circuit's dependency DAG and the lattice rules without
    trusting the scheduler — plus rendering and export of the transformed
    (swap-inserted) logical circuit. *)

type round =
  | Local of { gates : int list }
      (** a round of purely local gates (gate ids), cost [d] cycles *)
  | Braid of {
      braids : (Task.t * Qec_lattice.Path.t) list;
          (** two-qubit gates with their paths, in routing order *)
      locals : int list;  (** local gates completed in the same round *)
    }  (** cost [2d] cycles *)
  | Swap_layer of { swaps : (int * int) list }
      (** inserted qubit-pair swaps, cost [6d] cycles *)
  | Merge of {
      merges : (Task.t * Qec_lattice.Path.t) list;
          (** lattice-surgery CX merges with their ancilla paths, in
              routing order *)
      locals : int list;  (** local gates completed in the same round *)
      split_overlapped : bool;
          (** the [d]-cycle split phase overlaps the next round (which
              must exist and touch none of this round's merge qubits) *)
    }
      (** a lattice-surgery round ({!Qec_surgery}): merge costs [d]
          cycles, plus [d] more for the split unless it overlaps the next
          round *)

type t = {
  circuit : Qec_circuit.Circuit.t;  (** the lowered circuit *)
  grid : Qec_lattice.Grid.t;
  initial_cells : int array;  (** qubit -> cell before round 0 *)
  rounds : round list;  (** in execution order *)
}

val round_cycles : Qec_surface.Timing.t -> round -> int
(** Latency of one round under the standard cost model: the cost named
    on each constructor above. *)

val cycles : Qec_surface.Timing.t -> t -> int
(** Total latency of the trace: the sum of {!round_cycles}. *)

val num_rounds : t -> int

val swap_count : t -> int

val placement_after : t -> int -> Qec_lattice.Placement.t
(** Placement after the first [k] rounds ([0] = initial). Raises
    [Invalid_argument] if [k] exceeds the round count. *)

val final_placement : t -> Qec_lattice.Placement.t

type violation = {
  round : int option;  (** 0-based round index, when tied to one round *)
  gate : int option;  (** gate id, when tied to one gate *)
  code : string;
      (** stable machine-readable class, ["TV001"]..["TV014"]: TV001 gate
          id out of range, TV002 executed twice, TV003 before a
          predecessor, TV004 two-qubit gate in a local slot, TV005
          non-two-qubit braid/merge entry, TV006 path misses operand
          tiles, TV007 task/gate operand mismatch, TV008 no two-qubit
          operands, TV009 path collision, TV010 swap layer touches a
          qubit twice, TV011 empty round, TV012 overlap on final round,
          TV013 overlapped split shares qubits, TV014 never executed *)
  msg : string;
}
(** One structured rule violation found while replaying a trace. Tooling
    should match on [code], never on [msg] (the wording may change). *)

val violation_to_string : violation -> string
(** ["round K: msg"] when a round is known, [msg] otherwise. *)

val check : t -> violation list
(** Replay the trace and check, without consulting the scheduler:

    - every circuit gate is executed exactly once, and only after all of
      its dependency predecessors;
    - braid paths and surgery merge paths are valid channel paths
      connecting the operand tiles {e under the placement current at that
      round};
    - paths within one round are pairwise vertex-disjoint;
    - swap layers touch each qubit at most once;
    - local rounds contain no two-qubit gates and braid/merge entries are
      all two-qubit gates;
    - an overlapped split ([Merge] with [split_overlapped]) is followed by
      a round that touches none of the merge operand qubits.

    Returns every detectable violation in replay order ([] for a valid
    trace). After a gate fails a readiness check the replay continues
    best-effort, so later violations may be knock-on effects of earlier
    ones; the first violation is always trustworthy. *)

val validate : t -> (unit, string) result
(** [Ok ()] when {!check} finds nothing, otherwise [Error msg] naming the
    first violation. *)

val round_to_string : t -> int -> string
(** ASCII rendering ({!Qec_lattice.Render}) of one round's paths over the
    placement current at that round. *)

val transformed_circuit : t -> Qec_circuit.Circuit.t
(** The logical circuit actually executed: the original gates in schedule
    order with the inserted SWAP layers materialized as [Swap] gates.
    Parsing/printing this circuit reproduces the mapped program. *)
