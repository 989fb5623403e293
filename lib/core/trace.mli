(** Full schedule traces.

    While {!Scheduler.result} carries aggregates, a trace records what
    happened in every round: which gates were scheduled on which braiding
    paths, which SWAPs were inserted, and how the placement evolved. Traces
    are certified independently of the scheduler by [Qec_verify.Certifier],
    and support rendering and export of the transformed (swap-inserted)
    logical circuit. *)

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

val round_to_string : t -> int -> string
(** ASCII rendering ({!Qec_lattice.Render}) of one round's paths over the
    placement current at that round. *)

val transformed_circuit : t -> Qec_circuit.Circuit.t
(** The logical circuit actually executed: the original gates in schedule
    order with the inserted SWAP layers materialized as [Swap] gates.
    Parsing/printing this circuit reproduces the mapped program. *)
