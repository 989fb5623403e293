(** Gate dependency DAG and scheduling frontier.

    Two gates depend on each other iff they share an operand qubit; the
    earlier one in program order is the predecessor. This is the standard
    as-soon-as-possible model: gates on disjoint qubits may run
    concurrently ("theoretically concurrent CX gates" in the paper). *)

type t

val of_circuit : Circuit.t -> t

val circuit : t -> Circuit.t

val num_gates : t -> int

val preds : t -> int -> int list
(** Immediate predecessors of a gate id (ascending). *)

val succs : t -> int -> int list
(** Immediate successors of a gate id (ascending). *)

val asap_levels : t -> int array
(** Unit-cost ASAP level of each gate (sources at level 0). *)

val depth : t -> int
(** Number of unit-cost levels; 0 for an empty circuit. *)

val layers : t -> int list array
(** Gate ids grouped by ASAP level, ids ascending within a layer. *)

val critical_path : cost:(Gate.t -> int) -> t -> int
(** Longest path where each gate contributes [cost gate]. This is the
    paper's "critical path (CP)" ideal latency once [cost] is the
    surface-code gate latency (see {!Qec_surface.Timing}). *)

val two_qubit_layer_histogram : t -> (int * int) list
(** For each count [k] of theoretically-concurrent two-qubit gates, how
    many ASAP layers have exactly [k] of them. Sorted by [k]. Used for the
    communication-parallelism analysis stage of the framework. *)

(** {2 Frontier}

    Mutable ready-set tracking for round-based schedulers. The ready set
    is a bitset over gate ids, updated in place as gates complete; its
    observable behavior is pinned to {!Frontier.Reference} by differential
    tests and the [sched/incremental-frontier] fuzz property.

    The frontier also keeps a window [lo .. hi] of gate ids outside which
    no gate is ready. {!Frontier.complete} widens it to cover each gate it
    makes ready; {!Frontier.iter_ready} and {!Frontier.ready} read only the
    bitset words under it and shrink it to the lowest and highest ready
    ids they visit. A scan therefore costs O(window words + ready gates),
    not O(gates / 63): on a deep, narrow circuit the window spans the few
    gates in flight, wherever they sit in the program. *)

module Frontier : sig
  type dag := t

  type t

  val create : dag -> t

  val ready : t -> int list
  (** Ids of gates whose predecessors have all completed, ascending. *)

  val iter_ready : (int -> unit) -> t -> unit
  (** Visit ready gate ids in ascending order without building a list.
      O(window words + ready gates). *)

  val complete : t -> int -> unit
  (** Mark a ready gate as executed, unlocking successors. Raises
      [Invalid_argument] if the gate is not currently ready. *)

  val is_done : t -> bool

  val remaining : t -> int
  (** Gates not yet completed. *)

  (** The pre-rewrite [Set.Make (Int)] frontier, kept as the differential
      oracle for the bitset implementation (see test_dag.ml). Scheduled
      for deletion once the bitset frontier has survived a release. *)
  module Reference : sig
    type t

    val create : dag -> t
    val ready : t -> int list
    val complete : t -> int -> unit
    val is_done : t -> bool
    val remaining : t -> int
  end
end
