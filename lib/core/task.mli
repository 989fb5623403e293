(** A pending two-qubit gate awaiting a braiding path. *)

type t = { id : int; q1 : int; q2 : int }
(** [id] is the gate's index in the circuit (unique within a round); [q1],
    [q2] the operand qubits. *)

val of_gate : int -> Qec_circuit.Gate.t -> t option
(** [Some task] for two-qubit gates, [None] otherwise. *)

val bbox : Qec_lattice.Placement.t -> t -> Qec_lattice.Bbox.t
(** Outer bounding box under the current placement. *)

val cells : Qec_lattice.Placement.t -> t -> int * int
(** The two operand tiles. *)

val distance : Qec_lattice.Placement.t -> t -> int
(** Manhattan distance between the operand tiles. *)

val shortest_first : Qec_lattice.Placement.t -> t list -> t list
(** The greedy (MICRO'17) routing order: shortest operand distance first,
    gate id breaking ties. *)

val pp : Format.formatter -> t -> unit
