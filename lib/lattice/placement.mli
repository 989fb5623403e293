(** Logical-qubit placement: a (partial) bijection qubit ↔ cell.

    The lattice has [L² >= N] cells; every qubit occupies exactly one cell
    and a cell holds at most one qubit. AutoBraid changes the placement
    dynamically through SWAPs (§3.2 "Qubit Layout"); the baseline keeps it
    static. *)

type t

val create : Grid.t -> num_qubits:int -> cells:int array -> t
(** [cells.(q)] is qubit [q]'s cell. Raises [Invalid_argument] on
    out-of-range cells, duplicates, or [num_qubits > num_cells]. *)

val identity : Grid.t -> num_qubits:int -> t
(** Qubit [q] on cell [q] (row-major). *)

val random : Qec_util.Rng.t -> Grid.t -> num_qubits:int -> t
(** Uniformly random distinct cells. *)

val of_order : Grid.t -> int list -> t
(** [of_order grid qs] lays qubits out along the boustrophedon (snake)
    cell order of the grid: the first qubit of [qs] on the first snake
    cell, etc. Every qubit must appear exactly once. Neighbors in [qs] end
    up in adjacent cells — used for degree-2 coupling graphs and the
    Maslov specialisation. *)

val copy : t -> t

val grid : t -> Grid.t

val num_qubits : t -> int

val cell_of_qubit : t -> int -> int

val qubit_of_cell : t -> int -> int option
(** [None] for unoccupied cells. *)

val swap_qubits : t -> int -> int -> unit
(** Exchange the cells of two qubits. *)

val move_qubit : t -> qubit:int -> cell:int -> unit
(** Relocate a qubit to an {e empty} cell. Raises [Invalid_argument] if
    the cell is occupied by another qubit. *)

val qubit_cell_xy : t -> int -> int * int
(** Cell coordinates of a qubit's tile. *)

val xs : t -> int array
(** Each qubit's cell column, as the placement keeps it: [(xs t).(q)] is
    the [x] of [Grid.cell_xy grid (cell_of_qubit t q)]. Not a copy, and
    read-only for callers: {!swap_qubits} and {!move_qubit} update it in
    place. {!qubit_cell_xy}, {!distance} and {!cx_bbox} read it, and so
    does the LLG census loop of the core library, which reads it directly:
    the library is compiled with [-opaque] in dune's default profile, so
    a call per operand would run out of line, and [Grid.cell_xy] divides. *)

val ys : t -> int array
(** Each qubit's cell row, kept and shared like {!xs}. *)

val distance : t -> int -> int -> int
(** Manhattan cell distance between two qubits' tiles. *)

val cx_bbox : t -> int -> int -> Bbox.t
(** Outer bounding box of a two-qubit gate between the given qubits. *)

val to_array : t -> int array
(** Fresh array mapping qubit -> cell. *)

val equal : t -> t -> bool
