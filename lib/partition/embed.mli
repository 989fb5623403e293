(** Recursive-bisection embedding of the coupling graph onto the lattice.

    Reproduces the role of "metis" in the paper's initial placement:
    frequently-interacting qubits end up in compact grid regions. The grid
    rectangle is split along its longer axis; the qubit set is bisected
    proportionally ({!Bisect}); recursion bottoms out at single cells.

    Coupling graphs of maximal degree 2 skip all that and use the snake
    embedding directly (the paper's "optimizing for special graphs with
    maximal degree of two"). *)

val layout :
  ?seed:int ->
  ?snake:bool ->
  Qec_circuit.Coupling.t ->
  Qec_lattice.Grid.t ->
  Qec_lattice.Placement.t
(** Deterministic in [seed]: the sampling state is derived from it, and
    the global [Random] is never consulted. [snake] (default true) enables
    the degree-2 special case; disable it for the plain-bisection
    ablation. Raises [Invalid_argument] if the grid has fewer cells than
    qubits. *)
