(** Initial qubit placement — stage 2 of the framework (Fig. 10).

    Base placement comes from the recursive-bisection partitioner
    ({!Qec_partition.Embed}, the METIS stand-in), with the snake embedding
    special case for degree-≤2 coupling graphs. On top of that, a
    simulated-annealing fine-tune driven by the LLG census: swap qubits to
    reduce the number of oversize (size > 3, non-nested) LLGs across the
    circuit's ASAP layers — the optimization evaluated in Table 1. *)

type method_ =
  | Identity  (** row-major, no analysis (control/ablation) *)
  | Bisected
      (** recursive bisection without the degree-2 snake special case —
          the paper's plain "metis" seed, Table 1's "before" column *)
  | Partitioned  (** bisection + snake special case for degree-2 graphs *)
  | Annealed  (** {!Partitioned} + LLG-driven annealing fine-tune *)

val place :
  ?seed:int ->
  ?coupling:Qec_circuit.Coupling.t Lazy.t ->
  ?dag:Qec_circuit.Dag.t Lazy.t ->
  method_:method_ ->
  Qec_circuit.Circuit.t ->
  Qec_lattice.Grid.t ->
  Qec_lattice.Placement.t
(** Deterministic in [seed]: the bisection and the anneal each derive
    their own sampling state from it, and the global [Random] is never
    consulted. The anneal runs a size-scaled number of iterations over at
    most 16 evenly spaced ASAP layers. [coupling] and [dag],
    when given, must be the coupling graph and DAG of [circuit]; a caller
    that needs them too passes its own so each is built once per job.
    [coupling] is forced only by the methods that bisect, [dag] only by
    the anneal, after the bisection. Raises
    [Invalid_argument] if the grid is too small. *)

val oversize_census :
  Qec_circuit.Circuit.t ->
  Qec_lattice.Placement.t ->
  int
(** Total number of LLGs of size > 3 over at most 48 evenly spaced ASAP
    layers — the "# of LLG's (size > 3)" column of Table 1. *)
