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
  ?rng:Qec_util.Rng.t ->
  ?coupling:Qec_circuit.Coupling.t Lazy.t ->
  ?dag:Qec_circuit.Dag.t Lazy.t ->
  ?anneal_iters:int ->
  ?sample_layers:int ->
  method_:method_ ->
  Qec_circuit.Circuit.t ->
  Qec_lattice.Grid.t ->
  Qec_lattice.Placement.t
(** Deterministic in [seed]. [rng] threads one explicit sampling state
    through both the bisection partitioner and the annealer (advancing the
    caller's generator); when absent, fresh states are derived from [seed]
    exactly as before, so seed-addressed callers are byte-stable. The
    global [Random] is never consulted. [anneal_iters] defaults to a
    size-scaled bound; [sample_layers] caps how many ASAP layers the
    census inspects (evenly spaced; default 48). [coupling] and [dag],
    when given, must be the coupling graph and DAG of [circuit]; a caller
    that needs them too passes its own so each is built once per job.
    [coupling] is forced only by the methods that bisect, [dag] only by
    the anneal, after the bisection. Raises
    [Invalid_argument] if the grid is too small. *)

val oversize_census :
  ?sample_layers:int ->
  Qec_circuit.Circuit.t ->
  Qec_lattice.Placement.t ->
  int
(** Total number of LLGs of size > 3 over the (sampled) ASAP layers — the
    "# of LLG's (size > 3)" column of Table 1. *)
