(** Dataflow analyses over the gate dependency DAG.

    Gate ids are topologically ordered (a predecessor always has a
    smaller id than its successor — program order refines dependency
    order), so forward analyses converge in one ascending pass and
    backward analyses in one descending pass; {!solve} exploits this
    instead of iterating to a fixpoint.

    The concrete analyses below feed the QL3xx lint rules: qubit
    liveness, per-gate critical-path slack, and per-layer congestion
    pressure from the CX interference graph. *)

type direction = Forward | Backward

val solve :
  n:int ->
  direction:direction ->
  edges:(int -> int list) ->
  init:'a ->
  transfer:(int -> 'a -> 'a) ->
  join:('a -> 'a -> 'a) ->
  'a array
(** Generic one-pass solver over [n] topologically-ordered nodes.
    [edges g] must be the predecessors of [g] (all with smaller ids) for
    [Forward], the successors (all with larger ids) for [Backward]. The
    fact at [g] is [transfer g (fold join init (facts of edges g))] —
    nodes with no edges start from [init]. Raises [Invalid_argument] if
    an edge violates the ordering contract. *)

(** {2 Liveness} *)

val live_after : Qec_circuit.Circuit.t -> Qec_util.Bitset.t array
(** [live_after c].(g) is the set of qubits used by any gate after [g]
    in program order — a backward analysis along the program-order
    chain. A qubit of gate [g] absent from [live_after c].(g) is dead:
    nothing ever reads or measures it again. Callers must not mutate
    the returned sets. *)

(** {2 Critical-path slack} *)

type slack = {
  earliest_finish : int;  (** longest-path completion time of the gate *)
  tail : int;  (** longest path from the gate to any sink, inclusive *)
  slack : int;  (** schedule freedom; 0 = on a critical path *)
}

val default_cost : Qec_circuit.Gate.t -> int
(** Latency in units of [d]: 0 for barriers, 2 for two-qubit and wide
    gates, 1 for local gates — mirroring {!Qec_surface.Timing} without
    fixing a distance. *)

val slack_analysis :
  ?cost:(Qec_circuit.Gate.t -> int) ->
  ?dag:Qec_circuit.Dag.t ->
  Qec_circuit.Circuit.t ->
  slack array
(** Forward earliest-finish plus backward tail longest-paths over the
    DAG; [slack = critical_length - (earliest_finish + tail - cost)].
    [cost] defaults to {!default_cost}. [dag] must be the circuit's DAG;
    it is built when omitted. *)

val critical_length : slack array -> int
(** The longest-path length (0 for an empty circuit). *)

(** {2 Congestion pressure} *)

type congestion = {
  layer : int;  (** ASAP layer index *)
  task : Autobraid.Task.t;
  degree : int;
      (** interference-graph degree: how many other two-qubit gates of
          the same layer have an overlapping bounding box *)
}

val congestion_pressure : Qec_circuit.Circuit.t -> congestion list
(** For every two-qubit gate, its contention within its own ASAP layer
    under the deterministic identity placement on the smallest square
    lattice — the placement-independent congestion signal available
    before any scheduling. Ascending by (layer, gate id). *)
