(** Balanced graph bisection with Kernighan–Lin refinement.

    A lightweight stand-in for METIS (which the paper uses for initial
    placement): BFS-grown initial halves followed by greedy boundary swap
    refinement in the Kernighan–Lin style. Deterministic given the RNG
    state. *)

type graph
(** A coupling graph prepared for bisection: its per-qubit
    [(neighbour, weight)] rows plus O(n) scratch space. The scratch makes
    a graph single-owner: do not bisect one graph from two domains at
    once. *)

val prepare : Qec_circuit.Coupling.t -> graph
(** O(n) time and space; the rows are shared with the coupling graph.
    Build it once and reuse it for every bisection of that graph. *)

val bisect :
  rng:Qec_util.Rng.t -> size_a:int -> graph -> int list -> int list * int list
(** [bisect ~rng ~size_a g nodes] splits the distinct qubits [nodes] into
    two lists of sizes [size_a] and [length nodes - size_a], in [nodes]
    order, heuristically minimizing the total weight of edges crossing
    the cut. Edges to qubits outside [nodes] are ignored.

    Side A grows by BFS from a random start, queueing neighbours by
    descending weight (ascending qubit on ties). Then, on node sets of at
    most 256, Kernighan–Lin refinement swaps the unlocked boundary pair of
    largest positive gain (the first in node order on ties), locks both,
    and repeats up to [max 4 (n / 4)] times. One swap step costs
    O(sum of degrees + |A| * |B|): every candidate's D-value (external
    minus internal weight) is computed once per step, and [w(a, b)] is
    read from [a]'s weight row scattered into an O(n) scratch array. At
    this cost the 256 cap is not needed for speed; it is kept so
    partitions stay byte-identical ([fixtures/golden_placements.txt]).

    Raises [Invalid_argument] if [size_a] is out of range or a node is
    not a qubit of [g]. *)

val cut_weight : graph -> int list -> int list -> int
(** Total weight across the cut — exposed for tests. *)
