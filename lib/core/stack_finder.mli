(** Stack-based path finder — the paper's Fig. 13 algorithm.

    Given the concurrent CX gates of one scheduling round:

    + build the CX interference graph;
    + while its maximum degree exceeds 2, remove a maximum-degree node
      (ties broken toward the largest bounding-box area, then lowest id)
      and push it on a stack;
    + A*-route the remaining low-interference gates first (smallest
      bounding box first — local groups are handled locally);
    + pop the stack LIFO and route each gate on what is left.

    The LIFO order defers exactly the long, lattice-splitting paths the
    paper warns about, and handles the nested case of Theorem 2 (the
    enclosing gate has the largest box, so it is routed last).

    On top of Fig. 13 we add one {e failed-first retry}: if some gates
    could not be routed, the whole round is re-routed once with the failed
    gates first (the Fig. 8 situation — search order, not capacity, was the
    obstacle); the better of the two attempts is kept. The retry wins only
    with strictly more routed gates, that is strictly fewer failures, so it
    stops as soon as its failures reach the first pass's count and the
    first attempt is restored: the outcome and the occupancy are exactly
    those of a retry run to the end, with fewer searches. *)

type outcome = {
  routed : (Task.t * Qec_lattice.Path.t) list;
      (** successfully routed gates, in routing order; their paths are
          reserved in the occupancy on return *)
  failed : Task.t list;  (** gates deferred to a later round *)
  ratio : float;  (** |routed| / |tasks|; 1.0 for an empty round *)
}

val find :
  ?retry:bool ->
  ?confine_llg:bool ->
  ?priority_of:(Task.t -> int) ->
  Qec_lattice.Router.t ->
  Qec_lattice.Occupancy.t ->
  Qec_lattice.Placement.t ->
  Task.t list ->
  outcome
(** [retry] defaults to [true]. With [confine_llg] (default false), gates
    belonging to LLGs guaranteed by Theorems 1-2 first search for a path
    {e inside their group's bounding box} — "each LLG can find their
    braiding paths locally in their bounding boxes" — falling back to the
    whole lattice if the confined search fails. [priority_of] prepends a
    lookahead key to the routing order (higher routes earlier) — used by
    the scheduler's critical-path lookahead. The occupancy may already
    contain foreign reservations (they are treated as obstacles and never
    released). *)

val planned_order :
  ?priority_of:(Task.t -> int) ->
  Qec_lattice.Placement.t ->
  Task.t list ->
  Task.t list
(** The full routing order of one round before any path is searched:
    low-interference gates sorted smallest-box-first, then the peeled
    stack LIFO. Each task's box is computed once into an array that the
    areas, the interference graph and (in {!find}) the LLG confinement
    all read; no hash table is built. A round of at most 3 tasks builds
    no interference graph either: with fewer than 4 nodes no degree
    exceeds 2, so nothing is peeled and the order is the sort alone.
    Pinned to {!planned_order_reference} by differential tests. Exposed
    for tests. *)

val planned_order_reference :
  ?priority_of:(Task.t -> int) ->
  Qec_lattice.Placement.t ->
  Task.t list ->
  Task.t list
(** The pre-rewrite ordering that re-derives every bounding box inside the
    peel loop and sort comparator — the differential oracle for
    {!planned_order}. Scheduled for deletion once the precomputed-area
    path has survived a release. *)

val route_in_order :
  Qec_lattice.Router.t ->
  Qec_lattice.Occupancy.t ->
  Qec_lattice.Placement.t ->
  Task.t list ->
  (Task.t * Qec_lattice.Path.t) list * Task.t list
(** Route tasks in exactly the given order (no stack, no retry, no
    confinement), reserving successful paths. Also the scheduler's
    compaction rescue, and
    the greedy baseline's A* router ([Gp_baseline.route Astar], which the
    planar-teleport model's greedy order reuses). *)
