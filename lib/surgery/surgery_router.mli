(** Tile-time-aware routing of one lattice-surgery round.

    Reuses the braiding fabric — {!Qec_lattice.Router} A* search over
    {!Qec_lattice.Occupancy}-free channel vertices — and the stack-based
    conflict resolution of {!Autobraid.Stack_finder}, but with surgery's
    cost model: an ancilla path of [k] vertices is occupied for the
    [d]-cycle merge, committing [k * d] of tile-time. Path length is
    therefore {e not} free (unlike braiding §2), so:

    - concurrent merges route in ascending operand-distance order
      (cheapest committed volume first), with the interference-graph
      stack still deferring lattice-splitting gates to last;
    - when merges stay blocked, one {e volume-aware rip-up} evicts the
      routed merge holding the most tile-time, re-routes the blocked
      merges through the freed corridor, and re-places the victim —
      kept only when strictly more gates schedule. *)

type round_result = {
  routed : (Autobraid.Task.t * Qec_lattice.Path.t) list;
      (** scheduled merges with their ancilla paths, reserved in the
          occupancy on return *)
  failed : Autobraid.Task.t list;  (** merges deferred to a later round *)
  ratio : float;  (** |routed| / |tasks|; 1.0 for an empty round *)
  ripup_attempts : int;  (** 0 or 1 per round *)
  ripup_rescues : int;  (** blocked merges rescued by the rip-up *)
}

val route_round :
  retry:bool ->
  ripup:bool ->
  Qec_lattice.Router.t ->
  Qec_lattice.Occupancy.t ->
  Qec_lattice.Placement.t ->
  Autobraid.Task.t list ->
  round_result
(** Route the concurrent merges of one round. [retry] is the stack
    finder's failed-first re-route; [ripup] the volume-aware eviction
    pass (the surgery backend's options of those names). The occupancy may already contain foreign
    reservations (treated as obstacles, never released). *)
