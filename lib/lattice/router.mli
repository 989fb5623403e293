(** A* shortest-path search on the channel graph.

    Finds a braiding path between two cells: from any {e free} corner
    vertex of the source cell to any free corner vertex of the target cell,
    through free vertices only. All 16 corner-pair configurations (§3.1)
    are explored at once by a multi-source / multi-target search.

    The router object owns scratch buffers sized to the grid, so repeated
    queries allocate almost nothing; expansions are deterministic (FIFO
    tie-breaking on equal f-scores). The buffers are per router, never
    global, so routers on different domains do not interfere; one router
    must not be used from two domains at once.

    {b Open list.} The production {!route} keeps its open list in a ring
    of three FIFO buckets inside this module. Edges cost 1 and the
    heuristic (Manhattan distance to the nearest usable goal corner)
    changes by at most 1 per step, so it is consistent: a vertex pushed
    while the vertex of priority f closes gets a priority in
    [\[f, f + 2\]], and the source corners lie within 2 steps of each
    other. Every queued priority therefore lies in a window of 3 above
    the last pop, and buckets indexed by f mod 3 pop in exactly a binary
    heap's order (smallest f, then push order). A push outside the
    window raises [Invalid_argument] rather than misorder. Each bucket
    holds [4n + 4] slots on a grid of [n] vertices, the most one search
    pushes (once per incoming edge, plus up to 4 source corners).

    {b Inner loop.} The library is compiled with [-opaque] in dune's
    default profile, so every call into another module is out of line.
    An expansion therefore stays in this module: it tests the
    occupancy's byte map ({!Occupancy.claimed_map}) with [Bytes.get],
    reads vertex coordinates from per-router tables (no division), and
    computes the heuristic itself, a loop over the usable goal corners.
    None of this changes a result: {!route}
    pops, expands and returns exactly what {!route_reference} does,
    which still runs on the polymorphic binary heap.

    {b Dead-region certificates.} When an unbounded {!route} fails, the
    vertices it closed are exactly the free components of its usable
    source corners, and none holds a usable goal corner. The router gives
    them a fresh region label. A later {!route}, bounded or not, returns
    [None] without expanding anything when every (usable source corner,
    usable goal corner) pair carries different labels and at least one of
    the pair is labelled (an unlabelled vertex counts as its own label).
    This is exact, because within one {!Occupancy.epoch} vertices are only
    claimed: if two vertices are connected now, they were connected when
    either was last labelled, so that search gave both the same label.

    {b Epoch rule.} Labels belong to a session tied to one occupancy
    epoch. A failed search under any other epoch (after a {!Occupancy.clear}
    or {!Occupancy.release_path}, or on another occupancy sharing this
    router) starts a new session and drops every earlier label, and
    queries use labels only from the session of their own epoch. Results
    never depend on labels: {!route} always equals {!route_reference}. *)

type t

val create : Grid.t -> t

val grid : t -> Grid.t

val route :
  ?bounds:Bbox.t ->
  t ->
  Occupancy.t ->
  src_cell:int ->
  dst_cell:int ->
  Path.t option
(** Shortest free path, or [None] when the cells are disconnected under
    the current occupancy (possibly proved without a search by a
    dead-region certificate). With [bounds], the search is confined to the
    vertex footprint of the box (used to keep LLG-local paths inside their
    bounding box). If the two cells are adjacent and share a free corner,
    the result may be a single-vertex path. Raises [Invalid_argument] if
    [src_cell = dst_cell], either cell is off the grid or the occupancy's
    grid differs. *)

val route_reference :
  ?bounds:Bbox.t ->
  t ->
  Occupancy.t ->
  src_cell:int ->
  dst_cell:int ->
  Path.t option
(** The pre-rewrite closure-and-list A*, kept verbatim as the differential
    oracle for {!route} (see test_router.ml): identical arguments,
    identical results, byte-identical expansion order. It neither uses
    nor records dead-region labels, so it always searches. Scheduled for
    deletion once the arena implementation has survived a release. *)

val route_and_reserve :
  ?bounds:Bbox.t ->
  t ->
  Occupancy.t ->
  src_cell:int ->
  dst_cell:int ->
  Path.t option
(** {!route}, and on success immediately claim the path's vertices. *)

val route_dimension_ordered :
  t -> Occupancy.t -> src_cell:int -> dst_cell:int -> Path.t option
(** Dimension-ordered (single-bend, "L-shaped") routing: for each pair of
    free corners, try the x-then-y and y-then-x staircase with one bend;
    the first fully-free candidate wins (candidates ordered by length,
    then in corner-pair order, x-first before y-first; built only for
    the winner). No detours — this is how the MICRO'17
    braidflash baseline routes, and why it stalls under congestion while
    an A* searcher finds a way around. Raises like {!route}.

    Nothing is sorted: the candidates are visited length by length from
    the 16 corner-pair lengths. Each corner's run of free vertices toward
    the other cell is counted at most once per call per direction, capped
    at the longest leg it can serve, and a candidate is free iff the
    source corner's run covers its first leg and the target corner's run
    covers its second, so each test is O(1). *)

val route_dimension_ordered_and_reserve :
  t -> Occupancy.t -> src_cell:int -> dst_cell:int -> Path.t option
