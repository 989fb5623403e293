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

    {b Open list.} The production {!route} keeps its open list in a FIFO
    bucket queue ([Qec_util.Heap.Int_pq]): one first-in-first-out list
    per f-score, so a push or pop costs O(1) instead of a binary heap's
    O(log n) sift, and pops come out in exactly the heap's order
    (smallest f, then push order). The queue is sized when the router is
    created: every f = g + h is below [n + 2 (side + 1)] on a grid of [n]
    vertices (g < n, h <= 2 side), and a search pushes at most [4n + 4]
    times (once per incoming edge, plus up to 4 source corners). Vertex
    coordinates come from per-router tables, so the search never
    divides. Neither changes a result: {!route} pops, expands and returns
    exactly what {!route_reference} does, which still runs on the
    polymorphic binary heap.

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
    [src_cell = dst_cell] or the occupancy's grid differs. *)

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
    an A* searcher finds a way around. Raises like {!route}. *)

val route_dimension_ordered_and_reserve :
  t -> Occupancy.t -> src_cell:int -> dst_cell:int -> Path.t option
