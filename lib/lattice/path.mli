(** Braiding paths on the channel graph.

    A path is a non-empty sequence of distinct, consecutively-adjacent
    vertex ids. Simultaneous paths must be vertex-disjoint — a vertex is
    "exclusive to one CX operation at one time" (§2).

    A path keeps only its vertex list and length: paths are a few dozen
    vertices long, so {!mem} and {!disjoint} scan the lists, and no
    per-path set is built (a schedule's trace holds every path of every
    round). *)

type t

val of_vertices : Grid.t -> int list -> t
(** Validate and build. Raises [Invalid_argument] if empty, if the first
    vertex is not on the grid, if consecutive vertices are not
    grid-adjacent (checked by tracking the column along the steps, with
    no division per step), or if a vertex repeats (found by marking a
    scratch bitset over the range of the path's vertex ids, O(length)
    with no sort). *)

val vertices : t -> int list
(** In travel order (source corner first). *)

val length : t -> int
(** Number of vertices. *)

val source : t -> int

val target : t -> int

val mem : t -> int -> bool
(** Linear in the path length. *)

val disjoint : t -> t -> bool
(** No shared vertex. Scans the shorter path against the longer one. *)

val connects_cells : Grid.t -> t -> int -> int -> bool
(** Whether the endpoints are corners of the two given cells (in either
    order). *)

val within_bbox : Grid.t -> Bbox.t -> t -> bool
(** Every vertex lies in the vertex footprint of the box (channel columns
    [x0 .. x1+1], rows [y0 .. y1+1]) — "confined within or on the boundary
    of the bounding box". *)

val pp : Grid.t -> Format.formatter -> t -> unit
