(** CX interference graph — §3.3.2.

    One node per pending CX gate; an edge joins two gates whose bounding
    boxes intersect (§3.3.2), i.e. whose braiding paths are likely to
    contend. The stack-based path finder peels maximum-degree nodes off
    this graph. Mutable: nodes can be removed, updating degrees.

    The graph is rebuilt every routing round, so the representation is
    packed flat: adjacency as bit words over dense node indices with a
    maintained degree array — no per-edge allocation, O(words) neighbor
    iteration. Observable behavior (edge sets, degrees, orderings) is
    pinned byte-identical to {!Legacy} by differential tests. *)

type t

val build : Qec_lattice.Placement.t -> Task.t list -> t

val of_boxes : Task.t array -> Qec_lattice.Bbox.t array -> t
(** [build] over boxes the caller already holds: [boxes.(i)] is the
    bounding box of [tasks.(i)], and [i] is that node's dense index for
    the [_at] functions below. *)

val original_count : t -> int
(** Nodes at build time (the denominator of the scheduling ratio). *)

val node_count : t -> int
(** Nodes still present. *)

val nodes : t -> Task.t list
(** Remaining tasks, ascending by id. *)

val degree : t -> int -> int
(** Degree of a (present) task id. Raises [Not_found] if absent. *)

val max_degree : t -> int
(** 0 when empty. *)

val max_degree_nodes : t -> Task.t list
(** All present nodes of maximal degree, ascending by id; [] when empty. *)

val neighbors : t -> int -> Task.t list
(** Present neighbors of a task id. *)

val remove : t -> int -> unit
(** Remove a node by task id, decrementing its neighbors' degrees.
    Raises [Not_found] if absent. *)

val mem : t -> int -> bool

(** {2 By dense index}

    Node [i] is the [i]-th task given to {!build} or {!of_boxes}. These
    never look a task id up, so a caller that works only through them
    (the stack finder's peel) builds no id table. *)

val present_at : t -> int -> bool

val degree_at : t -> int -> int
(** Current degree of node [i]; 0 once removed. *)

val max_degree_index : t -> int array -> int
(** [max_degree_index t areas]: the present node of maximal degree, ties
    going to the larger [areas.(i)], then to the lower task id; -1 when
    empty. One pass over the nodes. *)

val remove_at : t -> int -> unit
(** {!remove} by dense index. Raises [Invalid_argument] if absent. *)

(** The pre-rewrite hashtable-of-sets implementation, kept as the
    differential-testing oracle for the packed representation (see
    test_interference.ml). Scheduled for deletion once the packed graph
    has survived a release. *)
module Legacy : sig
  type t

  val build : Qec_lattice.Placement.t -> Task.t list -> t
  val original_count : t -> int
  val node_count : t -> int
  val nodes : t -> Task.t list
  val degree : t -> int -> int
  val max_degree : t -> int
  val max_degree_nodes : t -> Task.t list
  val neighbors : t -> int -> Task.t list
  val remove : t -> int -> unit
  val mem : t -> int -> bool
end
