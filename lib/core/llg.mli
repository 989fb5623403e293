(** Local parallel group (LLG) analysis — §3.3.1.

    An LLG is a minimal set of concurrent CX gates whose joint bounding box
    does not overlap any other LLG's joint bounding box — overlap being
    plain cell intersection ({!Qec_lattice.Bbox.intersects}), the paper's
    definition. Boxes that merely touch along a channel may still contend
    for shared boundary vertices; the router resolves those cases, the
    analysis does not need to.

    Theorem 1: an LLG of size ≤ 3 always schedules fully inside its box.
    Theorem 2: so does an LLG of strictly nested gates of any size. The
    initial-placement fine-tune minimizes the number of groups that satisfy
    neither ("oversize" groups), which Table 1 shows correlates with
    execution time.

    One partition kernel serves every entry point below. It inserts the
    task boxes one at a time into a set of pairwise disjoint group boxes,
    kept in per-domain scratch int arrays: a box absorbs every group its
    growing joint box meets, until it meets none. Every merge is forced —
    two groups whose boxes meet lie in one group of any partition with
    pairwise disjoint joint boxes — and the groups are pairwise disjoint
    once the last box is in, so the result is the finest such partition,
    whatever the order of insertion. The census entry points read the
    placement's cached qubit coordinates ({!Qec_lattice.Placement.xs})
    and build no box, list or record. *)

type group = private {
  members : Task.t list;  (** ascending by task id *)
  bbox : Qec_lattice.Bbox.t;  (** joint bounding box *)
}

val decompose : Qec_lattice.Placement.t -> Task.t list -> group list
(** Partition concurrent tasks into LLGs. Groups are returned in ascending
    order of their smallest member id. The result is a partition: every
    task appears in exactly one group, and distinct groups' joint boxes do
    not intersect. *)

val size : group -> int

val is_strictly_nested : Qec_lattice.Placement.t -> group -> bool
(** Members' boxes form a strict nesting chain (largest strictly contains
    the next, etc.). Trivially true for singleton groups. *)

val is_guaranteed : Qec_lattice.Placement.t -> group -> bool
(** Satisfies Theorem 1 (size ≤ 3) or Theorem 2 (strictly nested). *)

val confinement : Qec_lattice.Bbox.t array -> Qec_lattice.Bbox.t option array
(** [confinement boxes], where [boxes.(i)] is the bounding box of the
    round's [i]-th task: entry [i] is the joint box of that task's LLG
    when the LLG is guaranteed (Theorem 1 or 2), [None] otherwise. The
    same partition and verdicts as {!decompose} and {!is_guaranteed},
    computed from the boxes alone. In a round of at most 3 tasks every
    LLG has size <= 3, so every entry is [Some]. *)

val count_oversize : Qec_lattice.Placement.t -> Task.t list -> int
(** Number of groups with size > 3 — the Table 1 statistic
    ("# of LLG's (size > 3)"). *)

val count_oversize_array : Qec_lattice.Placement.t -> Task.t array -> int
(** {!count_oversize} over an array of tasks: the anneal's census.
    Allocates nothing. *)

val iter_oversize_members :
  Qec_lattice.Placement.t -> Task.t array -> (Task.t -> unit) -> unit
(** [iter_oversize_members placement tasks f] calls [f] on every member
    of every group of size > 3: groups in the order of their first task
    in [tasks], each group's members in array order. That is
    {!decompose}'s order when [tasks] ascend by id. Sorts and allocates
    nothing; [f] must not call back into this module. *)
