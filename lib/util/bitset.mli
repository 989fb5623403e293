(** Fixed-capacity bitset over [0 .. capacity-1].

    Backs the routing-grid occupancy map (one bit per channel vertex) and
    the DAG frontier's ready set (one bit per gate). Operations are O(1)
    except [cardinal]/[iter]/[union], which are O(capacity/63), and
    [iter_range], which reads only the words covering its range. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int

val copy : t -> t

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Empty the set. *)

val cardinal : t -> int
(** Number of members. *)

val iter : (int -> unit) -> t -> unit
(** Visit members in ascending order. *)

val iter_range : (int -> unit) -> t -> lo:int -> hi:int -> unit
(** [iter_range f t ~lo ~hi] visits the members [i] with [lo <= i <= hi]
    in ascending order, reading only the words that cover the range:
    O((hi - lo) / 63 + visited). The range is clipped to
    [0 .. capacity-1]; an empty range ([hi < lo]) visits nothing. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every member of [src] to [dst]. The two sets
    must have equal capacity. *)

val inter_cardinal : t -> t -> int
(** Size of the intersection (capacities must match). *)

val to_list : t -> int list
(** Members in ascending order. *)

val ntz : int -> int
(** Trailing-zero count of a nonzero machine word: the bit index of its
    lowest set bit. Exposed for packed-bit-word iteration elsewhere (the
    interference graph's adjacency rows). Raises [Invalid_argument] on 0. *)
