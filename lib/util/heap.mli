(** Priority queues over integer priorities, popping the smallest
    priority first and breaking ties by insertion order (FIFO), so
    consumers expand deterministically across runs.

    The polymorphic binary heap is the open list of the router's
    reference A* ([Router.route_reference]); {!Int_pq} is the open list
    of the production A*. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:int -> 'a -> unit
(** Insert an element with the given priority. *)

val pop_min : 'a t -> 'a option
(** Remove and return an element with the smallest priority, or [None] if
    the heap is empty. Among equal priorities, the earliest-pushed element
    is returned first. *)

val peek_min : 'a t -> 'a option
(** Smallest-priority element without removing it. *)

val clear : 'a t -> unit
(** Remove all elements (keeps the backing storage). *)

(** FIFO bucket queue over non-negative int values and priorities in
    [\[0, max_priority\]]: one first-in-first-out slot list per priority
    and a cursor at or below the smallest non-empty priority. Push, clear
    and each pop's bucket step are O(1); a pop scans empty buckets only
    upward from the cursor, and a push below the cursor lowers it.

    Pops come out in exactly the polymorphic heap's order — smallest
    priority first, push order among equal priorities — for any sequence
    of pushes, pops and clears, not only monotone ones. *)
module Int_pq : sig
  type t

  val create : max_priority:int -> capacity:int -> t
  (** Buckets for priorities [0 .. max_priority] and [capacity] slots: at
      most [capacity] pushes between two {!clear}s. *)

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> priority:int -> int -> unit
  (** Raises [Invalid_argument] (an array bounds check) if [priority] is
      outside [\[0, max_priority\]] or the [capacity] slots since the last
      {!clear} are used up. *)

  val pop_min : t -> int
  (** Remove and return the minimum, or [-1] when empty (values are node
      ids, never negative). *)

  val clear : t -> unit
  (** Empty the queue in O(1): buckets from before are recognised as
      stale by a generation stamp. *)
end
