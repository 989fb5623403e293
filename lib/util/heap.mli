(** A binary min-heap over integer priorities, popping the smallest
    priority first and breaking ties by insertion order (FIFO), so
    consumers expand deterministically across runs.

    This heap is the open list of the router's reference A*
    ([Router.route_reference]). The production A* ([Router.route]) keeps
    its own open list, a ring of three FIFO buckets inside router.ml: its
    priorities stay within a window of 3, and the library is compiled
    with [-opaque], so a queue in another module would cost an
    out-of-line call per push and pop. *)

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
