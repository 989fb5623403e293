(** Per-round occupancy of routing vertices.

    Tracks which channel vertices are claimed by braiding paths during the
    current scheduling round, and accumulates the utilization statistics
    reported in Fig. 17.

    The state is one byte per vertex (['\000'] free, ['\001'] claimed)
    plus the number of claimed vertices, so {!occupied_count} and
    {!utilization} are O(1) and {!snapshot} builds its bitset only when
    called. The router reads the byte map itself ({!claimed_map}) once
    per search: the library is compiled with [-opaque] in dune's default
    profile, so a call to {!is_free} is an out-of-line call across
    modules, while [Bytes.get] on the map is an inline load.

    Each occupancy carries an {e epoch}: a number drawn from one
    process-wide counter on {!create}, {!clear} and {!release_path}. Between
    two epoch changes vertices are only ever claimed, never freed, so the
    free subgraph only loses vertices; anything derived from the free
    subgraph under one epoch (the router's dead-region labels) stays sound
    until the epoch changes. Epochs are never reused, by this occupancy or
    any other, so two occupancies sharing a router never mix labels. *)

type t

val create : Grid.t -> t
(** All vertices free. *)

val grid : t -> Grid.t

val epoch : t -> int
(** The current epoch; changes on every {!release_path} and {!clear}, and
    is unique across all occupancies of the process. *)

val is_free : t -> int -> bool

val claimed_map : t -> Bytes.t
(** The byte map itself, not a copy: byte [v] is ['\000'] when vertex [v]
    is free. Read-only for callers; it changes under them on every
    reserve, release and clear. *)

val reserve_path : t -> Path.t -> unit
(** Claim every vertex of the path. Raises [Invalid_argument] if any is
    already claimed (caller must route on free vertices only). *)

val release_path : t -> Path.t -> unit
(** Release every vertex of the path (used when a tentative schedule is
    rolled back before a swap round). Vertices must be currently
    claimed. Starts a new epoch. *)

val clear : t -> unit
(** Free everything — called between rounds. Starts a new epoch. *)

val occupied_count : t -> int
(** Claimed vertices; O(1). *)

val utilization : t -> float
(** Occupied vertices over total vertices, in [0, 1]; O(1). *)

val snapshot : t -> Qec_util.Bitset.t
(** A fresh bitset of the claimed vertices, built from the byte map on
    each call (for tests and for interference checks). *)
