(** Content-addressed store of the initial placements backends made.

    Annealed placement dominates compile time for repeated and swept
    workloads, yet it depends only on the circuit's gate structure, the
    placement method and the seed. The cache never places anything:
    {!Autobraid.Scheduler.prepare} is the only code that lowers, sizes and
    places a circuit. On a miss the engine runs the backend without a
    placement and {!store}s the run's [trace.initial_cells] and lattice
    side; on a hit it hands the replayed placement to the backend. The
    table lives in memory (shared across domains, mutex-protected) and
    optionally on disk ([?dir]).

    [key] is the hex MD5 of the format-version tag, method, seed, qubit
    count and the request circuit's gate stream (mnemonic + operand
    qubits per gate; angles excluded), taken before lowering. Lowering
    rewrites each gate from its operands alone and keeps the qubit count,
    so equal keys give equal lowered circuits and equal placements
    (docs/engine.md). Any change to {!Autobraid.Initial_layout}'s
    algorithm or defaults must bump the version tag.

    Disk entries are one text file per key, published by temp file +
    rename under a best-effort cross-process [lockf] lock on
    [<dir>/.lock] (one domain per process at a time: POSIX drops all of a
    process's [fcntl] locks when any descriptor on the file closes).
    Reads take no lock: every entry ends with an md5 trailer over its
    payload, so unreadable, truncated, torn or bit-flipped entries count
    as misses, whose runs rewrite them. *)

type t

type counters = {
  memory_hits : int;
  disk_hits : int;
  misses : int;  (** lookups that found nothing usable *)
}

type verdict = Memory_hit | Disk_hit | Miss

val create : ?dir:string -> unit -> (t, string) result
(** In-memory cache; with [dir] also persist placements there (the
    directory is created if missing, its parent is not). [Error] names
    [dir] when it cannot be created or exists but is not a directory. *)

val counters : t -> counters
(** Monotone totals since [create]; safe to read concurrently. *)

val key :
  circuit:Qec_circuit.Circuit.t ->
  method_:Autobraid.Initial_layout.method_ ->
  seed:int ->
  string
(** The content key described above. [circuit] is the request circuit as
    the backend receives it (after any peephole optimization, before
    lowering). *)

val find :
  t -> string -> num_qubits:int -> verdict * Qec_lattice.Placement.t option
(** Look [key] up in memory, then on disk: [(Memory_hit | Disk_hit, Some p)]
    on a hit, [(Miss, None)] otherwise, counted in {!counters} too. A
    disk entry whose qubit count is not [num_qubits], or whose side is not
    {!Qec_surface.Resources.lattice_side} of it, is a miss. Every hit
    returns a fresh [Placement.t] on its own grid, so callers may mutate
    freely. *)

val store : t -> string -> side:int -> cells:int array -> unit
(** Record the placement a run made under [key]: [cells] (one per qubit,
    a trace's [initial_cells]) on a [side]×[side] grid. Memory first,
    then disk; a failed disk write is ignored. Concurrent stores of one
    key are harmless, since its value is deterministic. *)
