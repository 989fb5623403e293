(** Content-addressed cache of annealed initial placements.

    Simulated-annealing placement dominates compile time for repeated and
    swept workloads, yet its output depends only on the lowered circuit's
    gate structure, the lattice side, the placement method and the seed —
    so identical requests are pure recomputation. This cache memoizes
    placements under a versioned content key in memory (shared across the
    worker pool, mutex-protected) and optionally on disk ([?dir]), so a
    second batch over the same manifest skips the annealing entirely.

    Cache key ([key]): hex MD5 over a canonical description —
    format-version tag, method name, seed, lattice side, qubit count, and
    the lowered gate stream (mnemonic + operand qubits per gate, in
    order). Rotation angles are deliberately excluded: placement depends
    on interaction structure and layering, never on angles. Any change to
    {!Autobraid.Initial_layout}'s algorithm or defaults must bump the
    version tag, invalidating old disk entries.

    Disk entries are one text file per key, written atomically
    (temp file + rename), so concurrent batches sharing a [--cache-dir]
    never observe torn files. Writers additionally serialize on a
    cross-process advisory lock ([<dir>/.lock], best-effort [lockf]) so
    two daemons or batches sharing the directory cannot interleave entry
    writes; within one process a mutex keeps at most one domain in the
    locked section (POSIX drops all of a process's [fcntl] locks when any
    descriptor on the file closes). Reads take no lock at all: every
    entry ends with an md5 trailer over its payload, so unreadable,
    truncated, torn, or bit-flipped entries — even ones that still
    parse — fail the digest check, count as misses, and are recomputed
    and rewritten, never replayed or crashed on. *)

type t

type counters = {
  memory_hits : int;
  disk_hits : int;
  misses : int;  (** placements actually computed *)
}

type verdict = Memory_hit | Disk_hit | Miss

val create : ?dir:string -> unit -> t
(** In-memory cache; with [dir] also persist placements there (the
    directory is created if missing). *)

val dir : t -> string option

val counters : t -> counters
(** Monotone totals since [create]; safe to read concurrently. *)

val key :
  circuit:Qec_circuit.Circuit.t ->
  side:int ->
  method_:Autobraid.Initial_layout.method_ ->
  seed:int ->
  string
(** The content key described above. [circuit] must already be lowered
    ({!Qec_circuit.Decompose.to_scheduler_gates}) — the schedulers place
    lowered circuits, so hashing anything else would alias distinct
    placements. *)

val find_or_place :
  t ->
  circuit:Qec_circuit.Circuit.t ->
  side:int ->
  method_:Autobraid.Initial_layout.method_ ->
  seed:int ->
  Qec_lattice.Placement.t * verdict
(** The placement {!Autobraid.Initial_layout.place} would produce for the
    (lowered) circuit on a fresh [side]×[side] grid — computed on miss,
    replayed from memory or disk on hit — and which of the three this
    call was, counted in {!counters} too. Every call returns a fresh
    [Placement.t] on its own grid, so callers may mutate freely. *)
