(** Independent schedule certification.

    [certify] replays a {!Autobraid.Trace.t} and re-derives every
    {!Invariant.t} from first principles — its own per-qubit program-order
    dependency lists (not {!Qec_circuit.Dag}), its own placement replay,
    its own channel-graph adjacency and disjointness checks, and its own
    cycle accounting — so it shares no verdict-bearing logic with any
    scheduler. Optimizing a schedule is hard; checking one is cheap
    (arXiv 2302.00273) — this module is the cheap side, the one schedule
    checker: the engine, [lint --schedule] (QL210), [autobraid trace],
    the fuzz properties and the tests all validate traces with it.

    A certificate reports every invariant individually with failure
    witnesses (round / gate / detail), and serializes to the
    [autobraid-cert/v1] JSON schema via [Qec_report.Export].

    Cost: one call allocates its scratch arrays once: the replayed
    qubit->cell array, the per-gate execution counts and program-order
    predecessors, and one vertex-stamp array that serves both the
    per-path repeat check and the per-round disjointness check. Channel
    adjacency and tile corners come from index arithmetic on the grid's
    row-major numbering, not from {!Qec_lattice.Grid} neighbour lists.
    Vertices are sorted only for a path that shares vertices with an
    earlier path of its round, when its witnesses are written. None of
    this reads {!Qec_lattice.Path}'s constructor invariant or
    {!Qec_lattice.Placement}. *)

type witness = {
  invariant : Invariant.t;
  round : int option;  (** 0-based round index, when tied to one round *)
  gate : int option;  (** gate id, when tied to one gate *)
  detail : string;  (** human-readable explanation *)
}

type t = {
  circuit_name : string;
  backend : string option;  (** producing backend, when known *)
  num_gates : int;
  num_rounds : int;
  cycles_computed : int;  (** independent recomputation from round shapes *)
  cycles_traced : int;  (** {!Autobraid.Trace.cycles} *)
  cycles_reported : int option;  (** [result.total_cycles], when given *)
  witnesses : witness list;  (** all failures, replay order; [] = clean *)
}

val certify :
  ?backend:string ->
  ?result:Autobraid.Scheduler.result ->
  Qec_surface.Timing.t ->
  Autobraid.Trace.t ->
  t
(** Replay and certify. With [~result], the scheduler-reported
    [total_cycles] joins the cycle-accounting cross-check. Malformed traces
    become witnesses, a path vertex off the trace's grid included (a
    [path/channel] witness). *)

val ok : t -> bool
(** No invariant failed. *)

val failed : t -> Invariant.t list
(** Invariants with at least one witness, in {!Invariant.all} order. *)

val witnesses_for : t -> Invariant.t -> witness list
(** Witnesses of one invariant, replay order. *)

val witness_to_string : witness -> string
(** E.g. ["path/disjoint: round 3, gate 5: ..."]. *)

val to_summary : t -> string
(** One line: certified / failed counts plus the first witness. *)
