(** Re-implementation of the baseline braiding scheduler — "GP w. initM"
    (Javadi-Abhari et al., MICRO'17, as characterized in the AutoBraid
    paper §4.1) — as a route policy over {!Autobraid.Scheduler}.

    Greedy policy: each round, sort the ready CX gates by operand distance
    (shortest first — shortest paths consume minimal routing resources) and
    route them in that order; gates that fail wait for the next round.
    The qubit placement comes from the graph partitioner ("initM") and is
    {e static} for the whole execution — no LLG analysis, no stack
    ordering, no retry, no SWAP insertion. Everything else — frontier,
    latency accounting, trace — is the scheduler's own round loop
    ([variant = Sp] with {!route} in the {!Autobraid.Scheduler.round_route}
    seam), so the comparison isolates the scheduling policy and the
    baseline's schedule certifies like any other. *)

type route_kind =
  | Dimension_ordered
      (** braidflash-style single-bend routes — the faithful baseline *)
  | Astar  (** detouring A* — ablation isolating the ordering policy *)

type options = {
  initial : Autobraid.Initial_layout.method_;
      (** default [Bisected] — plain "metis" seeding without AutoBraid's
          degree-2 snake special case; [Identity] gives the unseeded
          ablation *)
  router : route_kind;  (** default [Dimension_ordered] *)
  seed : int;
}

val default_options : options

val options_spec : Autobraid.Comm_backend.Options.spec list
(** The baseline's knobs in the shared per-backend options codec:
    [router] (["dimension"|"astar"]). The baseline stays out of the
    {!Autobraid.Comm_backend} registry (whose [run] always records a
    trace), but the engine decodes its [backend_options] against this
    spec like any registered backend's. *)

val of_backend_options :
  Autobraid.Comm_backend.Options.t -> options -> options
(** Overlay a decoded (complete, type-checked) options record onto
    [base]. *)

val route : route_kind -> Autobraid.Scheduler.round_route
(** One greedy round: {!Autobraid.Task.shortest_first}, then route each
    gate in turn on what is left — single-bend routes
    ([Dimension_ordered]) or {!Autobraid.Stack_finder.route_in_order}
    ([Astar]). *)

val run :
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result
(** Same result record as the main scheduler ([swap_layers] and
    [swaps_inserted] are always 0). Records no trace. *)

val run_traced :
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result * Autobraid.Trace.t
(** {!run}, additionally recording the per-round schedule for
    certification and export. Scheduling decisions are identical. *)
