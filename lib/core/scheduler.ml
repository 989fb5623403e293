module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Dag = Qec_circuit.Dag
module Coupling = Qec_circuit.Coupling
module Decompose = Qec_circuit.Decompose
module Grid = Qec_lattice.Grid
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Timing = Qec_surface.Timing
module Tel = Qec_telemetry.Telemetry

type variant = Sp | Full

type options = {
  variant : variant;
  threshold_p : float;
  initial : Initial_layout.method_;
  swap_strategy : Layout_opt.strategy option;
  retry : bool;
  confine_llg : bool;
  compaction : bool;
  lookahead : bool;
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
}

let default_options =
  {
    variant = Full;
    threshold_p = 0.3;
    initial = Initial_layout.Annealed;
    swap_strategy = None;
    retry = true;
    confine_llg = true;
    compaction = false;
    lookahead = false;
    seed = 11;
    placement_override = None;
  }

type result = {
  name : string;
  num_qubits : int;
  num_gates : int;
  num_two_qubit : int;
  lattice_side : int;
  total_cycles : int;
  rounds : int;
  braid_rounds : int;
  swap_layers : int;
  swaps_inserted : int;
  critical_path_cycles : int;
  avg_utilization : float;
  peak_utilization : float;
  compile_time_s : float;
}

let time_us timing r = Timing.us_of_cycles timing r.total_cycles

let critical_path_us timing r =
  Timing.us_of_cycles timing r.critical_path_cycles

(* The coupling graph of QFT-like kernels is (near-)complete; odd-even
   transposition layers are the right medicine there (Maslov). Sparse
   graphs respond better to targeted greedy swaps. *)
let auto_strategy coupling =
  if Coupling.density coupling > 0.35 then Layout_opt.Odd_even
  else Layout_opt.Greedy

type round_route =
  round:int ->
  router:Qec_lattice.Router.t ->
  occ:Qec_lattice.Occupancy.t ->
  placement:Qec_lattice.Placement.t ->
  Task.t list ->
  Stack_finder.outcome

type policy = {
  select :
    prev:Trace.round option -> int list * Task.t list -> int list * Task.t list;
  route : round_route option;
  routed_round : (Task.t * Qec_lattice.Path.t) list -> int list -> Trace.round;
  gate_cycles : Gate.t -> int;
}

let braid_policy ?route timing =
  {
    select = (fun ~prev:_ front -> front);
    route;
    routed_round = (fun braids locals -> Trace.Braid { braids; locals });
    gate_cycles = Timing.gate_cycles timing;
  }

type prepared = {
  circuit : Circuit.t;
  placement : Qec_lattice.Placement.t;
  dag : Dag.t;
  strategy : Layout_opt.strategy Lazy.t;
}

let lowered prep = prep.circuit
let dag prep = prep.dag

let check_threshold options =
  if options.threshold_p < 0. || options.threshold_p >= 1. then
    invalid_arg "Scheduler.run: threshold_p out of [0, 1)"

let prepare options circuit =
  let circuit =
    Tel.timed "decompose.lower" (fun () -> Decompose.to_scheduler_gates circuit)
  in
  let n = Circuit.num_qubits circuit in
  let side = Qec_surface.Resources.lattice_side ~num_logical:n in
  let grid = Grid.create side in
  (* Each built once, on first use: the coupling graph by the initial
     placement or the first time the layout optimizer fires ([Sp] runs
     over an override never pay), the DAG by the anneal or here, after
     the placement, so it is not in memory while [Embed] runs. *)
  let dag = lazy (Tel.timed "dag.build" (fun () -> Dag.of_circuit circuit)) in
  let coupling =
    lazy (Tel.timed "coupling.build" (fun () -> Coupling.of_circuit circuit))
  in
  let placement =
    match options.placement_override with
    | Some p ->
      if Qec_lattice.Placement.num_qubits p <> n then
        invalid_arg "Scheduler.run: placement override width mismatch";
      p
    | None ->
      Initial_layout.place ~seed:options.seed ~coupling ~dag
        ~method_:options.initial circuit grid
  in
  (* An overridden placement carries its own (equal-sided) grid instance;
     each drive copies the placement, grid included, so router/occupancy
     and placement agree physically. *)
  if Grid.side (Qec_lattice.Placement.grid placement) <> side then
    invalid_arg "Scheduler.run: placement override grid size mismatch";
  let strategy =
    lazy
      (match options.swap_strategy with
      | Some s -> s
      | None -> auto_strategy (Lazy.force coupling))
  in
  (* When the placement built the coupling graph, settle the strategy now
     so the graph is not kept alive through the round loop. *)
  if Lazy.is_val coupling then ignore (Lazy.force strategy);
  { circuit; placement; dag = Lazy.force dag; strategy }

let drive_impl ~record policy ~options timing prep =
  check_threshold options;
  let { circuit; dag; strategy; _ } = prep in
  let placement = Qec_lattice.Placement.copy prep.placement in
  let grid = Qec_lattice.Placement.grid placement in
  (* Downstream height of each gate (longest dependent chain below it):
     the critical-path lookahead routes tall gates first so the schedule's
     tail does not starve. *)
  let priority_of =
    if not options.lookahead then None
    else begin
      let n_gates = Circuit.length circuit in
      let height = Array.make n_gates 0 in
      for i = n_gates - 1 downto 0 do
        height.(i) <-
          List.fold_left (fun acc s -> max acc (height.(s) + 1)) 0
            (Dag.succs dag i)
      done;
      Some (fun (t : Task.t) -> height.(t.id))
    end
  in
  let frontier = Dag.Frontier.create dag in
  (* Tasks are immutable, so derive each gate's once up front. A CX whose
     route keeps failing stays in the frontier for many rounds; rebuilding
     its task every round was a quadratic rescan at paper scale. *)
  let task_of =
    Array.init (Circuit.length circuit) (fun i ->
        Task.of_gate i (Circuit.gate circuit i))
  in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let cycles = ref 0 in
  let rounds = ref 0 in
  let braid_rounds = ref 0 in
  let swap_layers = ref 0 in
  let swaps_inserted = ref 0 in
  let util_sum = ref 0. in
  let util_peak = ref 0. in
  let swap_phase = ref 0 in
  let prev = ref None in
  let trace_rounds = ref [] in
  (* Every round is charged through the trace's own cost model. *)
  let emit round =
    if record then trace_rounds := round :: !trace_rounds;
    cycles := !cycles + Trace.round_cycles timing round;
    incr rounds;
    prev := Some round
  in
  Tel.span_open "routing_rounds";
  while not (Dag.Frontier.is_done frontier) do
    let rev_singles = ref [] and rev_cx = ref [] in
    Dag.Frontier.iter_ready
      (fun id ->
        match task_of.(id) with
        | Some t -> rev_cx := t :: !rev_cx
        | None -> rev_singles := id :: !rev_singles)
      frontier;
    let singles, cx_tasks =
      policy.select ~prev:!prev (List.rev !rev_singles, List.rev !rev_cx)
    in
    if cx_tasks = [] then begin
      (* Purely local round. *)
      List.iter (Dag.Frontier.complete frontier) singles;
      Tel.count "scheduler.local_rounds";
      emit (Trace.Local { gates = singles })
    end
    else begin
      Occupancy.clear occ;
      let outcome =
        (* The round-router seam: a custom [route] owns the whole
           routing decision for the round (candidate orderings, rip-up,
           rescue) and must leave [occ] holding exactly the reservations
           of the outcome it returns. The default is the stack finder
           plus optional compaction below. *)
        match policy.route with
        | Some f -> f ~round:!rounds ~router ~occ ~placement cx_tasks
        | None ->
          let outcome =
            Stack_finder.find ~retry:options.retry
              ~confine_llg:options.confine_llg ?priority_of router occ
              placement cx_tasks
          in
          (* Optional topological compaction: shorten the round's paths and
             use the freed vertices to rescue gates that failed to route. *)
          if not options.compaction then outcome
          else begin
            let outcome, rescued =
              Compaction.compact_and_rescue router occ placement outcome
            in
            Tel.count ~by:rescued "compaction.rescued_gates";
            outcome
          end
      in
      Tel.sample "scheduler.scheduled_ratio" outcome.Stack_finder.ratio;
      let want_swap =
        options.variant = Full
        && outcome.Stack_finder.ratio < options.threshold_p
        && (match !prev with Some (Trace.Swap_layer _) -> false | _ -> true)
        && List.length cx_tasks > 1
      in
      if want_swap then Tel.count "scheduler.optimizer_triggers";
      let swaps =
        if want_swap then
          (* Plan over the whole concurrent front: the bottleneck pattern
             lives in the interference structure of all pending gates, not
             only the ones that happened to lose the routing race. *)
          Tel.timed "layout_opt.plan" (fun () ->
              Layout_opt.plan (Lazy.force strategy) router placement
                ~pending:cx_tasks ~phase:!swap_phase)
        else []
      in
      if swaps <> [] then begin
        (* Roll the tentative round back and spend a SWAP layer instead. *)
        List.iter
          (fun (_, p) -> Occupancy.release_path occ p)
          outcome.Stack_finder.routed;
        Layout_opt.apply placement swaps;
        Tel.count "scheduler.swap_layers";
        Tel.count ~by:(List.length swaps) "scheduler.swaps_inserted";
        incr swap_layers;
        swaps_inserted := !swaps_inserted + List.length swaps;
        incr swap_phase;
        emit (Trace.Swap_layer { swaps })
      end
      else begin
        (* Commit: routed gates plus every selected local gate. *)
        List.iter
          (fun ((t : Task.t), _) -> Dag.Frontier.complete frontier t.id)
          outcome.Stack_finder.routed;
        List.iter (Dag.Frontier.complete frontier) singles;
        let u = Occupancy.utilization occ in
        util_sum := !util_sum +. u;
        if u > !util_peak then util_peak := u;
        Tel.count "scheduler.braid_rounds";
        incr braid_rounds;
        emit (policy.routed_round outcome.Stack_finder.routed singles)
      end
    end
  done;
  Tel.span_close ();
  let trace =
    if not record then None
    else
      Some
        {
          Trace.circuit;
          grid;
          initial_cells = Qec_lattice.Placement.to_array prep.placement;
          rounds = List.rev !trace_rounds;
        }
  in
  ( {
      name = Circuit.name circuit;
      num_qubits = Circuit.num_qubits circuit;
      num_gates = Circuit.length circuit;
      num_two_qubit = Circuit.two_qubit_count circuit;
      lattice_side = Grid.side grid;
      total_cycles = !cycles;
      rounds = !rounds;
      braid_rounds = !braid_rounds;
      swap_layers = !swap_layers;
      swaps_inserted = !swaps_inserted;
      critical_path_cycles = Dag.critical_path ~cost:policy.gate_cycles dag;
      avg_utilization =
        (if !braid_rounds = 0 then 0.
         else !util_sum /. float_of_int !braid_rounds);
      peak_utilization = !util_peak;
      compile_time_s = 0.;
    },
    trace )

let drive policy ~options timing prep =
  fst (drive_impl ~record:false policy ~options timing prep)

let drive_traced policy ~options timing prep =
  match drive_impl ~record:true policy ~options timing prep with
  | result, Some trace -> (result, trace)
  | _, None -> assert false

let clocked f =
  let t0 = Unix.gettimeofday () in
  let result, x = f () in
  ({ result with compile_time_s = Unix.gettimeofday () -. t0 }, x)

let run_impl ~record ?route ~options timing circuit =
  check_threshold options;
  Tel.with_span "scheduler.run" @@ fun () ->
  clocked (fun () ->
      drive_impl ~record (braid_policy ?route timing) ~options timing
        (prepare options circuit))

let run ?route ?(options = default_options) timing circuit =
  fst (run_impl ~record:false ?route ~options timing circuit)

let run_traced_with ?route ?(options = default_options) timing circuit =
  match run_impl ~record:true ?route ~options timing circuit with
  | result, Some trace -> (result, trace)
  | _, None -> assert false

let run_traced ?options timing circuit = run_traced_with ?options timing circuit

let default_grid_points = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let run_best_p ?(options = default_options) ?(grid_points = default_grid_points)
    ?(jobs = 1) timing circuit =
  let jobs = max 1 jobs in
  clocked @@ fun () ->
  (* Lowering, placement (including the annealing fine-tune) and the DAG
     are independent of the threshold: prepare them once for the whole
     sweep. The DAG is immutable and each drive copies the placement, so
     the runs share them safely. Forcing one [Lazy.t] from two domains at
     once is not safe, so settle the swap strategy (and the coupling graph
     behind it) before the pool starts. *)
  let prep = prepare options circuit in
  if options.variant = Full then ignore (Lazy.force prep.strategy);
  let policy = braid_policy timing in
  let eval p =
    Tel.with_span "scheduler.run" @@ fun () ->
    (p, drive policy ~options:{ options with threshold_p = p } timing prep)
  in
  let curve =
    (* Threshold runs are independent; spread them over a worker pool on
       request. *)
    Qec_util.Parallel.map_jobs ~jobs eval grid_points
  in
  match curve with
  | [] -> invalid_arg "Scheduler.run_best_p: no grid points"
  | (_, first) :: _ ->
    let best =
      List.fold_left
        (fun acc (_, r) -> if r.total_cycles < acc.total_cycles then r else acc)
        first curve
    in
    (best, curve)
