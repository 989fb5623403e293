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

let run_impl ?route ~record ~options timing circuit =
  if options.threshold_p < 0. || options.threshold_p >= 1. then
    invalid_arg "Scheduler.run: threshold_p out of [0, 1)";
  Tel.with_span "scheduler.run" @@ fun () ->
  let t0 = Sys.time () in
  let circuit = Decompose.to_scheduler_gates circuit in
  let n = Circuit.num_qubits circuit in
  let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:n) in
  let grid = Grid.create side in
  let placement =
    match options.placement_override with
    | Some p ->
      if Qec_lattice.Placement.num_qubits p <> n then
        invalid_arg "Scheduler.run: placement override width mismatch";
      Qec_lattice.Placement.copy p
    | None ->
      Initial_layout.place ~seed:options.seed ~method_:options.initial circuit
        grid
  in
  (* An overridden placement carries its own (equal-sided) grid instance;
     use that instance so router/occupancy and placement agree physically. *)
  let grid = Qec_lattice.Placement.grid placement in
  if Grid.side grid <> side then
    invalid_arg "Scheduler.run: placement override grid size mismatch";
  (* Only the layout optimizer reads the coupling graph; build it the
     first time the optimizer fires ([Sp] runs never pay for it). *)
  let strategy =
    lazy
      (match options.swap_strategy with
      | Some s -> s
      | None -> auto_strategy (Coupling.of_circuit circuit))
  in
  let dag = Dag.of_circuit circuit in
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
  let last_was_swap = ref false in
  let swap_phase = ref 0 in
  let initial_cells = Qec_lattice.Placement.to_array placement in
  let trace_rounds = ref [] in
  let emit round = if record then trace_rounds := round :: !trace_rounds in
  Tel.span_open "routing_rounds";
  while not (Dag.Frontier.is_done frontier) do
    let rev_singles = ref [] and rev_cx = ref [] in
    Dag.Frontier.iter_ready
      (fun id ->
        match task_of.(id) with
        | Some t -> rev_cx := t :: !rev_cx
        | None -> rev_singles := id :: !rev_singles)
      frontier;
    let singles = List.rev !rev_singles and cx_tasks = List.rev !rev_cx in
    if cx_tasks = [] then begin
      (* Purely local round. *)
      List.iter (Dag.Frontier.complete frontier) singles;
      emit (Trace.Local { gates = singles });
      Tel.count "scheduler.local_rounds";
      cycles := !cycles + Timing.single_qubit_cycles timing;
      incr rounds;
      last_was_swap := false
    end
    else begin
      Occupancy.clear occ;
      let outcome =
        (* The round-router seam: a custom [route] owns the whole
           routing decision for the round (candidate orderings, rip-up,
           rescue) and must leave [occ] holding exactly the reservations
           of the outcome it returns. The default is the stack finder
           plus optional compaction below. *)
        match route with
        | Some f -> f ~round:!rounds ~router ~occ ~placement cx_tasks
        | None ->
          let outcome =
            Stack_finder.find ~retry:options.retry
              ~confine_llg:options.confine_llg ?priority_of router occ
              placement cx_tasks
          in
          (* Optional topological compaction: shorten the round's paths and
             use the freed vertices to rescue gates that failed to route. *)
          if options.compaction && outcome.Stack_finder.routed <> [] then begin
            let routed =
              Compaction.compact router occ placement
                outcome.Stack_finder.routed
            in
            let rescued, failed =
              Stack_finder.route_in_order router occ placement
                outcome.Stack_finder.failed
            in
            Tel.count ~by:(List.length rescued) "compaction.rescued_gates";
            let routed = routed @ rescued in
            {
              Stack_finder.routed;
              failed;
              ratio =
                float_of_int (List.length routed)
                /. float_of_int (List.length cx_tasks);
            }
          end
          else outcome
      in
      Tel.sample "scheduler.scheduled_ratio" outcome.Stack_finder.ratio;
      let want_swap =
        options.variant = Full
        && outcome.Stack_finder.ratio < options.threshold_p
        && (not !last_was_swap)
        && List.length cx_tasks > 1
      in
      if want_swap then Tel.count "scheduler.optimizer_triggers";
      let swaps =
        if want_swap then
          (* Plan over the whole concurrent front: the bottleneck pattern
             lives in the interference structure of all pending gates, not
             only the ones that happened to lose the routing race. *)
          Layout_opt.plan (Lazy.force strategy) router placement
            ~pending:cx_tasks ~phase:!swap_phase
        else []
      in
      if swaps <> [] then begin
        (* Roll the tentative round back and spend a SWAP layer instead. *)
        List.iter
          (fun (_, p) -> Occupancy.release_path occ p)
          outcome.Stack_finder.routed;
        Layout_opt.apply placement swaps;
        emit (Trace.Swap_layer { swaps });
        Tel.count "scheduler.swap_layers";
        Tel.count ~by:(List.length swaps) "scheduler.swaps_inserted";
        cycles := !cycles + Timing.swap_layer_cycles timing;
        incr rounds;
        incr swap_layers;
        swaps_inserted := !swaps_inserted + List.length swaps;
        incr swap_phase;
        last_was_swap := true
      end
      else begin
        (* Commit: scheduled braids plus every ready local gate. *)
        List.iter
          (fun ((t : Task.t), _) -> Dag.Frontier.complete frontier t.id)
          outcome.Stack_finder.routed;
        List.iter (Dag.Frontier.complete frontier) singles;
        emit
          (Trace.Braid
             { braids = outcome.Stack_finder.routed; locals = singles });
        let u = Occupancy.utilization occ in
        util_sum := !util_sum +. u;
        if u > !util_peak then util_peak := u;
        Tel.count "scheduler.braid_rounds";
        cycles := !cycles + Timing.braid_cycles timing;
        incr rounds;
        incr braid_rounds;
        last_was_swap := false
      end
    end
  done;
  Tel.span_close ();
  let compile_time_s = Sys.time () -. t0 in
  let trace =
    {
      Trace.circuit;
      grid;
      initial_cells;
      rounds = List.rev !trace_rounds;
    }
  in
  ( trace,
  {
    name = Circuit.name circuit;
    num_qubits = n;
    num_gates = Circuit.length circuit;
    num_two_qubit = Circuit.two_qubit_count circuit;
    lattice_side = side;
    total_cycles = !cycles;
    rounds = !rounds;
    braid_rounds = !braid_rounds;
    swap_layers = !swap_layers;
    swaps_inserted = !swaps_inserted;
    critical_path_cycles = Dag.critical_path ~cost:(Timing.gate_cycles timing) dag;
    avg_utilization =
      (if !braid_rounds = 0 then 0. else !util_sum /. float_of_int !braid_rounds);
    peak_utilization = !util_peak;
    compile_time_s;
  } )

let run ?route ?(options = default_options) timing circuit =
  snd (run_impl ?route ~record:false ~options timing circuit)

let run_traced_with ?route ?(options = default_options) timing circuit =
  let trace, result = run_impl ?route ~record:true ~options timing circuit in
  (result, trace)

let run_traced ?options timing circuit = run_traced_with ?options timing circuit

let default_grid_points = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let run_best_p ?(options = default_options) ?(grid_points = default_grid_points)
    ?(jobs = 1) timing circuit =
  let jobs = max 1 jobs in
  (* Initial placement (including the annealing fine-tune) is independent
     of the threshold, so compute it once for the whole sweep. *)
  let options =
    match options.placement_override with
    | Some _ -> options
    | None ->
      let lowered = Decompose.to_scheduler_gates circuit in
      let n = Circuit.num_qubits lowered in
      let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:n) in
      let grid = Grid.create side in
      let placement =
        Initial_layout.place ~seed:options.seed ~method_:options.initial
          lowered grid
      in
      { options with placement_override = Some placement }
  in
  let eval p = (p, run ~options:{ options with threshold_p = p } timing circuit) in
  let curve =
    (* Threshold runs are independent; spread them over a worker pool on
       request. (Sys.time-based compile_time_s then aggregates CPU across
       domains — fine for latency results, not compile-time ones.) *)
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
