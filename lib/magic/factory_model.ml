module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Dag = Qec_circuit.Dag
module Decompose = Qec_circuit.Decompose
module Grid = Qec_lattice.Grid
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Placement = Qec_lattice.Placement
module Timing = Qec_surface.Timing
module S = Autobraid.Scheduler
module Task = Autobraid.Task

type options = {
  num_factories : int;
  production_cycles : int;
  capacity : int;
  base : S.options;
}

let default_options ?(d = Timing.default_d) () =
  {
    num_factories = 4;
    production_cycles = 10 * d;
    capacity = 2;
    base = { S.default_options with variant = S.Sp };
  }

type result = {
  scheduler : S.result;
  t_gates : int;
  deliveries : int;
  stalled_rounds : int;
}

(* Boundary ring, clockwise from the origin corner. *)
let boundary_ring grid =
  let l = Grid.side grid in
  if l = 1 then [ Grid.cell_id grid ~x:0 ~y:0 ]
  else begin
    let ring = ref [] in
    for x = 0 to l - 1 do
      ring := Grid.cell_id grid ~x ~y:0 :: !ring
    done;
    for y = 1 to l - 1 do
      ring := Grid.cell_id grid ~x:(l - 1) ~y :: !ring
    done;
    for x = l - 2 downto 0 do
      ring := Grid.cell_id grid ~x ~y:(l - 1) :: !ring
    done;
    for y = l - 2 downto 1 do
      ring := Grid.cell_id grid ~x:0 ~y :: !ring
    done;
    List.rev !ring
  end

let factory_cells grid k =
  if k < 1 then invalid_arg "Factory_model.factory_cells: k < 1";
  let ring = Array.of_list (boundary_ring grid) in
  let m = Array.length ring in
  List.init (min k m) (fun i -> ring.(i * m / min k m))

let is_t_gate = function Gate.T _ | Gate.Tdg _ -> true | _ -> false

let run ?options timing circuit =
  let options =
    match options with Some o -> o | None -> default_options ~d:timing.Timing.d ()
  in
  if options.num_factories < 1 then
    invalid_arg "Factory_model.run: num_factories < 1";
  if options.production_cycles < 1 then
    invalid_arg "Factory_model.run: production_cycles < 1";
  if options.capacity < 1 then invalid_arg "Factory_model.run: capacity < 1";
  let t0 = Unix.gettimeofday () in
  let circuit = Decompose.to_scheduler_gates circuit in
  let n = Circuit.num_qubits circuit in
  let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:n) in
  let grid = Grid.create side in
  let dag = lazy (Dag.of_circuit circuit) in
  let placement =
    Autobraid.Initial_layout.place ~seed:options.base.S.seed ~dag
      ~method_:options.base.S.initial circuit grid
  in
  let dag = Lazy.force dag in
  let factories = Array.of_list (factory_cells grid options.num_factories) in
  let stock = Array.make (Array.length factories) 1 in
  let progress = Array.make (Array.length factories) 0 in
  let advance_production cycles =
    Array.iteri
      (fun f p ->
        let p = p + cycles in
        let made = p / options.production_cycles in
        progress.(f) <- p mod options.production_cycles;
        stock.(f) <- min options.capacity (stock.(f) + made))
      progress
  in
  let frontier = Dag.Frontier.create dag in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let cycles = ref 0 and rounds = ref 0 and braid_rounds = ref 0 in
  let util_sum = ref 0. and util_peak = ref 0. in
  let deliveries = ref 0 and stalled_rounds = ref 0 in
  let t_gates = ref (Circuit.count_if is_t_gate circuit) in
  while not (Dag.Frontier.is_done frontier) do
    let ready = Dag.Frontier.ready frontier in
    let plain_singles, t_ready, cx_tasks =
      List.fold_left
        (fun (singles, ts, cxs) id ->
          let g = Circuit.gate circuit id in
          match Task.of_gate id g with
          | Some t -> (singles, ts, t :: cxs)
          | None ->
            if is_t_gate g then (singles, id :: ts, cxs)
            else (id :: singles, ts, cxs))
        ([], [], []) ready
    in
    let plain_singles = List.rev plain_singles in
    let t_ready = List.rev t_ready in
    let cx_tasks = List.rev cx_tasks in
    Occupancy.clear occ;
    (* 1. CX braids via the stack-based finder. *)
    let outcome = Autobraid.Stack_finder.find router occ placement cx_tasks in
    (* 2. T-gate deliveries on the remaining free vertices. *)
    let served = ref [] in
    let stalled = ref false in
    List.iter
      (fun id ->
        let g = Circuit.gate circuit id in
        let q = match Gate.qubits g with [ q ] -> q | _ -> assert false in
        let target = Placement.cell_of_qubit placement q in
        let candidates =
          Array.to_list (Array.mapi (fun f cell -> (f, cell)) factories)
          |> List.filter (fun (f, _) -> stock.(f) > 0)
          |> List.sort (fun (_, c1) (_, c2) ->
                 compare
                   (Grid.cell_distance grid c1 target)
                   (Grid.cell_distance grid c2 target))
        in
        let rec try_factories = function
          | [] -> stalled := true
          | (f, cell) :: rest ->
            if cell = target then begin
              (* the data tile hosts the factory: local consumption *)
              stock.(f) <- stock.(f) - 1;
              served := id :: !served
            end
            else begin
              match
                Router.route_and_reserve router occ ~src_cell:cell
                  ~dst_cell:target
              with
              | Some _ ->
                stock.(f) <- stock.(f) - 1;
                incr deliveries;
                served := id :: !served
              | None -> try_factories rest
            end
        in
        try_factories candidates)
      t_ready;
    let served = List.rev !served in
    if !stalled then incr stalled_rounds;
    (* 3. Commit the round. *)
    let braided = outcome.Autobraid.Stack_finder.routed <> [] in
    let delivered = served <> [] in
    List.iter
      (fun ((t : Task.t), _) -> Dag.Frontier.complete frontier t.id)
      outcome.Autobraid.Stack_finder.routed;
    List.iter (Dag.Frontier.complete frontier) served;
    List.iter (Dag.Frontier.complete frontier) plain_singles;
    let round_cycles =
      if braided || delivered then Timing.braid_cycles timing
      else Timing.single_qubit_cycles timing
    in
    if braided || delivered then begin
      let u = Occupancy.utilization occ in
      util_sum := !util_sum +. u;
      if u > !util_peak then util_peak := u;
      incr braid_rounds
    end;
    cycles := !cycles + round_cycles;
    incr rounds;
    advance_production round_cycles
  done;
  let scheduler =
    {
      S.name = Circuit.name circuit;
      num_qubits = n;
      num_gates = Circuit.length circuit;
      num_two_qubit = Circuit.two_qubit_count circuit;
      lattice_side = side;
      total_cycles = !cycles;
      rounds = !rounds;
      braid_rounds = !braid_rounds;
      swap_layers = 0;
      swaps_inserted = 0;
      critical_path_cycles =
        Dag.critical_path ~cost:(Timing.gate_cycles timing) dag;
      avg_utilization =
        (if !braid_rounds = 0 then 0.
         else !util_sum /. float_of_int !braid_rounds);
      peak_utilization = !util_peak;
      compile_time_s = Unix.gettimeofday () -. t0;
    }
  in
  {
    scheduler;
    t_gates = !t_gates;
    deliveries = !deliveries;
    stalled_rounds = !stalled_rounds;
  }
