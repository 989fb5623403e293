module Dag = Qec_circuit.Dag
module Decompose = Qec_circuit.Decompose
module Timing = Qec_surface.Timing
module Scheduler = Autobraid.Scheduler

type ordering = Greedy_shortest | Stack

type options = {
  ordering : ordering;
  initial : Autobraid.Initial_layout.method_;
  overhead_factor : float;
  seed : int;
}

let default_options =
  {
    ordering = Stack;
    initial = Autobraid.Initial_layout.Partitioned;
    overhead_factor = 1.5;
    seed = 11;
  }

let physical_qubits ?(overhead_factor = 1.5) ~num_logical ~d () =
  int_of_float
    (ceil
       (overhead_factor
       *. float_of_int
            (Qec_surface.Resources.total_physical_qubits ~num_logical ~d)))

let distance_for_budget ?(overhead_factor = 1.5) ~num_logical ~budget () =
  let rec grow d best =
    if d > 201 then best
    else if physical_qubits ~overhead_factor ~num_logical ~d () <= budget then
      grow (d + 2) (Some d)
    else best
  in
  grow 3 None

(* Every round costs one d-cycle block: a teleported CX holds its channel
   for d cycles instead of a braid's 2d, and a purely local round is d
   anyway. So the model is the scheduler's round loop with static
   placement, re-costed afterwards. *)
let run ?(options = default_options) timing circuit : Scheduler.result =
  let route =
    match options.ordering with
    | Stack -> None
    | Greedy_shortest -> Some (Gp_baseline.route Gp_baseline.Astar)
  in
  let r =
    Scheduler.run ?route
      ~options:
        {
          Scheduler.default_options with
          variant = Scheduler.Sp;
          confine_llg = false;
          initial = options.initial;
          seed = options.seed;
        }
      timing circuit
  in
  let d = Timing.single_qubit_cycles timing in
  (* Critical path under teleport costs: every gate costs d cycles. *)
  let dag = Dag.of_circuit (Decompose.to_scheduler_gates circuit) in
  {
    r with
    total_cycles = r.rounds * d;
    critical_path_cycles = Dag.critical_path ~cost:(fun _ -> d) dag;
  }
