module Timing = Qec_surface.Timing
module Scheduler = Autobraid.Scheduler

type ordering = Greedy_shortest | Stack

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
   placement and teleport gate costs, re-costed afterwards. *)
let run ?(ordering = Stack) timing circuit : Scheduler.result =
  let route =
    match ordering with
    | Stack -> None
    | Greedy_shortest -> Some (Gp_baseline.route Gp_baseline.Astar)
  in
  let d = Timing.single_qubit_cycles timing in
  let policy =
    { (Scheduler.braid_policy ?route timing) with gate_cycles = (fun _ -> d) }
  in
  let options =
    {
      Scheduler.default_options with
      variant = Scheduler.Sp;
      confine_llg = false;
      initial = Autobraid.Initial_layout.Partitioned;
      seed = 11;
    }
  in
  let r, () =
    Scheduler.clocked (fun () ->
        ( Scheduler.drive policy ~options timing
            (Scheduler.prepare options circuit),
          () ))
  in
  { r with total_cycles = r.rounds * d }
