module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Dag = Qec_circuit.Dag
module Decompose = Qec_circuit.Decompose
module Grid = Qec_lattice.Grid
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Path = Qec_lattice.Path
module Timing = Qec_surface.Timing
module St = Qec_surface.Surgery_timing
module Task = Autobraid.Task
module Trace = Autobraid.Trace
module Scheduler = Autobraid.Scheduler
module Initial_layout = Autobraid.Initial_layout
module Tel = Qec_telemetry.Telemetry

type options = {
  initial : Initial_layout.method_;
  retry : bool;
  ripup : bool;
  pipeline_splits : bool;
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
}

let default_options =
  {
    initial = Initial_layout.Annealed;
    retry = true;
    ripup = true;
    pipeline_splits = true;
    seed = 11;
    placement_override = None;
  }

type stats = {
  merge_rounds : int;
  local_rounds : int;
  pipelined_splits : int;
  tile_time_cycles : int;
  ripup_attempts : int;
  ripup_rescues : int;
  longest_merge_path : int;
  mean_merge_path : float;
}

let stats_to_assoc s =
  [
    ("merge_rounds", float_of_int s.merge_rounds);
    ("local_rounds", float_of_int s.local_rounds);
    ("pipelined_splits", float_of_int s.pipelined_splits);
    ("tile_time_cycles", float_of_int s.tile_time_cycles);
    ("ripup_attempts", float_of_int s.ripup_attempts);
    ("ripup_rescues", float_of_int s.ripup_rescues);
    ("longest_merge_path", float_of_int s.longest_merge_path);
    ("mean_merge_path", s.mean_merge_path);
  ]

(* Decide which splits overlap their successor round: the split of round k
   runs on the merge operands and ancilla patches only (the fabric is free
   after the merge), so it may proceed under round k+1 whenever k+1 touches
   none of round k's merge qubits. *)
let mark_overlaps circuit rounds =
  let n = Array.length rounds in
  let gate_qubits id = Gate.qubits (Circuit.gate circuit id) in
  let touched = function
    | Trace.Local { gates } -> List.concat_map gate_qubits gates
    | Trace.Braid { braids = ops; locals }
    | Trace.Merge { merges = ops; locals; _ } ->
      List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) ops
      @ List.concat_map gate_qubits locals
    | Trace.Swap_layer { swaps } -> List.concat_map (fun (a, b) -> [ a; b ]) swaps
  in
  let overlaps = ref 0 in
  for k = 0 to n - 2 do
    match rounds.(k) with
    | Trace.Merge ({ merges; _ } as m) ->
      let mq =
        List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) merges
      in
      if not (List.exists (fun q -> List.mem q mq) (touched rounds.(k + 1)))
      then begin
        rounds.(k) <- Trace.Merge { m with split_overlapped = true };
        incr overlaps
      end
    | Trace.Local _ | Trace.Braid _ | Trace.Swap_layer _ -> ()
  done;
  !overlaps

(* One full scheduling pass. [defer] switches the pipelining-aware round
   formation below; overlap accounting is applied separately so callers
   can compare a deferred and an undeferred schedule under the same cost
   model. *)
type attempt = {
  a_rounds : Trace.round array;
  a_merge_rounds : int;
  a_local_rounds : int;
  a_tile_time : int;
  a_ripup_attempts : int;
  a_ripup_rescues : int;
  a_longest_path : int;
  a_path_len_sum : int;
  a_merge_count : int;
  a_util_sum : float;
  a_util_peak : float;
}

let schedule ~defer ~dag options circuit placement timing =
  let router = Router.create (Qec_lattice.Placement.grid placement) in
  let occ = Occupancy.create (Qec_lattice.Placement.grid placement) in
  let frontier = Dag.Frontier.create dag in
  let merge_rounds = ref 0 in
  let local_rounds = ref 0 in
  let tile_time = ref 0 in
  let ripup_attempts = ref 0 in
  let ripup_rescues = ref 0 in
  let longest_path = ref 0 in
  let path_len_sum = ref 0 in
  let merge_count = ref 0 in
  let util_sum = ref 0. in
  let util_peak = ref 0. in
  let trace_rounds = ref [] in
  (* Qubits of the previous round's merges ([] if it was not a merge
     round). Used for pipelining-aware round formation below. *)
  let prev_merge_qubits = ref [] in
  Tel.span_open "surgery.routing_rounds";
  while not (Dag.Frontier.is_done frontier) do
    let ready = Dag.Frontier.ready frontier in
    let singles, cx_tasks =
      List.fold_left
        (fun (singles, cxs) id ->
          let g = Circuit.gate circuit id in
          match Task.of_gate id g with
          | Some t -> (singles, t :: cxs)
          | None -> (id :: singles, cxs))
        ([], []) ready
    in
    let singles = List.rev singles and cx_tasks = List.rev cx_tasks in
    (* Pipelining-aware round formation: a gate that became ready because
       the previous merge round completed necessarily touches that round's
       merge qubits, so scheduling it kills the split overlap. Merges that
       were ready before and are still pending (a split front's carryover)
       are qubit-disjoint from the previous round by DAG-front
       disjointness. When such disjoint merges exist, schedule only the
       gates avoiding the previous round's merge qubits and defer the rest
       one round — the previous split then overlaps this round, saving
       [split_cycles] (see [mark_overlaps]). *)
    let singles, cx_tasks =
      if (not defer) || !prev_merge_qubits = [] then (singles, cx_tasks)
      else begin
        let touches_prev qs =
          List.exists (fun q -> List.mem q !prev_merge_qubits) qs
        in
        let elig_cx =
          List.filter
            (fun (t : Task.t) -> not (touches_prev [ t.q1; t.q2 ]))
            cx_tasks
        in
        if elig_cx = [] then (singles, cx_tasks)
        else
          ( List.filter
              (fun id ->
                not (touches_prev (Gate.qubits (Circuit.gate circuit id))))
              singles,
            elig_cx )
      end
    in
    if cx_tasks = [] then begin
      List.iter (Dag.Frontier.complete frontier) singles;
      trace_rounds := Trace.Local { gates = singles } :: !trace_rounds;
      Tel.count "surgery.local_rounds";
      incr local_rounds;
      prev_merge_qubits := []
    end
    else begin
      Occupancy.clear occ;
      let rr =
        Surgery_router.route_round ~retry:options.retry ~ripup:options.ripup
          router occ placement cx_tasks
      in
      Tel.sample "surgery.scheduled_ratio" rr.Surgery_router.ratio;
      ripup_attempts := !ripup_attempts + rr.Surgery_router.ripup_attempts;
      ripup_rescues := !ripup_rescues + rr.Surgery_router.ripup_rescues;
      List.iter
        (fun ((t : Task.t), p) ->
          Dag.Frontier.complete frontier t.id;
          let len = Path.length p in
          tile_time := !tile_time + St.tile_time timing ~path_vertices:len;
          path_len_sum := !path_len_sum + len;
          if len > !longest_path then longest_path := len;
          incr merge_count;
          Tel.sample "surgery.merge_path_len" (float_of_int len))
        rr.Surgery_router.routed;
      List.iter (Dag.Frontier.complete frontier) singles;
      trace_rounds :=
        Trace.Merge
          {
            merges = rr.Surgery_router.routed;
            locals = singles;
            split_overlapped = false;
          }
        :: !trace_rounds;
      let u = Occupancy.utilization occ in
      util_sum := !util_sum +. u;
      if u > !util_peak then util_peak := u;
      Tel.count "surgery.merge_rounds";
      incr merge_rounds;
      prev_merge_qubits :=
        List.concat_map
          (fun ((t : Task.t), _) -> [ t.q1; t.q2 ])
          rr.Surgery_router.routed
    end
  done;
  Tel.span_close ();
  {
    a_rounds = Array.of_list (List.rev !trace_rounds);
    a_merge_rounds = !merge_rounds;
    a_local_rounds = !local_rounds;
    a_tile_time = !tile_time;
    a_ripup_attempts = !ripup_attempts;
    a_ripup_rescues = !ripup_rescues;
    a_longest_path = !longest_path;
    a_path_len_sum = !path_len_sum;
    a_merge_count = !merge_count;
    a_util_sum = !util_sum;
    a_util_peak = !util_peak;
  }

let run_traced ?(options = default_options) timing circuit =
  Tel.with_span "surgery.run" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let circuit = Decompose.to_scheduler_gates circuit in
  let n = Circuit.num_qubits circuit in
  let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:n) in
  let grid = Grid.create side in
  let dag = lazy (Dag.of_circuit circuit) in
  let placement =
    match options.placement_override with
    | Some p ->
      if Qec_lattice.Placement.num_qubits p <> n then
        invalid_arg "Surgery_scheduler.run: placement override width mismatch";
      Qec_lattice.Placement.copy p
    | None ->
      Initial_layout.place ~seed:options.seed ~dag ~method_:options.initial
        circuit grid
  in
  let grid = Qec_lattice.Placement.grid placement in
  if Grid.side grid <> side then
    invalid_arg "Surgery_scheduler.run: placement override grid size mismatch";
  let dag = Lazy.force dag in
  let cycles_of rounds =
    Trace.cycles timing
      {
        Trace.circuit;
        grid;
        initial_cells = Qec_lattice.Placement.to_array placement;
        rounds = Array.to_list rounds;
      }
  in
  (* Deferring ready gates off the previous round's merge qubits buys a
     split overlap, but it is a greedy bet: the deferred gates can push
     the whole schedule a round longer than they saved (found by fuzzing
     — see docs/testing.md). Pipelining must never lose, so build both
     the deferred and the undeferred schedule, apply the same overlap
     accounting to each, and keep the cheaper (the deferred one on
     ties, preserving historical schedules). *)
  let attempt, pipelined =
    if not options.pipeline_splits then
      (schedule ~defer:false ~dag options circuit placement timing, 0)
    else begin
      let deferred = schedule ~defer:true ~dag options circuit placement timing in
      let plain = schedule ~defer:false ~dag options circuit placement timing in
      let p_deferred = mark_overlaps circuit deferred.a_rounds in
      let p_plain = mark_overlaps circuit plain.a_rounds in
      if cycles_of plain.a_rounds < cycles_of deferred.a_rounds then
        (plain, p_plain)
      else (deferred, p_deferred)
    end
  in
  Tel.count ~by:pipelined "surgery.pipelined_splits";
  let rounds = attempt.a_rounds in
  let trace =
    {
      Trace.circuit;
      grid;
      initial_cells = Qec_lattice.Placement.to_array placement;
      rounds = Array.to_list rounds;
    }
  in
  let total_cycles = Trace.cycles timing trace in
  let compile_time_s = Unix.gettimeofday () -. t0 in
  let stats =
    {
      merge_rounds = attempt.a_merge_rounds;
      local_rounds = attempt.a_local_rounds;
      pipelined_splits = pipelined;
      tile_time_cycles = attempt.a_tile_time;
      ripup_attempts = attempt.a_ripup_attempts;
      ripup_rescues = attempt.a_ripup_rescues;
      longest_merge_path = attempt.a_longest_path;
      mean_merge_path =
        (if attempt.a_merge_count = 0 then 0.
         else
           float_of_int attempt.a_path_len_sum
           /. float_of_int attempt.a_merge_count);
    }
  in
  let result =
    {
      Scheduler.name = Circuit.name circuit;
      num_qubits = n;
      num_gates = Circuit.length circuit;
      num_two_qubit = Circuit.two_qubit_count circuit;
      lattice_side = side;
      total_cycles;
      rounds = Array.length rounds;
      braid_rounds = attempt.a_merge_rounds;
      swap_layers = 0;
      swaps_inserted = 0;
      critical_path_cycles = Dag.critical_path ~cost:(St.gate_cycles timing) dag;
      avg_utilization =
        (if attempt.a_merge_rounds = 0 then 0.
         else attempt.a_util_sum /. float_of_int attempt.a_merge_rounds);
      peak_utilization = attempt.a_util_peak;
      compile_time_s;
    }
  in
  (result, trace, stats)

let run ?options timing circuit =
  let result, _, _ = run_traced ?options timing circuit in
  result
