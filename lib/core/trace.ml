module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Path = Qec_lattice.Path
module Placement = Qec_lattice.Placement
module Timing = Qec_surface.Timing

type round =
  | Local of { gates : int list }
  | Braid of { braids : (Task.t * Path.t) list; locals : int list }
  | Swap_layer of { swaps : (int * int) list }
  | Merge of {
      merges : (Task.t * Path.t) list;
      locals : int list;
      split_overlapped : bool;
    }

type t = {
  circuit : Circuit.t;
  grid : Grid.t;
  initial_cells : int array;
  rounds : round list;
}

let round_cycles timing = function
  | Local _ -> Timing.single_qubit_cycles timing
  | Braid _ -> Timing.braid_cycles timing
  | Swap_layer _ -> Timing.swap_layer_cycles timing
  | Merge { split_overlapped; _ } ->
    (* The split (d cycles) overlaps the next round when the scheduler
       proved the rounds data-independent; only the merge is charged. *)
    let module St = Qec_surface.Surgery_timing in
    St.merge_cycles timing
    + if split_overlapped then 0 else St.split_cycles timing

let cycles timing t =
  List.fold_left (fun acc r -> acc + round_cycles timing r) 0 t.rounds

let num_rounds t = List.length t.rounds

let swap_count t =
  List.fold_left
    (fun acc -> function
      | Swap_layer { swaps } -> acc + List.length swaps
      | Local _ | Braid _ | Merge _ -> acc)
    0 t.rounds

let initial_placement t =
  Placement.create t.grid
    ~num_qubits:(Array.length t.initial_cells)
    ~cells:t.initial_cells

let placement_after t k =
  if k < 0 || k > num_rounds t then invalid_arg "Trace.placement_after";
  let placement = initial_placement t in
  List.iteri
    (fun i round ->
      if i < k then
        match round with
        | Swap_layer { swaps } ->
          List.iter (fun (a, b) -> Placement.swap_qubits placement a b) swaps
        | Local _ | Braid _ | Merge _ -> ())
    t.rounds;
  placement

let final_placement t = placement_after t (num_rounds t)

let round_to_string t k =
  if k < 0 || k >= num_rounds t then invalid_arg "Trace.round_to_string";
  let placement = placement_after t k in
  match List.nth t.rounds k with
  | Local { gates } ->
    Printf.sprintf "round %d: local (%d gates)\n%s" k (List.length gates)
      (Qec_lattice.Render.grid_to_string ~placement t.grid)
  | Braid { braids; locals } ->
    Printf.sprintf "round %d: %d braids, %d locals\n%s" k
      (List.length braids) (List.length locals)
      (Qec_lattice.Render.grid_to_string
         ~paths:(List.map snd braids)
         ~placement t.grid)
  | Merge { merges; locals; split_overlapped } ->
    Printf.sprintf "round %d: %d merges, %d locals%s\n%s" k
      (List.length merges) (List.length locals)
      (if split_overlapped then " (split overlaps next round)" else "")
      (Qec_lattice.Render.grid_to_string
         ~paths:(List.map snd merges)
         ~placement t.grid)
  | Swap_layer { swaps } ->
    Printf.sprintf "round %d: swap layer (%s)\n%s" k
      (String.concat ", "
         (List.map (fun (a, b) -> Printf.sprintf "q%d<->q%d" a b) swaps))
      (Qec_lattice.Render.grid_to_string ~placement t.grid)

let transformed_circuit t =
  let b =
    Circuit.Builder.create
      ~name:(Circuit.name t.circuit ^ "+swaps")
      ~num_qubits:(Circuit.num_qubits t.circuit)
      ()
  in
  List.iter
    (fun round ->
      match round with
      | Local { gates } ->
        List.iter (fun id -> Circuit.Builder.add b (Circuit.gate t.circuit id)) gates
      | Braid { braids = ops; locals } | Merge { merges = ops; locals; _ } ->
        List.iter
          (fun ((task : Task.t), _) ->
            Circuit.Builder.add b (Circuit.gate t.circuit task.id))
          ops;
        List.iter
          (fun id -> Circuit.Builder.add b (Circuit.gate t.circuit id))
          locals
      | Swap_layer { swaps } ->
        List.iter (fun (a, b') -> Circuit.Builder.add b (Gate.Swap (a, b'))) swaps)
    t.rounds;
  Circuit.Builder.finish b
