module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Dag = Qec_circuit.Dag
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

type violation = {
  round : int option;
  gate : int option;
  code : string;
  msg : string;
}

let violation_to_string v =
  match v.round with
  | Some k -> Printf.sprintf "round %d: %s" k v.msg
  | None -> v.msg

(* Replay the whole trace, collecting every detectable violation instead of
   stopping at the first. To limit cascades, a gate that fails a readiness
   check (other than being out of range) is still marked executed before the
   replay continues. *)
let check t =
  let violations = ref [] in
  let add ?round ?gate ~code fmt =
    Printf.ksprintf
      (fun msg -> violations := { round; gate; code; msg } :: !violations)
      fmt
  in
  let dag = Dag.of_circuit t.circuit in
  let n_gates = Circuit.length t.circuit in
  let executed = Array.make n_gates false in
  let placement = initial_placement t in
  let check_gate_ready ~round id =
    if id < 0 || id >= n_gates then
      add ~round ~gate:id ~code:"TV001" "gate id %d out of range" id
    else begin
      if executed.(id) then
        add ~round ~gate:id ~code:"TV002" "gate %d executed twice" id
      else if List.exists (fun p -> not executed.(p)) (Dag.preds dag id) then
        add ~round ~gate:id ~code:"TV003" "gate %d executed before a predecessor"
          id;
      executed.(id) <- true
    end
  in
  let check_locals ~round ids =
    List.iter
      (fun id ->
        check_gate_ready ~round id;
        if
          id >= 0 && id < n_gates
          && Gate.is_two_qubit (Circuit.gate t.circuit id)
        then
          add ~round ~gate:id ~code:"TV004"
            "gate %d in a local slot is a two-qubit gate" id)
      ids
  in
  let check_braid_paths ~round ?(kind = "braid") braids =
    let rec disjoint = function
      | [] -> ()
      | ((t1 : Task.t), p1) :: rest ->
        if
          List.exists (fun ((_, p2) : Task.t * Path.t) ->
              not (Path.disjoint p1 p2))
            rest
        then
          add ~round ~gate:t1.Task.id ~code:"TV009"
            "gate %d's path collides with another path" t1.Task.id;
        disjoint rest
    in
    List.iter
      (fun ((task : Task.t), path) ->
        check_gate_ready ~round task.id;
        if task.id >= 0 && task.id < n_gates then begin
          let g = Circuit.gate t.circuit task.id in
          if not (Gate.is_two_qubit g) then
            add ~round ~gate:task.id ~code:"TV005"
              "gate %d scheduled as a %s is not two-qubit" task.id kind
          else begin
            let ca = Placement.cell_of_qubit placement task.q1
            and cb = Placement.cell_of_qubit placement task.q2 in
            match Gate.two_qubit_operands g with
            | Some (a, b) when (a, b) = (task.q1, task.q2) ->
              if not (Path.connects_cells t.grid path ca cb) then
                add ~round ~gate:task.id ~code:"TV006"
                  "gate %d's path does not connect its operand tiles" task.id
            | Some _ ->
              add ~round ~gate:task.id ~code:"TV007"
                "gate %d's task operands mismatch the gate" task.id
            | None ->
              add ~round ~gate:task.id ~code:"TV008"
                "gate %d has no two-qubit operands" task.id
          end
        end)
      braids;
    disjoint braids
  in
  let check_swaps ~round swaps =
    let qubits = List.concat_map (fun (a, b) -> [ a; b ]) swaps in
    if List.length (List.sort_uniq compare qubits) <> List.length qubits then
      add ~round ~code:"TV010" "a swap layer touches a qubit twice";
    List.iter (fun (a, b) -> Placement.swap_qubits placement a b) swaps
  in
  let rounds_arr = Array.of_list t.rounds in
  let gate_qubits id =
    if id >= 0 && id < n_gates then Gate.qubits (Circuit.gate t.circuit id)
    else []
  in
  let touched_qubits = function
    | Local { gates } -> List.concat_map gate_qubits gates
    | Braid { braids = ops; locals } | Merge { merges = ops; locals; _ } ->
      List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) ops
      @ List.concat_map gate_qubits locals
    | Swap_layer { swaps } -> List.concat_map (fun (a, b) -> [ a; b ]) swaps
  in
  List.iteri
    (fun round r ->
      match r with
      | Local { gates } ->
        if gates = [] then add ~round ~code:"TV011" "empty local round"
        else check_locals ~round gates
      | Braid { braids; locals } ->
        if braids = [] then add ~round ~code:"TV011" "braid round without braids"
        else check_braid_paths ~round braids;
        check_locals ~round locals
      | Merge { merges; locals; split_overlapped } ->
        if merges = [] then
          add ~round ~code:"TV011" "merge round without merges"
        else check_braid_paths ~round ~kind:"merge" merges;
        check_locals ~round locals;
        if split_overlapped then begin
          (* A split may only overlap the next round when that round exists
             and touches none of the still-splitting qubits. *)
          let mq =
            List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) merges
          in
          if round + 1 >= Array.length rounds_arr then
            add ~round ~code:"TV012" "split overlap claimed on the final round"
          else if
            List.exists
              (fun q -> List.mem q mq)
              (touched_qubits rounds_arr.(round + 1))
          then
            add ~round ~code:"TV013"
              "overlapped split shares qubits with the next round"
        end
      | Swap_layer { swaps } ->
        if swaps = [] then add ~round ~code:"TV011" "empty swap layer"
        else check_swaps ~round swaps)
    t.rounds;
  let missing = ref [] in
  Array.iteri (fun i done_ -> if not done_ then missing := i :: !missing) executed;
  (match List.rev !missing with
  | [] -> ()
  | i :: rest ->
    add ~gate:i ~code:"TV014"
      "gate %d was never executed (%d gates missing in total)" i
      (1 + List.length rest));
  List.rev !violations

let validate t =
  match check t with
  | [] -> Ok ()
  | v :: _ -> Error (violation_to_string v)

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
