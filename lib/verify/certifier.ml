module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Path = Qec_lattice.Path
module Timing = Qec_surface.Timing
module St = Qec_surface.Surgery_timing
module Trace = Autobraid.Trace
module Task = Autobraid.Task
module Bitset = Qec_util.Bitset
module I = Invariant

type witness = {
  invariant : Invariant.t;
  round : int option;
  gate : int option;
  detail : string;
}

type t = {
  circuit_name : string;
  backend : string option;
  num_gates : int;
  num_rounds : int;
  cycles_computed : int;
  cycles_traced : int;
  cycles_reported : int option;
  witnesses : witness list;
}

(* The whole point of this module is to NOT trust the machinery under
   test, so everything below rebuilds its verdicts from the raw trace
   data: dependency order from per-qubit program order (not Dag),
   placement from a replayed qubit->cell array (not Placement), path
   validity from the grid's row-major vertex numbering (not Path's
   constructor invariant). *)

(* Program-order predecessors: for each gate, the immediately preceding
   gate on each of its operand qubits. Transitive order follows by
   induction, so checking immediate predecessors certifies the full
   dependency relation. *)
let program_preds circuit =
  let n = Circuit.length circuit in
  let last = Array.make (Circuit.num_qubits circuit) (-1) in
  let preds = Array.make n [] in
  (* [ps] stays ascending and distinct, as the witnesses list them *)
  let rec insert p = function
    | x :: rest when x < p -> x :: insert p rest
    | x :: _ as ps when x = p -> ps
    | ps -> p :: ps
  in
  let add_pred ps q = if last.(q) >= 0 then insert last.(q) ps else ps in
  for g = 0 to n - 1 do
    let qs = Gate.qubits (Circuit.gate circuit g) in
    preds.(g) <- List.fold_left add_pred [] qs;
    List.iter (fun q -> last.(q) <- g) qs
  done;
  preds

let certify ?backend ?result timing (trace : Trace.t) =
  let ws = ref [] in
  let add invariant ?round ?gate fmt =
    Printf.ksprintf
      (fun detail -> ws := { invariant; round; gate; detail } :: !ws)
      fmt
  in
  let circuit = trace.Trace.circuit in
  let grid = trace.Trace.grid in
  let n_gates = Circuit.length circuit in
  let n_qubits = Circuit.num_qubits circuit in
  let preds = program_preds circuit in
  let executed = Array.make n_gates 0 in
  (* Vertex stamps, the one per-vertex array of the call: [mark.(v)] is
     the number of the last path that visited [v]. Paths are numbered
     from 1 across the whole trace, so within a round the vertices of
     earlier paths are exactly those stamped at or above the round's
     first path number, and a path's own visits carry its number. *)
  let side = Grid.side grid in
  let vside = side + 1 in
  let n_vertices = Grid.num_vertices grid in
  let mark = Array.make n_vertices 0 in
  let last_path = ref 0 in
  (* Channel adjacency of vertex [v] (on the grid) and [w], from the
     row-major numbering [y * vside + x]. *)
  let adjacent v w =
    if w = v + 1 then w mod vside <> 0
    else if w = v - 1 then v mod vside <> 0
    else if w = v + vside then w < n_vertices
    else w = v - vside && w >= 0
  in
  (* Whether vertex [v] is a corner of cell [c] (row-major [y * side + x],
     corners at x..x+1, y..y+1). *)
  let is_corner c v =
    let base = (c / side * vside) + (c mod side) in
    v = base || v = base + 1 || v = base + vside || v = base + vside + 1
  in
  (* Replayed placement: qubit -> cell, advanced only by swap layers. *)
  let cells = Array.copy trace.Trace.initial_cells in
  let placement_ok =
    Array.length cells = n_qubits
    && Array.for_all (fun c -> c >= 0 && c < Grid.num_cells grid) cells
    &&
    let seen = Bitset.create (Grid.num_cells grid) in
    Array.for_all
      (fun c ->
        if Bitset.mem seen c then false
        else begin
          Bitset.add seen c;
          true
        end)
      cells
  in
  if not placement_ok then
    add I.Round_shape "initial placement is not an injective qubit->cell map";
  let qubit_in_range q = q >= 0 && q < n_qubits in
  let gate_in_range g = g >= 0 && g < n_gates in
  (* Exactly-once and dependency order, per gate occurrence. Execution
     order inside a round follows the trace's list order (braids/merges
     first, then locals), matching the replay semantics of rounds. *)
  let rec check_preds ~round g = function
    | [] -> ()
    | p :: ps ->
      if executed.(p) = 0 then
        add I.Gate_dependency_order ~round ~gate:g
          "gate %d runs before its program-order predecessor %d" g p;
      check_preds ~round g ps
  in
  let execute ~round g =
    if not (gate_in_range g) then
      add I.Gate_exactly_once ~round ~gate:g "gate id %d out of range" g
    else begin
      if executed.(g) > 0 then
        add I.Gate_exactly_once ~round ~gate:g "gate %d executed %d times" g
          (executed.(g) + 1)
      else check_preds ~round g preds.(g);
      executed.(g) <- executed.(g) + 1
    end
  in
  let check_local ~round g =
    execute ~round g;
    if gate_in_range g && Gate.is_two_qubit (Circuit.gate circuit g) then
      add I.Round_shape ~round ~gate:g
        "two-qubit gate %d occupies a local slot" g
  in
  (* Channel validity of path [id] of a round whose first path is
     [first]: distinct, consecutively adjacent vertices. The Path module
     enforces this at construction; re-deriving it here keeps the
     certificate independent of that invariant. The check stops at the
     first revisited vertex, but every vertex on the grid is stamped,
     since disjointness counts them all. A vertex off the grid is a
     channel witness of its own, wherever it sits, and is not stamped.
     Returns [shared] extended by the vertices earlier paths of the round
     visit. *)
  let on_grid v = v >= 0 && v < n_vertices in
  let rec walk ~round ~gate ~id ~first ~checking shared = function
    | [] -> shared
    | v :: rest when not (on_grid v) ->
      add I.Path_channel ~round ~gate "path vertex %d is off the grid" v;
      walk ~round ~gate ~id ~first ~checking shared rest
    | v :: rest ->
      let m = mark.(v) in
      if m = id then begin
        if checking then
          add I.Path_channel ~round ~gate "path revisits vertex %d" v;
        walk ~round ~gate ~id ~first ~checking:false shared rest
      end
      else begin
        mark.(v) <- id;
        (match rest with
        | w :: _ when checking && on_grid w && not (adjacent v w) ->
          add I.Path_channel ~round ~gate
            "path vertices %d and %d are not channel-adjacent" v w
        | _ -> ());
        walk ~round ~gate ~id ~first ~checking
          (if m >= first then v :: shared else shared)
          rest
      end
  in
  let rec last_vertex = function
    | [ v ] -> v
    | _ :: vs -> last_vertex vs
    | [] -> invalid_arg "last_vertex"
  in
  (* One braid/merge entry: arity, operand agreement, channel-path
     validity under the current placement. [first] is the number of the
     round's first path. Returns the path's vertices that earlier paths
     of the round also visit, unsorted, for the disjointness witnesses. *)
  let check_op ~round ~kind ~first ((task : Task.t), path) =
    let gate = task.id in
    execute ~round gate;
    let vs = Path.vertices path in
    let operands_ok =
      gate_in_range gate
      &&
      match Gate.two_qubit_operands (Circuit.gate circuit gate) with
      | Some (a, b) when a = task.q1 && b = task.q2 -> true
      | Some _ ->
        add I.Round_shape ~round ~gate
          "%s task operands (q%d, q%d) mismatch the gate" kind task.q1 task.q2;
        false
      | None ->
        add I.Round_shape ~round ~gate
          "gate %d scheduled as a %s is not a two-qubit gate" gate kind;
        false
    in
    incr last_path;
    let shared =
      match vs with
      | [] ->
        add I.Path_channel ~round ~gate "empty %s path" kind;
        []
      | _ -> walk ~round ~gate ~id:!last_path ~first ~checking:true [] vs
    in
    (match vs with
    | src :: _
      when operands_ok && placement_ok && qubit_in_range task.q1
           && qubit_in_range task.q2 ->
      let tgt = last_vertex vs and a = cells.(task.q1) and b = cells.(task.q2) in
      if
        not
          ((is_corner a src && is_corner b tgt)
          || (is_corner b src && is_corner a tgt))
      then
        add I.Path_channel ~round ~gate
          "path endpoints are not corners of the operand tiles of gate %d"
          gate
    | _ -> ());
    shared
  in
  (* Channel witnesses of every path of the round come first, then one
     disjointness witness per vertex a path shares with earlier paths, in
     path order and ascending vertex order. Only a path that shares
     vertices is sorted. *)
  let check_ops ~round ~kind ops =
    let first = !last_path + 1 in
    let collided =
      List.fold_left
        (fun acc (((task : Task.t), _) as op) ->
          match check_op ~round ~kind ~first op with
          | [] -> acc
          | shared -> (task.id, shared) :: acc)
        [] ops
    in
    List.iter
      (fun (gate, shared) ->
        List.iter
          (fun v ->
            add I.Path_disjoint ~round ~gate
              "gate %d's path shares vertex %d with an earlier path in the \
               round"
              gate v)
          (List.sort_uniq Int.compare shared))
      (List.rev collided)
  in
  let check_swaps ~round swaps =
    let touched = Array.make (max n_qubits 1) false in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun q ->
            if not (qubit_in_range q) then
              add I.Swap_legal ~round "swap qubit %d out of range" q
            else if touched.(q) then
              add I.Swap_legal ~round "swap layer touches qubit %d twice" q
            else touched.(q) <- true)
          [ a; b ];
        if a <> b && qubit_in_range a && qubit_in_range b then begin
          let ca = cells.(a) in
          cells.(a) <- cells.(b);
          cells.(b) <- ca
        end)
      swaps
  in
  let rounds = Array.of_list trace.Trace.rounds in
  let gate_qubits g =
    if gate_in_range g then Gate.qubits (Circuit.gate circuit g) else []
  in
  let touched_qubits = function
    | Trace.Local { gates } -> List.concat_map gate_qubits gates
    | Trace.Braid { braids = ops; locals }
    | Trace.Merge { merges = ops; locals; _ } ->
      List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) ops
      @ List.concat_map gate_qubits locals
    | Trace.Swap_layer { swaps } -> List.concat_map (fun (a, b) -> [ a; b ]) swaps
  in
  Array.iteri
    (fun round r ->
      match r with
      | Trace.Local { gates } ->
        if gates = [] then add I.Round_shape ~round "empty local round"
        else List.iter (check_local ~round) gates
      | Trace.Braid { braids; locals } ->
        if braids = [] then add I.Round_shape ~round "braid round without braids"
        else check_ops ~round ~kind:"braid" braids;
        List.iter (check_local ~round) locals
      | Trace.Merge { merges; locals; split_overlapped } ->
        if merges = [] then add I.Round_shape ~round "merge round without merges"
        else check_ops ~round ~kind:"merge" merges;
        List.iter (check_local ~round) locals;
        if split_overlapped then begin
          let mq =
            List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) merges
          in
          if round + 1 >= Array.length rounds then
            add I.Split_pipeline ~round
              "split overlap claimed on the final round"
          else
            List.iter
              (fun q ->
                if List.mem q mq then
                  add I.Split_pipeline ~round
                    "overlapped split and the next round both touch qubit %d"
                    q)
              (List.sort_uniq Int.compare (touched_qubits rounds.(round + 1)))
        end
      | Trace.Swap_layer { swaps } ->
        if swaps = [] then add I.Round_shape ~round "empty swap layer"
        else check_swaps ~round swaps)
    rounds;
  Array.iteri
    (fun g n ->
      if n = 0 then add I.Gate_exactly_once ~gate:g "gate %d never executed" g)
    executed;
  (* Independent cycle accounting from round shapes and the shared cost
     model, cross-checked against Trace.cycles and the reported total. *)
  let cycles_computed =
    Array.fold_left
      (fun acc -> function
        | Trace.Local _ -> acc + Timing.single_qubit_cycles timing
        | Trace.Braid _ -> acc + Timing.braid_cycles timing
        | Trace.Swap_layer _ -> acc + Timing.swap_layer_cycles timing
        | Trace.Merge { split_overlapped; _ } ->
          acc + St.merge_cycles timing
          + if split_overlapped then 0 else St.split_cycles timing)
      0 rounds
  in
  let cycles_traced = Trace.cycles timing trace in
  if cycles_traced <> cycles_computed then
    add I.Cycle_account "Trace.cycles says %d, independent recomputation says %d"
      cycles_traced cycles_computed;
  let cycles_reported =
    Option.map (fun (r : Autobraid.Scheduler.result) -> r.total_cycles) result
  in
  (match cycles_reported with
  | Some reported when reported <> cycles_computed ->
    add I.Cycle_account
      "scheduler reports %d total cycles, independent recomputation says %d"
      reported cycles_computed
  | Some _ | None -> ());
  {
    circuit_name = Circuit.name circuit;
    backend;
    num_gates = n_gates;
    num_rounds = Array.length rounds;
    cycles_computed;
    cycles_traced;
    cycles_reported;
    witnesses = List.rev !ws;
  }

let ok t = t.witnesses = []

let witnesses_for t inv =
  List.filter (fun w -> w.invariant = inv) t.witnesses

let failed t =
  List.filter (fun inv -> witnesses_for t inv <> []) Invariant.all

let witness_to_string w =
  let where =
    match (w.round, w.gate) with
    | Some r, Some g -> Printf.sprintf "round %d, gate %d: " r g
    | Some r, None -> Printf.sprintf "round %d: " r
    | None, Some g -> Printf.sprintf "gate %d: " g
    | None, None -> ""
  in
  Printf.sprintf "%s: %s%s" (Invariant.id w.invariant) where w.detail

let to_summary t =
  let total = List.length Invariant.all in
  match t.witnesses with
  | [] ->
    Printf.sprintf "%s: certified (%d/%d invariants, %d rounds, %d cycles)"
      t.circuit_name total total t.num_rounds t.cycles_computed
  | first :: _ ->
    Printf.sprintf "%s: FAILED %d/%d invariants (%d witnesses; first: %s)"
      t.circuit_name
      (List.length (failed t))
      total
      (List.length t.witnesses)
      (witness_to_string first)
