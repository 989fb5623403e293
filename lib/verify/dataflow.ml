module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Dag = Qec_circuit.Dag
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Bitset = Qec_util.Bitset
module Task = Autobraid.Task
module Interference = Autobraid.Interference

type direction = Forward | Backward

let solve ~n ~direction ~edges ~init ~transfer ~join =
  let facts = Array.make n init in
  let visit g =
    let check e =
      let ordered =
        match direction with Forward -> e < g | Backward -> e > g
      in
      if not ordered then
        invalid_arg
          (Printf.sprintf "Dataflow.solve: edge %d -> %d breaks topological \
                           order"
             g e)
    in
    let input =
      List.fold_left
        (fun acc e ->
          check e;
          join acc facts.(e))
        init (edges g)
    in
    facts.(g) <- transfer g input
  in
  (match direction with
  | Forward ->
    for g = 0 to n - 1 do
      visit g
    done
  | Backward ->
    for g = n - 1 downto 0 do
      visit g
    done);
  facts

(* ---------------- liveness ---------------- *)

let live_after circuit =
  let n = Circuit.length circuit in
  let nq = Circuit.num_qubits circuit in
  let empty = Bitset.create nq in
  (* Backward along the program-order chain: the fact at [g] is the set
     of qubits some gate after [g] touches. [transfer s] folds gate [s]'s
     own operands into what is live after [s]. *)
  solve ~n ~direction:Backward
    ~edges:(fun g -> if g + 1 < n then [ g + 1 ] else [])
    ~init:empty
    ~transfer:(fun s after ->
      if s + 1 >= n then empty
      else begin
        let live = Bitset.copy after in
        List.iter
          (fun q -> Bitset.add live q)
          (Gate.qubits (Circuit.gate circuit (s + 1)));
        live
      end)
    ~join:(fun a b ->
      if Bitset.cardinal a = 0 then b
      else begin
        let u = Bitset.copy a in
        Bitset.union_into ~dst:u b;
        u
      end)

(* ---------------- critical-path slack ---------------- *)

type slack = { earliest_finish : int; tail : int; slack : int }

let default_cost g =
  match g with
  | Gate.Barrier _ -> 0
  | _ when Gate.is_two_qubit g || Gate.is_wide g -> 2
  | _ -> 1

let slack_analysis ?(cost = default_cost) ?dag circuit =
  let n = Circuit.length circuit in
  let dag = match dag with Some d -> d | None -> Dag.of_circuit circuit in
  let gate_cost = Array.init n (fun g -> cost (Circuit.gate circuit g)) in
  let finish =
    solve ~n ~direction:Forward ~edges:(Dag.preds dag) ~init:0
      ~transfer:(fun g ready -> ready + gate_cost.(g))
      ~join:max
  in
  let tail =
    solve ~n ~direction:Backward ~edges:(Dag.succs dag) ~init:0
      ~transfer:(fun g below -> below + gate_cost.(g))
      ~join:max
  in
  let critical = Array.fold_left max 0 finish in
  Array.init n (fun g ->
      {
        earliest_finish = finish.(g);
        tail = tail.(g);
        slack = critical - (finish.(g) + tail.(g) - gate_cost.(g));
      })

let critical_length slacks =
  Array.fold_left (fun acc s -> max acc s.earliest_finish) 0 slacks

(* ---------------- congestion pressure ---------------- *)

type congestion = { layer : int; task : Task.t; degree : int }

let smallest_side num_qubits =
  let rec grow l = if l * l >= num_qubits then l else grow (l + 1) in
  grow 1

let congestion_pressure circuit =
  let nq = Circuit.num_qubits circuit in
  if nq = 0 then []
  else begin
    let grid = Grid.create (smallest_side nq) in
    let placement = Placement.identity grid ~num_qubits:nq in
    let dag = Dag.of_circuit circuit in
    let per_layer layer ids =
      let tasks =
        List.filter_map (fun g -> Task.of_gate g (Circuit.gate circuit g)) ids
      in
      if tasks = [] then []
      else begin
        let graph = Interference.build placement tasks in
        List.map
          (fun (t : Task.t) ->
            { layer; task = t; degree = Interference.degree graph t.Task.id })
          tasks
      end
    in
    List.concat (Array.to_list (Array.mapi per_layer (Dag.layers dag)))
  end
