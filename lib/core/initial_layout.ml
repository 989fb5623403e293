module Circuit = Qec_circuit.Circuit
module Dag = Qec_circuit.Dag
module Coupling = Qec_circuit.Coupling
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Tel = Qec_telemetry.Telemetry

type method_ = Identity | Bisected | Partitioned | Annealed

(* Two-qubit tasks of each ASAP layer, subsampled to at most [sample_layers]
   (evenly spaced) to bound the census cost on deep circuits. *)
let layer_tasks ~sample_layers ?dag circuit =
  let dag =
    match dag with Some d -> d | None -> Dag.of_circuit circuit
  in
  let layers = Dag.layers dag in
  let task_layers =
    Array.to_list layers
    |> List.filter_map (fun ids ->
           let tasks =
             List.filter_map
               (fun i -> Task.of_gate i (Circuit.gate circuit i))
               ids
           in
           if List.length tasks >= 2 then Some tasks else None)
  in
  let k = List.length task_layers in
  if k <= sample_layers then Array.of_list task_layers
  else begin
    let arr = Array.of_list task_layers in
    Array.init sample_layers (fun i -> arr.(i * k / sample_layers))
  end

let census_of_layers placement layers =
  Array.fold_left
    (fun acc tasks -> acc + Llg.count_oversize placement tasks)
    0 layers

let oversize_census circuit placement =
  census_of_layers placement (layer_tasks ~sample_layers:48 circuit)

(* Simulated annealing over qubit swaps. Energy is the oversize-LLG census
   (primary) with total task distance as a small tie-breaker so plateaus
   still drift toward compact layouts. Only layers touching a swapped
   qubit are re-counted. *)
let anneal ~rng ~iters placement layers =
  let n = Placement.num_qubits placement in
  if n >= 2 && Array.length layers > 0 then begin
    let nl = Array.length layers in
    let layer_count = Array.make nl 0 in
    for i = 0 to nl - 1 do
      layer_count.(i) <- Llg.count_oversize placement layers.(i)
    done;
    let layers_of_qubit = Hashtbl.create (n * 2) in
    Array.iteri
      (fun li tasks ->
        List.iter
          (fun (t : Task.t) ->
            Hashtbl.add layers_of_qubit t.q1 li;
            Hashtbl.add layers_of_qubit t.q2 li)
          tasks)
      layers;
    let affected a b =
      List.sort_uniq compare
        (Hashtbl.find_all layers_of_qubit a @ Hashtbl.find_all layers_of_qubit b)
    in
    (* Distance restricted to the swapped qubits' own tasks: a cheap,
       local tie-breaker. *)
    let tasks_of_qubit = Hashtbl.create (n * 2) in
    Array.iter
      (fun tasks ->
        List.iter
          (fun (t : Task.t) ->
            Hashtbl.add tasks_of_qubit t.q1 t;
            Hashtbl.add tasks_of_qubit t.q2 t)
          tasks)
      layers;
    let local_distance a b =
      List.fold_left
        (fun acc t -> acc + Task.distance placement t)
        0
        (Hashtbl.find_all tasks_of_qubit a @ Hashtbl.find_all tasks_of_qubit b)
    in
    (* Strict descent, per the paper: "keep swapping qubits until the
       number of k-LLG (k > 3) cannot be reduced anymore". A move is kept
       only if it reduces the census, or keeps it equal while shortening
       the swapped qubits' own interactions. Stop early once the census
       hits zero or proposals stop landing. *)
    let total_census () = Array.fold_left ( + ) 0 layer_count in
    (* Targeted proposals: the first qubit of a swap is drawn from the
       members of current oversize groups, so most proposals can actually
       change the census. The pool is refreshed after accepted moves. *)
    let oversize_pool () =
      let pool = Hashtbl.create 64 in
      Array.iter
        (fun tasks ->
          List.iter
            (fun g ->
              if Llg.size g > 3 then
                List.iter
                  (fun (t : Task.t) ->
                    Hashtbl.replace pool t.q1 ();
                    Hashtbl.replace pool t.q2 ())
                  g.Llg.members)
            (Llg.decompose placement tasks))
        layers;
      Array.of_seq (Hashtbl.to_seq_keys pool)
    in
    let pool = ref (oversize_pool ()) in
    let stale = ref false in
    let rejections = ref 0 in
    let step = ref 0 in
    while !step < iters && !rejections < 200 && total_census () > 0 do
      incr step;
      Tel.count "anneal.proposals";
      if !stale && !step mod 32 = 0 then begin
        pool := oversize_pool ();
        stale := false
      end;
      let a =
        if Array.length !pool > 0 then
          !pool.(Qec_util.Rng.int rng (Array.length !pool))
        else Qec_util.Rng.int rng n
      in
      let b = Qec_util.Rng.int rng n in
      if a <> b then begin
        let touched = affected a b in
        if touched <> [] then begin
          let before_census =
            List.fold_left (fun acc li -> acc + layer_count.(li)) 0 touched
          in
          let before_dist = local_distance a b in
          Placement.swap_qubits placement a b;
          let after_counts =
            List.map
              (fun li -> (li, Llg.count_oversize placement layers.(li)))
              touched
          in
          let after_census =
            List.fold_left (fun acc (_, c) -> acc + c) 0 after_counts
          in
          let after_dist = local_distance a b in
          let accept =
            after_census < before_census
            || (after_census = before_census && after_dist < before_dist)
          in
          if accept then begin
            Tel.count "anneal.accepted";
            List.iter (fun (li, c) -> layer_count.(li) <- c) after_counts;
            rejections := 0;
            stale := true
          end
          else begin
            Tel.count "anneal.rejected";
            Placement.swap_qubits placement a b;
            incr rejections
          end
        end
        else begin
          Tel.count "anneal.rejected";
          incr rejections
        end
      end
    done;
    Tel.gauge "anneal.final_census" (float_of_int (total_census ()))
  end

let place ?(seed = 23) ?coupling ?dag ~method_ circuit grid =
  Tel.with_span "initial_layout" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  let embed ~snake =
    let coupling =
      match coupling with
      | Some c -> Lazy.force c
      | None -> Coupling.of_circuit circuit
    in
    Tel.with_span "embed" (fun () ->
        Qec_partition.Embed.layout ~seed ~snake coupling grid)
  in
  match method_ with
  | Identity -> Placement.identity grid ~num_qubits:n
  | Bisected -> embed ~snake:false
  | Partitioned -> embed ~snake:true
  | Annealed ->
    let placement = embed ~snake:true in
    (* The anneal samples fewer layers than the reported census: the
       O(front^2) group decomposition runs on every proposal. *)
    let layers =
      layer_tasks ~sample_layers:16 ?dag:(Option.map Lazy.force dag) circuit
    in
    let iters =
      (* The census is O(front^2) per touched layer, so the budget
         shrinks for wide circuits to keep compile time in line with the
         paper's 1-2% claim. *)
      if n <= 200 then min 1200 (max 150 (6 * n)) else max 80 (120_000 / n)
    in
    Tel.gauge "anneal.iters_budget" (float_of_int iters);
    (* The census-driven fine-tune is the static half of layout
       optimization; Layout_opt.plan is the dynamic half. *)
    Tel.with_span "layout_optimization" (fun () ->
        anneal ~rng:(Qec_util.Rng.create (seed + 1)) ~iters placement layers);
    placement
