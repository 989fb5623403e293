module Circuit = Qec_circuit.Circuit
module Dag = Qec_circuit.Dag
module Coupling = Qec_circuit.Coupling
module Gate = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Tel = Qec_telemetry.Telemetry

type method_ = Identity | Bisected | Partitioned | Annealed

(* Two-qubit tasks of at most [sample_layers] evenly spaced ASAP levels,
   among the levels holding at least two: level [i * k / sample_layers]
   of the [k] such levels, or all of them when [k <= sample_layers].
   One pass counts the two-qubit gates at each level; tasks are built for
   the sampled levels only, ascending by gate id. *)
let layer_tasks ~sample_layers ?dag circuit =
  let dag =
    match dag with Some d -> d | None -> Dag.of_circuit circuit
  in
  let levels = Dag.asap_levels dag in
  let gates = Circuit.gates circuit in
  let depth =
    Array.fold_left (fun d l -> if l < d then d else l + 1) 0 levels
  in
  let count = Array.make depth 0 in
  Array.iteri
    (fun i g ->
      if Gate.is_two_qubit g then
        count.(levels.(i)) <- count.(levels.(i)) + 1)
    gates;
  let wide = Array.make depth 0 and k = ref 0 in
  Array.iteri
    (fun l c ->
      if c >= 2 then begin
        wide.(!k) <- l;
        incr k
      end)
    count;
  let k = !k in
  let picked =
    if k <= sample_layers then Array.sub wide 0 k
    else Array.init sample_layers (fun i -> wide.(i * k / sample_layers))
  in
  (* slot.(l): level l's index in [picked], or -1 *)
  let slot = Array.make depth (-1) in
  Array.iteri (fun j l -> slot.(l) <- j) picked;
  let out = Array.make (Array.length picked) [] in
  for i = Array.length gates - 1 downto 0 do
    let j = slot.(levels.(i)) in
    if j >= 0 then
      match Task.of_gate i gates.(i) with
      | Some t -> out.(j) <- t :: out.(j)
      | None -> ()
  done;
  Array.map Array.of_list out

let census_of_layers placement layers =
  Array.fold_left
    (fun acc tasks -> acc + Llg.count_oversize_array placement tasks)
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
    let layer_count = Array.map (Llg.count_oversize_array placement) layers in
    let census_layers = ref nl in
    (* Per qubit: the layers it has a task in, ascending (an ASAP level
       holds at most one gate per qubit), and the other operand of each
       of its tasks. *)
    let layers_of = Array.make n [] and partners = Array.make n [] in
    let add li q p =
      layers_of.(q) <- li :: layers_of.(q);
      partners.(q) <- p :: partners.(q)
    in
    for li = nl - 1 downto 0 do
      Array.iter
        (fun (t : Task.t) ->
          add li t.q1 t.q2;
          add li t.q2 t.q1)
        layers.(li)
    done;
    let layers_of = Array.map Array.of_list layers_of in
    let partners = Array.map Array.of_list partners in
    (* The layers touching [a] or [b]: a merge of their ascending arrays
       into [touched]; returns how many. *)
    let touched = Array.make nl 0 and after = Array.make nl 0 in
    let affected a b =
      let la = layers_of.(a) and lb = layers_of.(b) in
      let na = Array.length la and nb = Array.length lb in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < na || !j < nb do
        if !j >= nb || (!i < na && la.(!i) <= lb.(!j)) then begin
          if !j < nb && lb.(!j) = la.(!i) then incr j;
          touched.(!k) <- la.(!i);
          incr i
        end
        else begin
          touched.(!k) <- lb.(!j);
          incr j
        end;
        incr k
      done;
      !k
    in
    (* Distance restricted to the swapped qubits' own tasks: a cheap,
       local tie-breaker. A task between [a] and [b] counts twice. *)
    let xs = Placement.xs placement and ys = Placement.ys placement in
    let own_distance q =
      let ps = partners.(q) and d = ref 0 in
      for k = 0 to Array.length ps - 1 do
        let p = ps.(k) in
        d := !d + abs (xs.(q) - xs.(p)) + abs (ys.(q) - ys.(p))
      done;
      !d
    in
    let local_distance a b = own_distance a + own_distance b in
    (* Strict descent, per the paper: "keep swapping qubits until the
       number of k-LLG (k > 3) cannot be reduced anymore". A move is kept
       only if it reduces the census, or keeps it equal while shortening
       the swapped qubits' own interactions. Stop early once the census
       hits zero or proposals stop landing. *)
    let total = ref (Array.fold_left ( + ) 0 layer_count) in
    (* Targeted proposals: the first qubit of a swap is drawn from the
       members of current oversize groups, so most proposals can actually
       change the census. The pool is refreshed after accepted moves; its
       order is the table's, which the draws index into. *)
    let oversize_pool () =
      let pool = Hashtbl.create 64 in
      Array.iter
        (fun tasks ->
          Llg.iter_oversize_members placement tasks (fun (t : Task.t) ->
              Hashtbl.replace pool t.q1 ();
              Hashtbl.replace pool t.q2 ()))
        layers;
      Array.of_seq (Hashtbl.to_seq_keys pool)
    in
    let pool = ref (oversize_pool ()) in
    let stale = ref false in
    let rejections = ref 0 in
    let step = ref 0 in
    while !step < iters && !rejections < 200 && !total > 0 do
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
        let nt = affected a b in
        if nt > 0 then begin
          let before_census = ref 0 in
          for k = 0 to nt - 1 do
            before_census := !before_census + layer_count.(touched.(k))
          done;
          let before_dist = local_distance a b in
          Placement.swap_qubits placement a b;
          let after_census = ref 0 in
          for k = 0 to nt - 1 do
            after.(k) <-
              Llg.count_oversize_array placement layers.(touched.(k));
            after_census := !after_census + after.(k)
          done;
          census_layers := !census_layers + nt;
          let after_dist = local_distance a b in
          let accept =
            !after_census < !before_census
            || (!after_census = !before_census && after_dist < before_dist)
          in
          if accept then begin
            Tel.count "anneal.accepted";
            for k = 0 to nt - 1 do
              layer_count.(touched.(k)) <- after.(k)
            done;
            total := !total - !before_census + !after_census;
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
    Tel.count ~by:!census_layers "anneal.census_layers";
    Tel.gauge "anneal.final_census" (float_of_int !total)
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
        Tel.timed "embed.layout" (fun () ->
            Qec_partition.Embed.layout ~seed ~snake coupling grid))
  in
  match method_ with
  | Identity -> Placement.identity grid ~num_qubits:n
  | Bisected -> embed ~snake:false
  | Partitioned -> embed ~snake:true
  | Annealed ->
    let placement = embed ~snake:true in
    let dag = Option.map Lazy.force dag in
    let iters =
      (* The census is O(front^2) per touched layer, so the budget
         shrinks for wide circuits to keep compile time in line with the
         paper's 1-2% claim. *)
      if n <= 200 then min 1200 (max 150 (6 * n)) else max 80 (120_000 / n)
    in
    Tel.gauge "anneal.iters_budget" (float_of_int iters);
    (* The census-driven fine-tune is the static half of layout
       optimization; Layout_opt.plan is the dynamic half. The anneal
       samples fewer layers than the reported census: every proposal
       recounts the layers it touches. *)
    Tel.with_span "layout_optimization" (fun () ->
        Tel.timed "initial_layout.anneal" (fun () ->
            let layers = layer_tasks ~sample_layers:16 ?dag circuit in
            anneal ~rng:(Qec_util.Rng.create (seed + 1)) ~iters placement
              layers));
    placement
