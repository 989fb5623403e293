module Coupling = Qec_circuit.Coupling

type graph = {
  adj : (int * int) list array;
      (* (neighbour, weight) rows, ascending: the coupling graph's own
         lists. Copies into per-qubit int arrays were faster by 10 ms on
         QFT-400 but raised its peak RSS by 2.5 MB: large arrays are
         malloc'd, and their freed blocks stay resident. *)
  (* Scratch, indexed by qubit. Every entry is false / 0 between calls. *)
  member : bool array;
  in_a : bool array;
  locked : bool array;
  row : int array; (* one node's weight row, scattered *)
}

let prepare coupling =
  let n = Coupling.num_qubits coupling in
  {
    adj = Array.init n (Coupling.neighbors coupling);
    member = Array.make n false;
    in_a = Array.make n false;
    locked = Array.make n false;
    row = Array.make n 0;
  }

(* The row walks below are top-level recursive functions, not List
   iterators over closures, so refinement allocates no closures. *)
let rec scatter_row row = function
  | [] -> ()
  | (u, w) :: rest ->
    row.(u) <- w;
    scatter_row row rest

let rec clear_row row = function
  | [] -> ()
  | (u, _) :: rest ->
    row.(u) <- 0;
    clear_row row rest

let scatter g v = scatter_row g.row g.adj.(v)
let unscatter g v = clear_row g.row g.adj.(v)

let cut_weight g a b =
  List.fold_left
    (fun acc x ->
      scatter g x;
      let acc = List.fold_left (fun acc y -> acc + g.row.(y)) acc b in
      unscatter g x;
      acc)
    0 a

(* Grow side A by BFS from a start node, preferring heavy neighbors, so
   tightly-coupled qubits land together. Neighbours are queued in
   ascending order, stably sorted by descending weight. *)
let bfs_grow g ~size_a nodes start =
  let frontier = Queue.create () in
  Queue.push start frontier;
  let count = ref 0 in
  while !count < size_a && not (Queue.is_empty frontier) do
    let v = Queue.pop frontier in
    if not g.in_a.(v) then begin
      g.in_a.(v) <- true;
      incr count;
      List.filter (fun (u, _) -> g.member.(u) && not g.in_a.(u)) g.adj.(v)
      |> List.stable_sort (fun (_, w1) (_, w2) -> Int.compare w2 w1)
      |> List.iter (fun (u, _) -> Queue.push u frontier)
    end
  done;
  (* Components may be exhausted before reaching size_a: top up in node
     order. *)
  Array.iter
    (fun v ->
      if !count < size_a && not g.in_a.(v) then begin
        g.in_a.(v) <- true;
        incr count
      end)
    nodes

(* External minus internal connection weight of a node on [side]
   within the node set: the Kernighan–Lin D-value. *)
let rec d_row g side d = function
  | [] -> d
  | (u, w) :: rest ->
    let d =
      if not g.member.(u) then d
      else if g.in_a.(u) <> side then d + w
      else d - w
    in
    d_row g side d rest

let d_value g v = d_row g g.in_a.(v) 0 g.adj.(v)

let rec crosses g side = function
  | [] -> false
  | (u, _) :: rest -> (g.member.(u) && g.in_a.(u) <> side) || crosses g side rest

let on_boundary g v = crosses g g.in_a.(v) g.adj.(v)

(* Kernighan–Lin refinement: swap the unlocked boundary pair (a, b) of
   largest gain D(a) + D(b) - 2 w(a, b), the first in node order on ties,
   lock both, and repeat while the gain is positive, at most [max_swaps]
   times. Each step computes every candidate's D-value once and reads
   w(a, b) from a's row scattered into [g.row]. *)
let refine g nodes =
  let n = Array.length nodes in
  let max_swaps = max 4 (n / 4) in
  let cand_a = Array.make n 0 and cand_b = Array.make n 0 in
  let d_b = Array.make n 0 (* D-value of cand_b.(j) *) in
  let swaps = ref 0 and improving = ref true in
  while !improving && !swaps < max_swaps do
    let na = ref 0 and nb = ref 0 in
    for i = 0 to n - 1 do
      let v = nodes.(i) in
      if (not g.locked.(v)) && on_boundary g v then
        if g.in_a.(v) then begin
          cand_a.(!na) <- v;
          incr na
        end
        else begin
          cand_b.(!nb) <- v;
          d_b.(!nb) <- d_value g v;
          incr nb
        end
    done;
    let best_a = ref (-1) and best_b = ref (-1) and best_gain = ref 0 in
    if !nb > 0 then
      for i = 0 to !na - 1 do
        let a = cand_a.(i) in
        let da = d_value g a in
        scatter g a;
        for j = 0 to !nb - 1 do
          let b = cand_b.(j) in
          let gain = da + d_b.(j) - (2 * g.row.(b)) in
          if !best_a < 0 || gain > !best_gain then begin
            best_a := a;
            best_b := b;
            best_gain := gain
          end
        done;
        unscatter g a
      done;
    if !best_a >= 0 && !best_gain > 0 then begin
      g.in_a.(!best_a) <- false;
      g.in_a.(!best_b) <- true;
      g.locked.(!best_a) <- true;
      g.locked.(!best_b) <- true;
      incr swaps
    end
    else improving := false
  done

let bisect ~rng ~size_a g nodes =
  let n = List.length nodes in
  if size_a < 0 || size_a > n then invalid_arg "Bisect.bisect: bad size_a";
  if size_a = 0 then ([], nodes)
  else if size_a = n then (nodes, [])
  else begin
    let arr = Array.of_list nodes in
    let start = arr.(Qec_util.Rng.int rng n) in
    Array.iter
      (fun v ->
        if v < 0 || v >= Array.length g.row then
          invalid_arg "Bisect.bisect: node out of range")
      arr;
    Array.iter (fun v -> g.member.(v) <- true) arr;
    bfs_grow g ~size_a arr start;
    (* Refinement is capped to small node sets; the cap stays so
       partitions match fixtures/golden_placements.txt. *)
    if n <= 256 then refine g arr;
    let parts = List.partition (fun v -> g.in_a.(v)) nodes in
    Array.iter
      (fun v ->
        g.member.(v) <- false;
        g.in_a.(v) <- false;
        g.locked.(v) <- false)
      arr;
    parts
  end
