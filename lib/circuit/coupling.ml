type t = {
  n : int;
  adj : (int * int) list array; (* ascending by neighbor *)
}

(* [f a b] for every operand pair of every multi-qubit gate: one pair per
   two-qubit gate, every pair of a wide gate's operands. *)
let iter_pairs f c =
  Circuit.iter
    (fun _ g ->
      match g with
      | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Cphase (a, b, _)
      | Gate.Swap (a, b) ->
        f a b
      | Gate.Ccx (a, b, t) ->
        f a b;
        f a t;
        f b t
      | Gate.Mcx (cs, t) ->
        let rec go = function
          | [] -> ()
          | a :: rest ->
            List.iter (f a) rest;
            go rest
        in
        go (cs @ [ t ])
      | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.S _ | Gate.Sdg _
      | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
      | Gate.U3 _ | Gate.Measure _ | Gate.Barrier _ ->
        ())
    c

(* Each interaction is stored under both of its qubits, in one exactly
   sized row per qubit (a first pass counts them). Row [q]'s weights
   accumulate in one scratch row and are read back onto the partners'
   lists; walking the rows from the highest qubit down and prepending
   leaves every list ascending (the interactions are symmetric). One row
   per qubit rather than one buffer for all: at QFT-400 that buffer is
   a single 1.3 MB allocation, and freeing it raises glibc's dynamic
   mmap threshold, which grew the resident size of the compiles after
   it by about 3 MB. *)
let of_circuit c =
  let n = Circuit.num_qubits c in
  let count = Array.make n 0 in
  iter_pairs
    (fun a b ->
      count.(a) <- count.(a) + 1;
      count.(b) <- count.(b) + 1)
    c;
  let rows = Array.map (fun k -> Array.make k 0) count in
  let fill = Array.make n 0 in
  let put q v =
    rows.(q).(fill.(q)) <- v;
    fill.(q) <- fill.(q) + 1
  in
  iter_pairs
    (fun a b ->
      put a b;
      put b a)
    c;
  let weight = Array.make n 0 and adj = Array.make n [] in
  for q = n - 1 downto 0 do
    let row = rows.(q) in
    Array.iter (fun r -> weight.(r) <- weight.(r) + 1) row;
    Array.iter
      (fun r ->
        if weight.(r) > 0 then begin
          adj.(r) <- (q, weight.(r)) :: adj.(r);
          weight.(r) <- 0
        end)
      row
  done;
  { n; adj }

let num_qubits t = t.n

let weight t a b =
  let lo = min a b in
  if lo < 0 || lo >= t.n then 0
  else Option.value ~default:0 (List.assoc_opt (max a b) t.adj.(lo))

let neighbors t q = t.adj.(q)

let degree t q = List.length t.adj.(q)

let max_degree t =
  let d = ref 0 in
  for q = 0 to t.n - 1 do
    d := max !d (degree t q)
  done;
  !d

(* Each edge once, from its lower end's row. *)
let fold_edges f t init =
  let acc = ref init in
  for a = 0 to t.n - 1 do
    List.iter (fun (b, w) -> if a < b then acc := f a b w !acc) t.adj.(a)
  done;
  !acc

let edges t = List.rev (fold_edges (fun a b w acc -> (a, b, w) :: acc) t [])

let total_weight t = fold_edges (fun _ _ w acc -> acc + w) t 0

let density t =
  if t.n < 2 then 0.
  else
    let pairs = t.n * (t.n - 1) / 2 in
    float_of_int (fold_edges (fun _ _ _ k -> k + 1) t 0) /. float_of_int pairs

let is_degree_two t = max_degree t <= 2

let chain_order t =
  if not (is_degree_two t) then None
  else begin
    let visited = Array.make t.n false in
    let order = ref [] in
    let emit q =
      visited.(q) <- true;
      order := q :: !order
    in
    (* Walk a path/ring component starting from [start], preferring the
       unvisited neighbor at each step. *)
    let walk start =
      let rec go q =
        emit q;
        match List.find_opt (fun (nb, _) -> not visited.(nb)) t.adj.(q) with
        | Some (nb, _) -> go nb
        | None -> ()
      in
      go start
    in
    (* Path components first, entered from an endpoint (degree <= 1 among
       unvisited); this keeps coupled pairs adjacent in the ordering. *)
    for q = 0 to t.n - 1 do
      if (not visited.(q)) && degree t q = 1 then walk q
    done;
    (* Remaining non-isolated components are rings: cut anywhere. *)
    for q = 0 to t.n - 1 do
      if (not visited.(q)) && degree t q > 0 then walk q
    done;
    for q = 0 to t.n - 1 do
      if not visited.(q) then emit q
    done;
    Some (List.rev !order)
  end
