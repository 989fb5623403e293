module Pair_map = Map.Make (struct
  type t = int * int

  (* Lexicographic, the order polymorphic compare gives int pairs. *)
  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
end)

type t = {
  n : int;
  weights : int Pair_map.t; (* keys have fst < snd *)
  adj : (int * int) list array; (* ascending by neighbor *)
}

let norm a b = if a < b then (a, b) else (b, a)

let of_circuit c =
  let n = Circuit.num_qubits c in
  let weights = ref Pair_map.empty in
  let bump a b =
    let key = norm a b in
    let cur = try Pair_map.find key !weights with Not_found -> 0 in
    weights := Pair_map.add key (cur + 1) !weights
  in
  Circuit.iter
    (fun _ g ->
      match g with
      | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Cphase (a, b, _)
      | Gate.Swap (a, b) ->
        bump a b
      | Gate.Ccx (a, b, t) ->
        bump a b;
        bump a t;
        bump b t
      | Gate.Mcx (cs, t) ->
        let ops = cs @ [ t ] in
        List.iteri
          (fun i a ->
            List.iteri (fun j b -> if i < j then bump a b) ops)
          ops
      | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.S _ | Gate.Sdg _
      | Gate.T _ | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
      | Gate.U3 _ | Gate.Measure _ | Gate.Barrier _ ->
        ())
    c;
  let adj = Array.make n [] in
  Pair_map.iter
    (fun (a, b) w ->
      adj.(a) <- (b, w) :: adj.(a);
      adj.(b) <- (a, w) :: adj.(b))
    !weights;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { n; weights = !weights; adj }

let num_qubits t = t.n

let weight t a b =
  try Pair_map.find (norm a b) t.weights with Not_found -> 0

let neighbors t q = t.adj.(q)

let degree t q = List.length t.adj.(q)

let max_degree t =
  let d = ref 0 in
  for q = 0 to t.n - 1 do
    d := max !d (degree t q)
  done;
  !d

let edges t =
  Pair_map.fold (fun (a, b) w acc -> (a, b, w) :: acc) t.weights []
  |> List.rev

let total_weight t = Pair_map.fold (fun _ w acc -> acc + w) t.weights 0

let density t =
  if t.n < 2 then 0.
  else
    let pairs = t.n * (t.n - 1) / 2 in
    float_of_int (Pair_map.cardinal t.weights) /. float_of_int pairs

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
