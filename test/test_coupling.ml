(* Tests for the qubit coupling graph. *)

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit
module K = Qec_circuit.Coupling

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let chain n =
  (* 0-1-2-...-(n-1) path coupling *)
  C.create ~num_qubits:n
    (List.init (n - 1) (fun i -> G.Cx (i, i + 1)))

let test_weights () =
  let c = C.create ~num_qubits:3 G.[ Cx (0, 1); Cx (1, 0); Cz (1, 2) ] in
  let k = K.of_circuit c in
  check_int "0-1 weight (symmetric)" 2 (K.weight k 0 1);
  check_int "1-0 weight" 2 (K.weight k 1 0);
  check_int "1-2 weight" 1 (K.weight k 1 2);
  check_int "0-2 absent" 0 (K.weight k 0 2);
  check_int "total" 3 (K.total_weight k)

let test_wide_gates_contribute () =
  let c = C.create ~num_qubits:3 [ G.Ccx (0, 1, 2) ] in
  let k = K.of_circuit c in
  check_int "0-1" 1 (K.weight k 0 1);
  check_int "0-2" 1 (K.weight k 0 2);
  check_int "1-2" 1 (K.weight k 1 2)

let test_neighbors_degree () =
  let k = K.of_circuit (chain 5) in
  Alcotest.(check (list (pair int int)))
    "neighbors of 2"
    [ (1, 1); (3, 1) ]
    (K.neighbors k 2);
  check_int "deg endpoint" 1 (K.degree k 0);
  check_int "deg middle" 2 (K.degree k 2);
  check_int "max degree" 2 (K.max_degree k)

let test_edges_sorted () =
  let k = K.of_circuit (chain 4) in
  Alcotest.(check (list (triple int int int)))
    "edges" [ (0, 1, 1); (1, 2, 1); (2, 3, 1) ]
    (K.edges k)

let test_density () =
  let k = K.of_circuit (chain 4) in
  Alcotest.(check (float 1e-9)) "density" 0.5 (K.density k);
  let full =
    C.create ~num_qubits:3 G.[ Cx (0, 1); Cx (0, 2); Cx (1, 2) ]
  in
  Alcotest.(check (float 1e-9)) "complete" 1.0 (K.density (K.of_circuit full))

let test_degree_two_detection () =
  check_bool "chain" true (K.is_degree_two (K.of_circuit (chain 6)));
  let star =
    C.create ~num_qubits:4 G.[ Cx (0, 1); Cx (0, 2); Cx (0, 3) ]
  in
  check_bool "star" false (K.is_degree_two (K.of_circuit star))

let test_chain_order_path () =
  let k = K.of_circuit (chain 5) in
  match K.chain_order k with
  | None -> Alcotest.fail "expected an order"
  | Some order ->
    check_int "length" 5 (List.length order);
    (* every coupled pair must be adjacent in the order *)
    let pos = Array.make 5 0 in
    List.iteri (fun i q -> pos.(q) <- i) order;
    List.iter
      (fun (a, b, _) ->
        check_int (Printf.sprintf "adj %d-%d" a b) 1 (abs (pos.(a) - pos.(b))))
      (K.edges k)

let test_chain_order_ring () =
  let ring =
    C.create ~num_qubits:4 G.[ Cx (0, 1); Cx (1, 2); Cx (2, 3); Cx (3, 0) ]
  in
  let k = K.of_circuit ring in
  match K.chain_order k with
  | None -> Alcotest.fail "expected an order for a ring"
  | Some order ->
    check_int "length" 4 (List.length order);
    check_int "all qubits" 4 (List.length (List.sort_uniq compare order))

let test_chain_order_star_none () =
  let star = C.create ~num_qubits:4 G.[ Cx (0, 1); Cx (0, 2); Cx (0, 3) ] in
  check_bool "no order" true (K.chain_order (K.of_circuit star) = None)

let test_chain_order_isolated () =
  (* isolated qubits appended after the chain *)
  let c = C.create ~num_qubits:5 G.[ Cx (0, 1); Cx (1, 2) ] in
  match K.chain_order (K.of_circuit c) with
  | None -> Alcotest.fail "expected order"
  | Some order ->
    check_int "all present" 5 (List.length (List.sort_uniq compare order))

let prop_weight_symmetric =
  QCheck.Test.make ~name:"weight symmetric" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_bound 7) (int_bound 7)))
    (fun pairs ->
      let gates =
        List.filter_map
          (fun (a, b) -> if a <> b then Some (G.Cx (a, b)) else None)
          pairs
      in
      let k = K.of_circuit (C.create ~num_qubits:8 gates) in
      List.for_all
        (fun a -> List.for_all (fun b -> K.weight k a b = K.weight k b a)
            (List.init 8 (fun i -> i)))
        (List.init 8 (fun i -> i)))

(* Differential check against a naive per-pair table built here: random
   circuits over every multi-qubit gate kind, with repeated and reversed
   pairs and isolated qubits. Half the cases couple qubits only along a
   shuffled path (closed into a ring at random), so [chain_order] is
   compared on degree-two graphs too. *)
let random_coupling_circuit =
  let open QCheck.Gen in
  let* n = int_range 1 10 in
  let two_qubit a b =
    let* a, b = oneofl [ (a, b); (b, a) ] in
    oneofl [ G.Cx (a, b); G.Cz (a, b); G.Cphase (a, b, 0.5); G.Swap (a, b) ]
  in
  let distinct k =
    map
      (List.filteri (fun i _ -> i < k))
      (shuffle_l (List.init n Fun.id))
  in
  let any_gate =
    let* k = int_range 1 (min n 6) in
    let* qs = distinct k in
    let* barrier = frequencyl [ (1, true); (5, false) ] in
    match qs with
    | _ when barrier -> return (G.Barrier qs)
    | [ a; b ] -> two_qubit a b
    | [ a; b; c ] -> return (G.Ccx (a, b, c))
    | t :: (_ :: _ :: _ :: _ as cs) -> return (G.Mcx (cs, t))
    | q :: _ -> oneofl [ G.H q; G.T q; G.Measure q ]
    | [] -> return (G.Barrier [])
  in
  let path_gates =
    let* perm = shuffle_l (List.init n Fun.id) in
    let* used = int_range 0 n in
    let* ring = bool in
    let perm = List.filteri (fun i _ -> i < used) perm in
    let links =
      List.filteri (fun i _ -> i > 0) perm
      |> List.mapi (fun i b -> (List.nth perm i, b))
    in
    let links =
      match (ring, perm) with
      | true, first :: _ :: _ :: _ -> (List.nth perm (used - 1), first) :: links
      | _ -> links
    in
    let* reps = list_repeat (List.length links) (int_range 1 3) in
    let* gates =
      flatten_l
        (List.concat
           (List.map2
              (fun (a, b) r -> List.init r (fun _ -> two_qubit a b))
              links reps))
    in
    shuffle_l gates
  in
  let+ gates =
    frequency [ (1, list_size (int_range 0 25) any_gate); (1, path_gates) ]
  in
  C.create ~num_qubits:n gates

let naive_pairs c =
  let tbl = Hashtbl.create 16 in
  let bump a b =
    let key = (min a b, max a b) in
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun g ->
      match g with
      | G.Barrier _ -> ()
      | _ ->
        let qs = G.qubits g in
        List.iteri
          (fun i a -> List.iteri (fun j b -> if i < j then bump a b) qs)
          qs)
    (C.gates c);
  tbl

(* The chain walk of [Coupling.chain_order], over the naive neighbours. *)
let naive_chain_order n nbrs =
  if List.exists (fun q -> List.length (nbrs q) > 2) (List.init n Fun.id) then
    None
  else begin
    let visited = Array.make n false and order = ref [] in
    let emit q =
      visited.(q) <- true;
      order := q :: !order
    in
    let rec walk q =
      emit q;
      match List.find_opt (fun (nb, _) -> not visited.(nb)) (nbrs q) with
      | Some (nb, _) -> walk nb
      | None -> ()
    in
    for q = 0 to n - 1 do
      if (not visited.(q)) && List.length (nbrs q) = 1 then walk q
    done;
    for q = 0 to n - 1 do
      if (not visited.(q)) && nbrs q <> [] then walk q
    done;
    for q = 0 to n - 1 do
      if not visited.(q) then emit q
    done;
    Some (List.rev !order)
  end

let prop_matches_naive =
  QCheck.Test.make ~name:"coupling graph = naive per-pair table" ~count:1000
    (QCheck.make
       ~print:(fun c ->
         String.concat "; " (Array.to_list (Array.map G.to_string (C.gates c))))
       random_coupling_circuit)
    (fun c ->
      let n = C.num_qubits c and k = K.of_circuit c in
      let tbl = naive_pairs c in
      let edges =
        Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) tbl []
        |> List.sort compare
      in
      let nbrs q =
        List.filter_map
          (fun (a, b, w) ->
            if a = q then Some (b, w) else if b = q then Some (a, w) else None)
          edges
        |> List.sort compare
      in
      let qubits = List.init n Fun.id in
      let pairs = n * (n - 1) / 2 in
      K.edges k = edges
      && List.for_all (fun q -> K.neighbors k q = nbrs q) qubits
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 K.weight k a b
                 = Option.value ~default:0
                     (Hashtbl.find_opt tbl (min a b, max a b)))
               qubits)
           qubits
      && K.total_weight k = List.fold_left (fun s (_, _, w) -> s + w) 0 edges
      && K.density k
         = (if n < 2 then 0.
            else float_of_int (List.length edges) /. float_of_int pairs)
      && K.max_degree k
         = List.fold_left (fun d q -> max d (List.length (nbrs q))) 0 qubits
      && K.chain_order k = naive_chain_order n nbrs)

let () =
  Alcotest.run "coupling"
    [
      ( "coupling",
        [
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "wide gates" `Quick test_wide_gates_contribute;
          Alcotest.test_case "neighbors/degree" `Quick test_neighbors_degree;
          Alcotest.test_case "edges" `Quick test_edges_sorted;
          Alcotest.test_case "density" `Quick test_density;
          Alcotest.test_case "degree-two" `Quick test_degree_two_detection;
          Alcotest.test_case "chain order (path)" `Quick test_chain_order_path;
          Alcotest.test_case "chain order (ring)" `Quick test_chain_order_ring;
          Alcotest.test_case "chain order (star)" `Quick test_chain_order_star_none;
          Alcotest.test_case "chain order (isolated)" `Quick test_chain_order_isolated;
          QCheck_alcotest.to_alcotest prop_weight_symmetric;
          QCheck_alcotest.to_alcotest prop_matches_naive;
        ] );
    ]
