(* Tests for the dependency DAG, critical path, and the frontier. *)

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit
module Dag = Qec_circuit.Dag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* 0: H q0 | 1: CX q0,q1 | 2: H q2 | 3: CX q1,q2 | 4: H q0 *)
let sample () =
  Dag.of_circuit
    (C.create ~num_qubits:3 G.[ H 0; Cx (0, 1); H 2; Cx (1, 2); H 0 ])

let test_preds_succs () =
  let d = sample () in
  check_ilist "preds of 0" [] (Dag.preds d 0);
  check_ilist "preds of 1" [ 0 ] (Dag.preds d 1);
  check_ilist "preds of 3" [ 1; 2 ] (Dag.preds d 3);
  check_ilist "succs of 1" [ 3; 4 ] (Dag.succs d 1);
  check_ilist "succs of 4" [] (Dag.succs d 4)

let test_levels_and_depth () =
  let d = sample () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 0; 2; 2 |] (Dag.asap_levels d);
  check_int "depth" 3 (Dag.depth d)

let test_layers () =
  let d = sample () in
  let layers = Dag.layers d in
  check_int "layer count" 3 (Array.length layers);
  check_ilist "layer 0" [ 0; 2 ] layers.(0);
  check_ilist "layer 1" [ 1 ] layers.(1);
  check_ilist "layer 2" [ 3; 4 ] layers.(2)

let test_shared_qubit_dedup () =
  (* Two gates sharing both qubits should create one dependency edge. *)
  let d =
    Dag.of_circuit (C.create ~num_qubits:2 G.[ Cx (0, 1); Cx (1, 0) ])
  in
  check_ilist "single pred" [ 0 ] (Dag.preds d 1);
  check_ilist "single succ" [ 1 ] (Dag.succs d 0)

let cost g = if G.is_two_qubit g then 2 else 1

let test_critical_path () =
  let d = sample () in
  (* longest chain: H0(1) -> CX01(2) -> CX12(2) = 5 *)
  check_int "weighted CP" 5 (Dag.critical_path ~cost d);
  check_int "unit CP = depth" 3 (Dag.critical_path ~cost:(fun _ -> 1) d)

let test_critical_path_empty () =
  let d = Dag.of_circuit (C.create ~num_qubits:1 []) in
  check_int "empty" 0 (Dag.critical_path ~cost d);
  check_int "depth" 0 (Dag.depth d)

let test_two_qubit_histogram () =
  let d =
    Dag.of_circuit
      (C.create ~num_qubits:4 G.[ Cx (0, 1); Cx (2, 3); Cx (0, 2) ])
  in
  (* layer 0 has 2 concurrent CX, layer 1 has 1 *)
  Alcotest.(check (list (pair int int)))
    "hist" [ (1, 1); (2, 1) ]
    (Dag.two_qubit_layer_histogram d)

let test_frontier_lifecycle () =
  let d = sample () in
  let f = Dag.Frontier.create d in
  check_bool "not done" false (Dag.Frontier.is_done f);
  check_int "remaining" 5 (Dag.Frontier.remaining f);
  check_ilist "initial ready" [ 0; 2 ] (Dag.Frontier.ready f);
  Dag.Frontier.complete f 0;
  check_ilist "after 0" [ 1; 2 ] (Dag.Frontier.ready f);
  Dag.Frontier.complete f 2;
  Dag.Frontier.complete f 1;
  check_ilist "after 1" [ 3; 4 ] (Dag.Frontier.ready f);
  Dag.Frontier.complete f 3;
  Dag.Frontier.complete f 4;
  check_bool "done" true (Dag.Frontier.is_done f);
  check_int "none left" 0 (Dag.Frontier.remaining f)

let test_frontier_not_ready () =
  let d = sample () in
  let f = Dag.Frontier.create d in
  Alcotest.check_raises "complete unready"
    (Invalid_argument "Frontier.complete: gate 3 not ready") (fun () ->
      Dag.Frontier.complete f 3)

(* Random circuit generator for properties. *)
let random_circuit_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* gates =
      list_size (int_range 0 40)
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* k = int_range 0 2 in
         return (a, b, k))
    in
    let gs =
      List.filter_map
        (fun (a, b, k) ->
          match k with
          | 0 -> Some (G.H a)
          | 1 -> if a <> b then Some (G.Cx (a, b)) else Some (G.T a)
          | _ -> Some (G.T a))
        gates
    in
    return (C.create ~num_qubits:n gs))

let arbitrary_circuit = QCheck.make random_circuit_gen

let prop_frontier_schedules_all =
  QCheck.Test.make ~name:"frontier drains every gate exactly once" ~count:200
    arbitrary_circuit (fun c ->
      let d = Dag.of_circuit c in
      let f = Dag.Frontier.create d in
      let done_count = ref 0 in
      while not (Dag.Frontier.is_done f) do
        match Dag.Frontier.ready f with
        | [] -> failwith "stuck frontier"
        | g :: _ ->
          Dag.Frontier.complete f g;
          incr done_count
      done;
      !done_count = C.length c)

(* Drive the frontier to the end, completing each whole ready set
   highest id first, and record the completion order. A frontier that
   reports no ready gate before it is done fails the property instead of
   looping. Every gate must complete once, and the gates on each qubit in
   program order. *)
let prop_frontier_respects_program_order =
  QCheck.Test.make ~name:"per-qubit program order is preserved" ~count:200
    arbitrary_circuit (fun c ->
      let d = Dag.of_circuit c in
      let f = Dag.Frontier.create d in
      let completed = ref [] in
      while not (Dag.Frontier.is_done f) do
        match Dag.Frontier.ready f with
        | [] -> QCheck.Test.fail_report "no ready gate before the frontier is done"
        | ready ->
          List.iter
            (fun i ->
              completed := i :: !completed;
              Dag.Frontier.complete f i)
            (List.rev ready)
      done;
      let completed = List.rev !completed in
      let last = Array.make (C.num_qubits c) (-1) in
      let completion_in_order =
        List.sort compare completed = List.init (C.length c) Fun.id
        && List.for_all
             (fun i ->
               List.for_all
                 (fun q ->
                   let in_order = i > last.(q) in
                   last.(q) <- i;
                   in_order)
                 (G.qubits (C.gate c i)))
             completed
      in
      (* ASAP levels strictly increase along each qubit's gate sequence. *)
      let levels = Dag.asap_levels d in
      let levels_in_order = ref true in
      let last_level = Array.make (C.num_qubits c) (-1) in
      C.iter
        (fun i g ->
          List.iter
            (fun q ->
              if levels.(i) <= last_level.(q) then levels_in_order := false;
              last_level.(q) <- levels.(i))
            (G.qubits g))
        c;
      completion_in_order && !levels_in_order)

(* Differential: the bitset frontier must expose byte-identical ready
   lists to the Int_set reference at every step, whichever completion
   order the scheduler picks. *)
let prop_frontier_matches_reference =
  QCheck.Test.make ~name:"bitset frontier = reference frontier" ~count:200
    QCheck.(pair arbitrary_circuit (list small_nat))
    (fun (c, picks) ->
      let d = Dag.of_circuit c in
      let f = Dag.Frontier.create d in
      let r = Dag.Frontier.Reference.create d in
      let same () =
        Dag.Frontier.ready f = Dag.Frontier.Reference.ready r
        && Dag.Frontier.remaining f = Dag.Frontier.Reference.remaining r
        && Dag.Frontier.is_done f = Dag.Frontier.Reference.is_done r
      in
      let iter_ready_agrees () =
        let acc = ref [] in
        Dag.Frontier.iter_ready (fun i -> acc := i :: !acc) f;
        List.rev !acc = Dag.Frontier.ready f
      in
      let picks = ref picks in
      let next_pick n =
        match !picks with
        | p :: rest ->
          picks := rest;
          p mod n
        | [] -> 0
      in
      let ok = ref (same () && iter_ready_agrees ()) in
      while !ok && not (Dag.Frontier.is_done f) do
        let ready = Dag.Frontier.ready f in
        let g = List.nth ready (next_pick (List.length ready)) in
        Dag.Frontier.complete f g;
        Dag.Frontier.Reference.complete r g;
        ok := same () && iter_ready_agrees ()
      done;
      !ok)

(* The ready window on circuits wider than three 63-bit bitset words.
   Each circuit is a random block on [n] qubits, a gather chain CX(q, 0)
   for every q >= 2, a neck of at least 63 CX(0, 1), a scatter chain
   CX(0, q) for every q >= 2, and a random tail. Gather and scatter tie
   every other qubit to q0 on both sides of the neck, so inside the neck
   the ready set is a single gate: completing it empties the bitset, and
   its successor refills it above the window's top. The neck covers a
   whole word, so one such successor sits in a higher word. After every
   [complete], [iter_ready] and [ready] must agree with the reference;
   the property also checks that both window events really happened. *)
let wide_circuit_gen =
  QCheck.Gen.(
    let random_block n len =
      list_repeat len
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* k = int_range 0 2 in
         return
           (match k with
           | 0 -> G.H a
           | 1 when a <> b -> G.Cx (a, b)
           | _ -> G.T a))
    in
    let* n = int_range 3 6 in
    let* head = int_range 100 160 >>= random_block n in
    let* neck = int_range 63 90 in
    let* tail = int_range 30 80 >>= random_block n in
    let gather = List.init (n - 2) (fun i -> G.Cx (i + 2, 0)) in
    let scatter = List.init (n - 2) (fun i -> G.Cx (0, i + 2)) in
    return
      (C.create ~num_qubits:n
         (head @ gather
         @ List.init neck (fun _ -> G.Cx (0, 1))
         @ scatter @ tail)))

let prop_wide_frontier_window =
  QCheck.Test.make ~name:"windowed frontier = reference (> 3 words)"
    ~count:100
    QCheck.(pair (make wide_circuit_gen) (list small_nat))
    (fun (c, picks) ->
      let d = Dag.of_circuit c in
      let f = Dag.Frontier.create d in
      let r = Dag.Frontier.Reference.create d in
      let iterated () =
        let acc = ref [] in
        Dag.Frontier.iter_ready (fun i -> acc := i :: !acc) f;
        List.rev !acc
      in
      let agrees () =
        let expect = Dag.Frontier.Reference.ready r in
        iterated () = expect && Dag.Frontier.ready f = expect
      in
      let picks = ref picks in
      let next_pick n =
        match !picks with
        | p :: rest ->
          picks := rest;
          p mod n
        | [] -> 0
      in
      let above_top = ref false and refilled_higher_word = ref false in
      let ok = ref (C.length c > 3 * 63 && agrees ()) in
      while !ok && not (Dag.Frontier.is_done f) do
        let before = Dag.Frontier.Reference.ready r in
        let top = List.fold_left max (-1) before in
        let g = List.nth before (next_pick (List.length before)) in
        Dag.Frontier.complete f g;
        Dag.Frontier.Reference.complete r g;
        let after = Dag.Frontier.Reference.ready r in
        if List.exists (fun i -> i > top) after then above_top := true;
        if before = [ g ] && List.exists (fun i -> i / 63 > g / 63) after
        then refilled_higher_word := true;
        ok := agrees ()
      done;
      !ok && !above_top && !refilled_higher_word
      && iterated () = [] && Dag.Frontier.ready f = [])

let prop_critical_path_bounds =
  QCheck.Test.make ~name:"depth <= CP <= sum of costs" ~count:200
    arbitrary_circuit (fun c ->
      let d = Dag.of_circuit c in
      let cp = Dag.critical_path ~cost d in
      let total =
        Array.fold_left (fun acc g -> acc + cost g) 0 (C.gates c)
      in
      Dag.depth d <= cp && cp <= total)

let () =
  Alcotest.run "dag"
    [
      ( "structure",
        [
          Alcotest.test_case "preds/succs" `Quick test_preds_succs;
          Alcotest.test_case "levels/depth" `Quick test_levels_and_depth;
          Alcotest.test_case "layers" `Quick test_layers;
          Alcotest.test_case "dedup shared qubits" `Quick test_shared_qubit_dedup;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "empty" `Quick test_critical_path_empty;
          Alcotest.test_case "2q histogram" `Quick test_two_qubit_histogram;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "lifecycle" `Quick test_frontier_lifecycle;
          Alcotest.test_case "not ready" `Quick test_frontier_not_ready;
          QCheck_alcotest.to_alcotest prop_frontier_schedules_all;
          QCheck_alcotest.to_alcotest prop_frontier_respects_program_order;
          QCheck_alcotest.to_alcotest prop_frontier_matches_reference;
          QCheck_alcotest.to_alcotest prop_wide_frontier_window;
          QCheck_alcotest.to_alcotest prop_critical_path_bounds;
        ] );
    ]
