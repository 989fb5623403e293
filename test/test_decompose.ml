(* Tests for gate lowering: SWAP, Toffoli, MCT, and the full pipeline. *)

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit
module D = Qec_circuit.Decompose

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_strip_barriers () =
  let c = C.create ~num_qubits:2 G.[ H 0; Barrier [ 0; 1 ]; Cx (0, 1) ] in
  let c' = D.strip_barriers c in
  check_int "length" 2 (C.length c');
  check_int "no barriers" 0
    (C.count_if (function G.Barrier _ -> true | _ -> false) c')

let test_swap_expansion () =
  let c = C.create ~num_qubits:2 [ G.Swap (0, 1) ] in
  let c' = D.swaps_to_cx c in
  check_int "3 gates" 3 (C.length c');
  Alcotest.(check (list string))
    "all cx" [ "cx"; "cx"; "cx" ]
    (Array.to_list (Array.map G.name (C.gates c')));
  check_bool "alternating directions" true
    (G.equal (C.gate c' 0) (G.Cx (0, 1))
    && G.equal (C.gate c' 1) (G.Cx (1, 0))
    && G.equal (C.gate c' 2) (G.Cx (0, 1)))

let test_ccx_network () =
  let c = C.create ~num_qubits:3 [ G.Ccx (0, 1, 2) ] in
  let c' = D.ccx_to_clifford_t c in
  check_int "15 gates" 15 (C.length c');
  check_int "6 CX" 6 (C.count_if (function G.Cx _ -> true | _ -> false) c');
  check_int "7 T-like" 7
    (C.count_if (function G.T _ | G.Tdg _ -> true | _ -> false) c');
  check_int "2 H" 2 (C.count_if (function G.H _ -> true | _ -> false) c')

let only_narrow c =
  C.count_if (fun g -> not (G.is_single_qubit g || G.is_two_qubit g)) c = 0

let test_mcx_free_small () =
  let gs = D.mcx_gates [ 0; 1; 2 ] 3 in
  let c = C.create ~num_qubits:4 gs in
  (* contains Ccx and 2-qubit controlled roots only *)
  check_bool "no mcx left" true
    (C.count_if (function G.Mcx _ -> true | _ -> false) c = 0);
  check_bool "nonempty" true (C.length c > 0)

let test_mcx_free_arity_errors () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Decompose.mcx_gates: use Cx/Ccx for < 3 controls")
    (fun () -> ignore (D.mcx_gates [ 0; 1 ] 2));
  Alcotest.check_raises "too many"
    (Invalid_argument
       "Decompose.mcx_gates: ancilla-free recursion capped at 8 controls")
    (fun () -> ignore (D.mcx_gates [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] 9))

let test_mcx_ladder () =
  let gs = D.mcx_gates ~ancillas:[ 10; 11 ] [ 0; 1; 2; 3 ] 4 in
  let c = C.create ~num_qubits:12 gs in
  (* k = 4 controls: 2(k-2)+1 = 5 Toffolis, no bare CX *)
  check_int "ccx count" 5
    (C.count_if (function G.Ccx _ -> true | _ -> false) c);
  check_int "cx count" 0 (C.count_if (function G.Cx _ -> true | _ -> false) c);
  (* uncompute mirrors compute *)
  let gates = C.gates c in
  check_bool "palindrome around middle" true
    (G.equal gates.(0) gates.(Array.length gates - 1))

let test_mcx_ladder_errors () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Decompose.mcx_gates: ancilla overlaps operands")
    (fun () -> ignore (D.mcx_gates ~ancillas:[ 0 ] [ 0; 1; 2 ] 3));
  Alcotest.check_raises "not enough"
    (Invalid_argument "Decompose.mcx_gates: need at least k-2 ancillas")
    (fun () -> ignore (D.mcx_gates ~ancillas:[ 9 ] [ 0; 1; 2; 3 ] 4))

let test_pipeline_output_narrow () =
  let c =
    C.create ~num_qubits:8
      G.[
          H 0;
          Barrier [ 0; 1 ];
          Swap (1, 2);
          Ccx (0, 1, 2);
          Mcx ([ 0; 1; 2; 3 ], 4);
          Measure 0;
        ]
  in
  let c' = D.to_scheduler_gates c in
  check_bool "only narrow gates" true (only_narrow c');
  check_int "no barriers" 0
    (C.count_if (function G.Barrier _ -> true | _ -> false) c');
  check_int "no swaps" 0
    (C.count_if (function G.Swap _ -> true | _ -> false) c')

let test_pipeline_idempotent () =
  let c = C.create ~num_qubits:4 G.[ H 0; Cx (0, 1); Ccx (0, 1, 2) ] in
  let once = D.to_scheduler_gates c in
  let twice = D.to_scheduler_gates once in
  check_bool "idempotent" true (C.gates once = C.gates twice)

(* The lowered circuit must touch the same set of qubits as its MCT
   source (controls, target), never others. *)
let prop_mcx_qubit_support =
  QCheck.Test.make ~name:"mcx lowering touches only its operands" ~count:50
    QCheck.(int_range 3 6)
    (fun k ->
      let controls = List.init k (fun i -> i) in
      let target = k in
      let gs = D.mcx_gates controls target in
      let touched =
        List.concat_map G.qubits gs |> List.sort_uniq compare
      in
      List.for_all (fun q -> q <= target) touched
      && List.mem target touched)

let prop_swap_preserves_two_qubit_pairs =
  QCheck.Test.make ~name:"swap lowering keeps operand pair" ~count:100
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let c = C.create ~num_qubits:10 [ G.Swap (a, b) ] in
      let c' = D.swaps_to_cx c in
      Array.for_all
        (fun g ->
          match G.two_qubit_operands g with
          | Some (x, y) -> (x = a && y = b) || (x = b && y = a)
          | None -> false)
        (C.gates c'))

(* The lowering as four whole-circuit passes, in the order
   to_scheduler_gates applies the rewrites per gate. *)
let four_pass c =
  c |> D.strip_barriers |> D.lower_mcx |> D.ccx_to_clifford_t |> D.swaps_to_cx

(* Random circuits on 8 qubits mixing every gate kind the lowering
   rewrites with ones it keeps. Operands are distinct prefixes of a
   shuffled qubit order. *)
let lowering_gate_gen =
  QCheck.Gen.(
    let* qs = shuffle_l (List.init 8 Fun.id) in
    let nth = List.nth qs in
    let angle = map (fun i -> float_of_int (i - 4) /. 3.) (int_range 0 8) in
    frequency
      [
        (2, return (G.H (nth 0)));
        (1, return (G.Tdg (nth 0)));
        (1, map (fun x -> G.Rz (nth 0, x)) angle);
        (1, return (G.Measure (nth 0)));
        (3, return (G.Cx (nth 0, nth 1)));
        (1, return (G.Cz (nth 0, nth 1)));
        (1, map (fun x -> G.Cphase (nth 0, nth 1, x)) angle);
        (2, return (G.Swap (nth 0, nth 1)));
        (2, return (G.Ccx (nth 0, nth 1, nth 2)));
        ( 1,
          map
            (fun k -> G.Mcx (List.filteri (fun i _ -> i < k) qs, nth k))
            (int_range 3 6) );
        ( 1,
          map
            (fun k -> G.Barrier (List.filteri (fun i _ -> i < k) qs))
            (int_range 1 8) );
      ])

let prop_one_pass_equals_four_pass =
  QCheck.Test.make ~name:"to_scheduler_gates = four-pass composition"
    ~count:300
    (QCheck.make
       ~print:(fun c -> Format.asprintf "%a" C.pp c)
       QCheck.Gen.(
         map
           (C.create ~name:"random" ~num_qubits:8)
           (list_size (int_range 0 40) lowering_gate_gen)))
    (fun c ->
      let one = D.to_scheduler_gates c and four = four_pass c in
      C.name one = C.name four
      && C.num_qubits one = C.num_qubits four
      && C.gates one = C.gates four)

let () =
  Alcotest.run "decompose"
    [
      ( "passes",
        [
          Alcotest.test_case "strip barriers" `Quick test_strip_barriers;
          Alcotest.test_case "swap -> 3 cx" `Quick test_swap_expansion;
          Alcotest.test_case "ccx 15-gate network" `Quick test_ccx_network;
          Alcotest.test_case "mcx ancilla-free" `Quick test_mcx_free_small;
          Alcotest.test_case "mcx arity errors" `Quick test_mcx_free_arity_errors;
          Alcotest.test_case "mcx ladder" `Quick test_mcx_ladder;
          Alcotest.test_case "mcx ladder errors" `Quick test_mcx_ladder_errors;
          Alcotest.test_case "pipeline narrow" `Quick test_pipeline_output_narrow;
          Alcotest.test_case "pipeline idempotent" `Quick test_pipeline_idempotent;
          QCheck_alcotest.to_alcotest prop_mcx_qubit_support;
          QCheck_alcotest.to_alcotest prop_swap_preserves_two_qubit_pairs;
          QCheck_alcotest.to_alcotest prop_one_pass_equals_four_pass;
        ] );
    ]
