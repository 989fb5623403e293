(* Stress and failure-injection tests: extreme lattice occupancies,
   degenerate grids, adversarial layouts, and a full options matrix. *)

module S = Autobraid.Scheduler
module IL = Autobraid.Initial_layout
module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Task = Autobraid.Task
module SF = Autobraid.Stack_finder
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = Qec_surface.Timing.make ~d:33 ()

(* ------------------------------------------------------------------ *)
(* Full lattice: every cell occupied (n = L^2)                          *)

let test_full_lattice_qft () =
  (* 16 qubits on a 4x4 grid: zero spare cells, heavy communication *)
  let r = S.run timing (B.Qft.circuit 16) in
  check_int "no spare cells" 16 (r.S.lattice_side * r.S.lattice_side);
  check_bool "completes" true (r.S.total_cycles >= r.S.critical_path_cycles)

let test_full_lattice_all_sizes () =
  List.iter
    (fun n ->
      let r = S.run timing (B.Qaoa.circuit n) in
      check_bool
        (Printf.sprintf "full lattice n=%d" n)
        true
        (r.S.total_cycles >= r.S.critical_path_cycles))
    [ 4; 16; 36 ]

let test_full_lattice_traced_valid () =
  let _, trace = S.run_traced timing (B.Qft.circuit 25) in
  Certified.expect_clean trace

(* ------------------------------------------------------------------ *)
(* Degenerate grids                                                     *)

let test_single_qubit_circuit () =
  let c = C.create ~num_qubits:1 G.[ H 0; T 0; H 0; Measure 0 ] in
  let r = S.run timing c in
  check_int "1x1 lattice" 1 r.S.lattice_side;
  check_int "4 serial local rounds" (4 * 33) r.S.total_cycles

let test_two_qubit_ping_pong () =
  (* 200 alternating CXs between two qubits on a 2x2 grid *)
  let gates = List.init 200 (fun i -> if i mod 2 = 0 then G.Cx (0, 1) else G.Cx (1, 0)) in
  let c = C.create ~num_qubits:2 gates in
  let r = S.run timing c in
  check_int "one braid per round" 200 r.S.braid_rounds;
  check_int "cp equals total" r.S.critical_path_cycles r.S.total_cycles

let test_wide_shallow () =
  (* 100 qubits, single layer of 50 disjoint CXs *)
  let gates = List.init 50 (fun i -> G.Cx (2 * i, (2 * i) + 1)) in
  let c = C.create ~num_qubits:100 gates in
  let r = S.run timing c in
  check_bool "few rounds" true (r.S.braid_rounds <= 6);
  check_bool "cp is one braid" true (r.S.critical_path_cycles = 66)

(* ------------------------------------------------------------------ *)
(* Fig. 15 generalization: m crossing pairs, static needs ~m/3 rounds   *)

let crossing_pairs_placement m l =
  (* m pairs, each connecting opposite boundary sides through the center:
     generalizes Fig. 9's four pairs. Qubit 2i and 2i+1 are pair i. *)
  let coords = ref [] in
  for i = 0 to m - 1 do
    (* spread endpoints around the boundary, pair i offset by i cells *)
    let a, b =
      match i mod 4 with
      | 0 -> ((0, 1 + (i / 4)), (l - 1, l - 2 - (i / 4)))
      | 1 -> ((1 + (i / 4), 0), (l - 2 - (i / 4), l - 1))
      | 2 -> ((0, l - 2 - (i / 4)), (l - 1, 1 + (i / 4)))
      | _ -> ((1 + (i / 4), l - 1), (l - 2 - (i / 4), 0))
    in
    coords := b :: a :: !coords
  done;
  let coords = List.rev !coords in
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(2 * m) ~cells

let test_crossing_pairs_congestion () =
  let m = 8 in
  let placement = crossing_pairs_placement m 10 in
  let tasks = List.init m (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 }) in
  let router = Router.create (Placement.grid placement) in
  let occ = Occupancy.create (Placement.grid placement) in
  let outcome = SF.find router occ placement tasks in
  (* all crossing near the center: far from all m simultaneously *)
  check_bool "congested" true (List.length outcome.SF.routed < m);
  check_bool "progress" true (List.length outcome.SF.routed >= 1)

let test_crossing_pairs_swaps_help () =
  (* the full scheduler should beat the sp scheduler on this pattern when
     the congestion trigger is active *)
  let m = 8 in
  let gates = List.init m (fun i -> G.Cx (2 * i, (2 * i) + 1)) in
  (* repeat the layer several times so layout improvements amortize *)
  let c = C.create ~num_qubits:(2 * m) (List.concat (List.init 6 (fun _ -> gates))) in
  let sp = S.run ~options:{ S.default_options with variant = S.Sp } timing c in
  let full =
    S.run
      ~options:{ S.default_options with threshold_p = 0.8 }
      timing c
  in
  check_bool "full within sp (swaps may or may not trigger)" true
    (full.S.total_cycles <= sp.S.total_cycles + (6 * 33 * 4))

(* ------------------------------------------------------------------ *)
(* Options matrix: every combination stays valid                        *)

let test_options_matrix () =
  let c = B.Qaoa.circuit 16 in
  List.iter
    (fun variant ->
      List.iter
        (fun initial ->
          List.iter
            (fun retry ->
              List.iter
                (fun compaction ->
                  let options =
                    {
                      S.default_options with
                      variant;
                      initial;
                      retry;
                      compaction;
                      threshold_p = 0.5;
                    }
                  in
                  let result, trace = S.run_traced ~options timing c in
                  Certified.expect_clean trace;
                  check_bool "cp bound" true
                    (result.S.critical_path_cycles <= result.S.total_cycles))
                [ false; true ])
            [ false; true ])
        [ IL.Identity; IL.Bisected; IL.Partitioned; IL.Annealed ])
    [ S.Sp; S.Full ]

(* ------------------------------------------------------------------ *)
(* Long-haul determinism                                                *)

let test_repeated_runs_identical () =
  let c = B.Misc_circuits.random_clifford_t ~seed:77 ~gates:400 20 in
  let results = List.init 3 (fun _ -> (S.run timing c).S.total_cycles) in
  match results with
  | a :: rest -> List.iter (fun b -> check_int "identical" a b) rest
  | [] -> ()

let test_big_sequential_block () =
  (* urf-style: tens of thousands of gates on 8 qubits *)
  let c =
    B.Building_blocks.random_mct ~seed:3 ~qubits:8 ~target_gates:5000
      ~name:"stress_mct" ()
  in
  let r = S.run timing c in
  check_bool "completes" true (r.S.total_cycles > 0);
  check_bool "close to CP (small lattice)" true
    (float_of_int r.S.total_cycles
    <= 1.25 *. float_of_int r.S.critical_path_cycles)

let () =
  Alcotest.run "stress"
    [
      ( "full lattice",
        [
          Alcotest.test_case "qft16 on 4x4" `Quick test_full_lattice_qft;
          Alcotest.test_case "perfect squares" `Quick test_full_lattice_all_sizes;
          Alcotest.test_case "trace valid" `Quick test_full_lattice_traced_valid;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "single qubit" `Quick test_single_qubit_circuit;
          Alcotest.test_case "two-qubit ping-pong" `Quick test_two_qubit_ping_pong;
          Alcotest.test_case "wide shallow" `Quick test_wide_shallow;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "crossing pairs congest" `Quick test_crossing_pairs_congestion;
          Alcotest.test_case "swaps bounded" `Quick test_crossing_pairs_swaps_help;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "all options valid" `Slow test_options_matrix;
          Alcotest.test_case "determinism" `Quick test_repeated_runs_identical;
          Alcotest.test_case "big sequential" `Quick test_big_sequential_block;
        ] );
    ]
