(* Tests for the planar-code (teleportation) comparison model. *)

module S = Autobraid.Scheduler
module P = Qec_planar.Teleport
module T = Qec_surface.Timing
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = T.make ~d:33 ()

let test_runs_and_bounds () =
  let r = P.run timing (B.Qft.circuit 16) in
  check_bool "positive" true (r.S.total_cycles > 0);
  check_bool "CP bound" true (r.S.critical_path_cycles <= r.S.total_cycles);
  check_int "no swaps" 0 r.S.swaps_inserted

let test_teleport_round_cost () =
  (* one CX on an otherwise empty circuit: exactly one d-cycle round *)
  let c = Qec_circuit.Circuit.create ~num_qubits:2 [ Qec_circuit.Gate.Cx (0, 1) ] in
  let r = P.run timing c in
  check_int "one round" 1 r.S.rounds;
  check_int "d cycles (not 2d)" 33 r.S.total_cycles

let test_planar_faster_than_braiding_rounds () =
  (* with the same ordering machinery, teleport rounds are half a braid:
     planar total is at most the braiding (sp) total, typically ~half *)
  List.iter
    (fun c ->
      let braid = S.run ~options:{ S.default_options with variant = S.Sp } timing c in
      let tele = P.run timing c in
      check_bool
        (Qec_circuit.Circuit.name c ^ ": planar <= braiding")
        true
        (tele.S.total_cycles <= braid.S.total_cycles))
    [ B.Qft.circuit 16; B.Ising.circuit 16; B.Qaoa.circuit 16 ]

let test_stack_no_worse_than_greedy () =
  let stack = P.run timing (B.Qft.circuit 36) in
  let greedy =
    P.run
      ~options:{ P.default_options with ordering = P.Greedy_shortest }
      timing (B.Qft.circuit 36)
  in
  check_bool "stack <= greedy" true
    (stack.S.total_cycles <= greedy.S.total_cycles)

let test_physical_overhead () =
  let braid =
    Qec_surface.Resources.total_physical_qubits ~num_logical:100 ~d:33
  in
  let planar = P.physical_qubits ~num_logical:100 ~d:33 () in
  check_bool "planar costs more" true (planar > braid);
  check_int "default factor 1.5" (int_of_float (ceil (1.5 *. float_of_int braid))) planar;
  let double = P.physical_qubits ~overhead_factor:2.0 ~num_logical:100 ~d:33 () in
  check_bool "factor scales" true (double > planar)

let test_distance_for_budget () =
  let braid_budget =
    Qec_surface.Resources.total_physical_qubits ~num_logical:100 ~d:33
  in
  (match P.distance_for_budget ~num_logical:100 ~budget:braid_budget () with
  | Some d ->
    check_bool "planar affords smaller d" true (d < 33);
    check_bool "fits" true
      (P.physical_qubits ~num_logical:100 ~d () <= braid_budget);
    check_bool "next step does not fit" true
      (P.physical_qubits ~num_logical:100 ~d:(d + 2) () > braid_budget)
  | None -> Alcotest.fail "expected a distance");
  Alcotest.(check (option int))
    "tiny budget" None
    (P.distance_for_budget ~num_logical:100 ~budget:10 ())

let test_deterministic () =
  let a = P.run timing (B.Qaoa.circuit 16) in
  let b = P.run timing (B.Qaoa.circuit 16) in
  check_int "same" a.S.total_cycles b.S.total_cycles

(* Known answers at d = 5, pinned from the stand-alone teleport loop this
   model replaced. *)
let test_known_answer_cycles () =
  let timing = T.make ~d:5 () in
  let greedy = { P.default_options with ordering = P.Greedy_shortest } in
  let cycles ?options name =
    (P.run ?options timing (B.Registry.build name)).S.total_cycles
  in
  check_int "qft50 stack" 1_120 (cycles "qft50");
  check_int "qft50 greedy" 1_145 (cycles ~options:greedy "qft50");
  check_int "urf2_277 stack" 56_350 (cycles "urf2_277")

let () =
  Alcotest.run "planar"
    [
      ( "teleport",
        [
          Alcotest.test_case "runs" `Quick test_runs_and_bounds;
          Alcotest.test_case "round cost" `Quick test_teleport_round_cost;
          Alcotest.test_case "faster rounds" `Quick test_planar_faster_than_braiding_rounds;
          Alcotest.test_case "stack order" `Quick test_stack_no_worse_than_greedy;
          Alcotest.test_case "physical overhead" `Quick test_physical_overhead;
          Alcotest.test_case "budget distance" `Quick test_distance_for_budget;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "known-answer cycles" `Quick test_known_answer_cycles;
        ] );
    ]
