(* End-to-end tests of the AutoBraid scheduler invariants. *)

module S = Autobraid.Scheduler
module IL = Autobraid.Initial_layout
module T = Qec_surface.Timing
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = T.make ~d:33 ()

let run ?options c = S.run ?options timing c

let test_result_accounting () =
  let r = run (B.Qft.circuit 9) in
  check_int "qubits" 9 r.S.num_qubits;
  check_int "gates" (9 + 36) r.S.num_gates;
  check_int "two-qubit" 36 r.S.num_two_qubit;
  check_int "lattice side" 3 r.S.lattice_side;
  check_bool "rounds positive" true (r.S.rounds > 0);
  check_bool "braid rounds <= rounds" true (r.S.braid_rounds <= r.S.rounds);
  check_bool "compile time recorded" true (r.S.compile_time_s >= 0.)

let test_cp_is_lower_bound () =
  List.iter
    (fun c ->
      let r = run c in
      check_bool
        (C.name c ^ ": CP <= total")
        true
        (r.S.critical_path_cycles <= r.S.total_cycles))
    [ B.Qft.circuit 12; B.Bv.circuit 16; B.Ising.circuit 12; B.Qaoa.circuit 12 ]

let test_cycles_consistent_with_rounds () =
  let r = run (B.Qft.circuit 9) in
  (* every round costs d, 2d or 6d cycles; totals must be expressible *)
  let d = 33 in
  let local_rounds = r.S.rounds - r.S.braid_rounds - r.S.swap_layers in
  check_int "cycle ledger"
    ((local_rounds * d) + (r.S.braid_rounds * 2 * d) + (r.S.swap_layers * 6 * d))
    r.S.total_cycles

let test_serial_circuits_hit_cp () =
  (* BV and CC have no CX parallelism: any sane scheduler achieves CP *)
  List.iter
    (fun c ->
      let r = run c in
      check_int (C.name c ^ " = CP") r.S.critical_path_cycles r.S.total_cycles)
    [ B.Bv.circuit 25; B.Cc.circuit 25 ]

let test_ising_hits_cp () =
  let r = run (B.Ising.circuit ~steps:4 16) in
  check_int "ising = CP" r.S.critical_path_cycles r.S.total_cycles

let test_deterministic () =
  let r1 = run (B.Qaoa.circuit 16) and r2 = run (B.Qaoa.circuit 16) in
  check_int "same cycles" r1.S.total_cycles r2.S.total_cycles;
  check_int "same rounds" r1.S.rounds r2.S.rounds

let test_accepts_wide_gates () =
  (* scheduler lowers Toffoli/MCT/barriers itself *)
  let c =
    C.create ~num_qubits:5
      G.[ H 0; Ccx (0, 1, 2); Barrier [ 0; 1 ]; Mcx ([ 0; 1; 2 ], 3); Swap (3, 4) ]
  in
  let r = run c in
  check_bool "lowered gate count grows" true (r.S.num_gates > 5);
  check_bool "schedules" true (r.S.total_cycles > 0)

let test_variant_sp_no_swaps () =
  let options = { S.default_options with variant = S.Sp } in
  let r = run ~options (B.Qft.circuit 25) in
  check_int "sp never swaps" 0 r.S.swap_layers;
  check_int "sp never inserts" 0 r.S.swaps_inserted

let test_threshold_zero_equals_sp () =
  let sp = run ~options:{ S.default_options with variant = S.Sp } (B.Qft.circuit 20) in
  let p0 =
    run ~options:{ S.default_options with variant = S.Full; threshold_p = 0. }
      (B.Qft.circuit 20)
  in
  check_int "p=0 means no optimizer" sp.S.total_cycles p0.S.total_cycles;
  check_int "no swaps at p=0" 0 p0.S.swap_layers

let test_invalid_threshold () =
  check_bool "p = 1 rejected" true
    (match
       run ~options:{ S.default_options with threshold_p = 1.0 } (B.Bv.circuit 4)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_swap_layer_accounting () =
  (* force heavy swapping with an adversarial threshold *)
  let options = { S.default_options with threshold_p = 0.9 } in
  let r = run ~options (B.Qft.circuit 36) in
  check_bool "swap layers consistent" true
    (r.S.swap_layers = 0 || r.S.swaps_inserted >= r.S.swap_layers)

let test_utilization_bounds () =
  let r = run (B.Qft.circuit 25) in
  check_bool "avg in [0,1]" true
    (r.S.avg_utilization >= 0. && r.S.avg_utilization <= 1.);
  check_bool "peak >= avg" true (r.S.peak_utilization >= r.S.avg_utilization -. 1e-9)

let test_time_conversions () =
  let r = run (B.Bv.circuit 9) in
  Alcotest.(check (float 1e-6))
    "us" (float_of_int r.S.total_cycles *. 2.2) (S.time_us timing r);
  Alcotest.(check (float 1e-6))
    "cp us"
    (float_of_int r.S.critical_path_cycles *. 2.2)
    (S.critical_path_us timing r)

let test_run_best_p () =
  let best, curve = S.run_best_p ~grid_points:[ 0.0; 0.3; 0.6 ] timing (B.Qft.circuit 16) in
  check_int "curve points" 3 (List.length curve);
  List.iter
    (fun (_, r) -> check_bool "best is min" true (best.S.total_cycles <= r.S.total_cycles))
    curve

(* One clock per entry point: the best result's compile time is the wall
   time of the whole sweep (preparation plus every threshold's drive),
   not the preparation plus one drive. *)
let test_best_p_compile_time_is_the_call () =
  let t0 = Unix.gettimeofday () in
  let best, _ = S.run_best_p timing (B.Qft.circuit 64) in
  let wall = Unix.gettimeofday () -. t0 in
  check_bool "inside the call" true (best.S.compile_time_s <= wall);
  check_bool "the whole call" true (best.S.compile_time_s >= 0.9 *. wall)

(* A drive starts from a copy of the prepared placement, so SWAP layers
   in one drive leave the preparation intact for the next. *)
let test_prepare_once_drive_many () =
  let options = { S.default_options with threshold_p = 0.9 } in
  let c = B.Qft.circuit 36 in
  let prep = S.prepare options c in
  let drive () =
    { (S.drive (S.braid_policy timing) ~options timing prep) with
      S.compile_time_s = 0. }
  in
  let first = drive () in
  check_bool "swaps happen" true (first.S.swap_layers > 0);
  check_bool "second drive identical" true (drive () = first);
  check_bool "equals run" true
    ({ (run ~options c) with S.compile_time_s = 0. } = first)

let test_initial_methods_all_work () =
  List.iter
    (fun m ->
      let options = { S.default_options with initial = m } in
      let r = run ~options (B.Qaoa.circuit 12) in
      check_bool "schedules" true (r.S.total_cycles >= r.S.critical_path_cycles))
    [ IL.Identity; IL.Partitioned; IL.Annealed ]

let test_single_qubit_only_circuit () =
  let c = C.create ~num_qubits:4 G.[ H 0; T 1; H 2; X 3; H 0 ] in
  let r = run c in
  (* H0;T1;H2;X3 in one local round, second H0 in another: 2 rounds of d *)
  check_int "two local rounds" (2 * 33) r.S.total_cycles;
  check_int "no braid rounds" 0 r.S.braid_rounds

let test_empty_circuit () =
  let c = C.create ~num_qubits:3 [] in
  let r = run c in
  check_int "zero cycles" 0 r.S.total_cycles;
  check_int "zero rounds" 0 r.S.rounds

let test_two_qubit_lattice () =
  (* smallest interesting lattice: 2 qubits -> 2x2 grid *)
  let c = C.create ~num_qubits:2 [ G.Cx (0, 1) ] in
  let r = run c in
  check_int "side" 2 r.S.lattice_side;
  check_int "one braid round" 1 r.S.braid_rounds

(* Safety property: cycles ledger holds on random lowered circuits. *)
let random_circuit =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* gs =
      list_size (int_range 1 60)
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* kind = int_range 0 2 in
         return (a, b, kind))
    in
    let gates =
      List.map
        (fun (a, b, kind) ->
          if kind = 0 || a = b then G.H a else G.Cx (a, b))
        gs
    in
    return (C.create ~num_qubits:n gates))

let prop_ledger =
  QCheck.Test.make ~name:"cycle ledger for random circuits" ~count:50
    (QCheck.make random_circuit) (fun c ->
      let r = run c in
      let d = 33 in
      let local_rounds = r.S.rounds - r.S.braid_rounds - r.S.swap_layers in
      (local_rounds * d) + (r.S.braid_rounds * 2 * d)
      + (r.S.swap_layers * 6 * d)
      = r.S.total_cycles
      && r.S.critical_path_cycles <= r.S.total_cycles)

let () =
  Alcotest.run "scheduler"
    [
      ( "invariants",
        [
          Alcotest.test_case "accounting" `Quick test_result_accounting;
          Alcotest.test_case "CP lower bound" `Quick test_cp_is_lower_bound;
          Alcotest.test_case "cycle ledger" `Quick test_cycles_consistent_with_rounds;
          Alcotest.test_case "serial = CP" `Quick test_serial_circuits_hit_cp;
          Alcotest.test_case "ising = CP" `Quick test_ising_hits_cp;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "wide gates" `Quick test_accepts_wide_gates;
          Alcotest.test_case "utilization" `Quick test_utilization_bounds;
          Alcotest.test_case "time conversions" `Quick test_time_conversions;
          QCheck_alcotest.to_alcotest prop_ledger;
        ] );
      ( "options",
        [
          Alcotest.test_case "sp no swaps" `Quick test_variant_sp_no_swaps;
          Alcotest.test_case "p=0 equals sp" `Quick test_threshold_zero_equals_sp;
          Alcotest.test_case "invalid threshold" `Quick test_invalid_threshold;
          Alcotest.test_case "swap accounting" `Quick test_swap_layer_accounting;
          Alcotest.test_case "best p sweep" `Quick test_run_best_p;
          Alcotest.test_case "best p compile time" `Quick
            test_best_p_compile_time_is_the_call;
          Alcotest.test_case "prepare once, drive many" `Quick
            test_prepare_once_drive_many;
          Alcotest.test_case "initial methods" `Quick test_initial_methods_all_work;
        ] );
      ( "edges",
        [
          Alcotest.test_case "single-qubit only" `Quick test_single_qubit_only_circuit;
          Alcotest.test_case "empty" `Quick test_empty_circuit;
          Alcotest.test_case "two qubits" `Quick test_two_qubit_lattice;
        ] );
    ]
