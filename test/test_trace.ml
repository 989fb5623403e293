(* Tests for schedule traces: recording, certification, placement
   replay, rendering, transformed-circuit export. *)

module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module T = Qec_surface.Timing
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = T.make ~d:33 ()

let traced ?options c = S.run_traced ?options timing c

let test_trace_matches_result () =
  let result, trace = traced (B.Qft.circuit 16) in
  check_int "cycles agree" result.S.total_cycles (Trace.cycles timing trace);
  check_int "rounds agree" result.S.rounds (Trace.num_rounds trace);
  check_int "swaps agree" result.S.swaps_inserted (Trace.swap_count trace)

let test_trace_validates () =
  List.iter
    (fun c ->
      let _, trace = traced c in
      Certified.expect_clean trace)
    [
      B.Qft.circuit 16;
      B.Bv.circuit 12;
      B.Ising.circuit ~steps:3 12;
      B.Qaoa.circuit 12;
      B.Building_blocks.by_name "4gt11_8";
    ]

let test_trace_with_swaps_validates () =
  (* force swap layers with an aggressive threshold *)
  let options = { S.default_options with threshold_p = 0.9 } in
  let result, trace = traced ~options (B.Qft.circuit 36) in
  Certified.expect_clean trace;
  check_int "swap layers recorded" result.S.swap_layers
    (List.length
       (List.filter
          (function Trace.Swap_layer _ -> true | _ -> false)
          trace.Trace.rounds))

let test_run_and_run_traced_agree () =
  let c = B.Qaoa.circuit 16 in
  let plain = S.run timing c in
  let result, _ = traced c in
  check_int "identical schedules" plain.S.total_cycles result.S.total_cycles

let test_placement_replay () =
  let options = { S.default_options with threshold_p = 0.9 } in
  let _, trace = traced ~options (B.Qft.circuit 25) in
  let initial = Trace.placement_after trace 0 in
  let final = Trace.final_placement trace in
  check_int "same width"
    (Qec_lattice.Placement.num_qubits initial)
    (Qec_lattice.Placement.num_qubits final);
  if Trace.swap_count trace > 0 then
    check_bool "placement changed" false
      (Qec_lattice.Placement.equal initial final)

let test_validate_catches_reorder () =
  (* swapping two dependent rounds must be caught *)
  let _, trace = traced (B.Bv.circuit 8) in
  let broken = { trace with Trace.rounds = List.rev trace.Trace.rounds } in
  check_bool "reversed trace rejected" false (Certified.clean broken)

let test_validate_catches_duplicates () =
  let _, trace = traced (B.Bv.circuit 8) in
  let broken =
    { trace with Trace.rounds = trace.Trace.rounds @ trace.Trace.rounds }
  in
  check_bool "duplicated trace rejected" false (Certified.clean broken)

let test_validate_catches_missing () =
  let _, trace = traced (B.Bv.circuit 8) in
  let broken =
    match trace.Trace.rounds with
    | _ :: rest -> { trace with Trace.rounds = rest }
    | [] -> trace
  in
  check_bool "truncated trace rejected" false (Certified.clean broken)

let test_round_rendering () =
  let _, trace = traced (B.Qft.circuit 9) in
  let k =
    (* find a braid round *)
    let rec go i = function
      | Trace.Braid _ :: _ -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> 0
    in
    go 0 trace.Trace.rounds
  in
  let s = Trace.round_to_string trace k in
  check_bool "mentions braids" true (String.length s > 50);
  check_bool "has lattice art" true (String.contains s '+')

let test_transformed_circuit () =
  let options = { S.default_options with threshold_p = 0.9 } in
  let result, trace = traced ~options (B.Qft.circuit 25) in
  let out = Trace.transformed_circuit trace in
  (* every original gate appears, plus 1 swap gate per inserted swap *)
  check_int "gate count"
    (result.S.num_gates + result.S.swaps_inserted)
    (C.length out);
  check_int "swap gates"
    result.S.swaps_inserted
    (C.count_if (function G.Swap _ -> true | _ -> false) out);
  (* the transformed circuit round-trips through the QASM printer *)
  let reparsed = Qec_qasm.Frontend.of_string (Qec_qasm.Printer.to_string out) in
  check_int "round trip survives" (C.length out) (C.length reparsed)

let test_render_grid_basics () =
  let grid = Qec_lattice.Grid.create 3 in
  let placement = Qec_lattice.Placement.identity grid ~num_qubits:4 in
  let path =
    Qec_lattice.Path.of_vertices grid
      [ Qec_lattice.Grid.vertex_id grid ~x:1 ~y:1;
        Qec_lattice.Grid.vertex_id grid ~x:2 ~y:1 ]
  in
  let s = Qec_lattice.Render.grid_to_string ~paths:[ path ] ~placement grid in
  check_bool "marks path vertices" true (String.contains s '#');
  check_bool "marks path edges" true (String.contains s '=');
  check_bool "labels qubits" true (String.contains s 'q');
  check_bool "shows empty cells" true (String.contains s '.');
  (* 4 vertex rows + 3 cell rows *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "row count" 7 (List.length lines)

(* Property: every recorded trace validates, across random circuits. *)
let random_circuit =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* gs =
      list_size (int_range 1 50)
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* kind = int_range 0 2 in
         return (a, b, kind))
    in
    let gates =
      List.map
        (fun (a, b, kind) -> if kind = 0 || a = b then G.H a else G.Cx (a, b))
        gs
    in
    return (C.create ~num_qubits:n gates))

let prop_traces_validate =
  QCheck.Test.make ~name:"recorded traces always validate" ~count:60
    (QCheck.make random_circuit) (fun c ->
      let _, trace = traced c in
      Certified.clean trace)

let prop_traces_validate_with_swaps =
  QCheck.Test.make ~name:"traces with aggressive swapping" ~count:30
    (QCheck.make random_circuit) (fun c ->
      let options = { S.default_options with threshold_p = 0.9 } in
      let _, trace = traced ~options c in
      Certified.clean trace)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "matches result" `Quick test_trace_matches_result;
          Alcotest.test_case "validates" `Quick test_trace_validates;
          Alcotest.test_case "validates with swaps" `Quick test_trace_with_swaps_validates;
          Alcotest.test_case "run agrees with run_traced" `Quick test_run_and_run_traced_agree;
          Alcotest.test_case "placement replay" `Quick test_placement_replay;
          Alcotest.test_case "catches reorder" `Quick test_validate_catches_reorder;
          Alcotest.test_case "catches duplicates" `Quick test_validate_catches_duplicates;
          Alcotest.test_case "catches missing" `Quick test_validate_catches_missing;
          Alcotest.test_case "round rendering" `Quick test_round_rendering;
          Alcotest.test_case "transformed circuit" `Quick test_transformed_circuit;
          QCheck_alcotest.to_alcotest prop_traces_validate;
          QCheck_alcotest.to_alcotest prop_traces_validate_with_swaps;
        ] );
      ( "render",
        [ Alcotest.test_case "grid basics" `Quick test_render_grid_basics ] );
    ]
