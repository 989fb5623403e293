(* Tests for the windowed-lookahead backend: the windowed_tail recurrence
   against hand-computed DAGs and its convergence to the Dataflow tail,
   the window = 0 == greedy identity, the never-worse guarantee over the
   benchmark families and the promoted fuzz regressions, and the
   known-answer win on the long-range family the benchmarks gate on. *)

module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Decompose = Qec_circuit.Decompose
module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module CB = Autobraid.Comm_backend
module L = Qec_lookahead.Lookahead_scheduler
module Dataflow = Qec_verify.Dataflow
module B = Qec_benchmarks

(* The backend below is built by name, so link lookahead's entry. *)
let () = L.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d ()

(* ------------------------------------------------------------------ *)
(* windowed_tail                                                        *)

let windowed_tail ~window c =
  L.windowed_tail ~dag:(Qec_circuit.Dag.of_circuit c) ~window c

let test_windowed_tail_known_answer () =
  (* g0 = CX(0,1) -> g1 = CX(1,2) -> g2 = CX(0,1): succs(g0) = {g1, g2}
     (via q1 and q0), succs(g1) = {g2}. Two-qubit cost is 2. *)
  let c =
    Circuit.create ~num_qubits:3 [ Gate.Cx (0, 1); Gate.Cx (1, 2); Gate.Cx (0, 1) ]
  in
  let check w expected =
    Alcotest.(check (array int))
      (Printf.sprintf "window %d" w)
      expected
      (windowed_tail ~window:w c)
  in
  check 0 [| 2; 2; 2 |];
  check 1 [| 4; 4; 2 |];
  check 2 [| 6; 4; 2 |];
  (* fixed point: deeper windows change nothing *)
  check 3 [| 6; 4; 2 |];
  check 100 [| 6; 4; 2 |]

let test_windowed_tail_mixed_costs () =
  (* single-qubit gates cost 1: H(0) -> CX(0,1) gives H a tail of 3 *)
  let c = Circuit.create ~num_qubits:2 [ Gate.H 0; Gate.Cx (0, 1) ] in
  Alcotest.(check (array int)) "window 0" [| 1; 2 |] (windowed_tail ~window:0 c);
  Alcotest.(check (array int)) "window 1" [| 3; 2 |] (windowed_tail ~window:1 c)

let test_windowed_tail_converges_to_dataflow () =
  List.iter
    (fun name ->
      let lowered = Decompose.to_scheduler_gates (B.Registry.build name) in
      let n = Circuit.length lowered in
      let wt = windowed_tail ~window:n lowered in
      let sa = Dataflow.slack_analysis lowered in
      for i = 0 to n - 1 do
        check_int
          (Printf.sprintf "%s gate %d tail" name i)
          sa.(i).Dataflow.tail wt.(i)
      done)
    [ "qft9"; "bv12"; "lr16" ]

let test_windowed_tail_rejects_negative () =
  let c = Circuit.create ~num_qubits:1 [ Gate.H 0 ] in
  Alcotest.check_raises "negative window"
    (Invalid_argument "Lookahead_scheduler.windowed_tail: window < 0")
    (fun () -> ignore (windowed_tail ~window:(-1) c))

(* ------------------------------------------------------------------ *)
(* window = 0 is the greedy braid schedule                              *)

let test_window_zero_is_greedy () =
  List.iter
    (fun name ->
      let c = B.Registry.build name in
      let opts =
        Result.get_ok (CB.Options.decode L.options_spec [ ("window", CB.Options.Int 0) ])
      in
      let result, trace, stats = L.run_traced ~options:opts timing c in
      let g_result, g_trace = S.run_traced timing c in
      check_int (name ^ " cycles") g_result.S.total_cycles
        result.S.total_cycles;
      check_int (name ^ " rounds") g_result.S.rounds result.S.rounds;
      check_bool (name ^ " identical trace") true (trace = g_trace);
      check_int (name ^ " no priority rounds") 0 stats.L.priority_rounds;
      check_bool (name ^ " reported as greedy") false stats.L.chose_lookahead)
    [ "qft9"; "lr16" ]

(* ------------------------------------------------------------------ *)
(* never worse than greedy                                              *)

let assert_never_worse name c =
  let result, trace, stats = L.run_traced timing c in
  let greedy = S.run timing c in
  check_bool
    (Printf.sprintf "%s: %d <= %d cycles" name result.S.total_cycles
       greedy.S.total_cycles)
    true
    (result.S.total_cycles <= greedy.S.total_cycles);
  check_int (name ^ " greedy_cycles stat") greedy.S.total_cycles
    stats.L.greedy_cycles;
  Certified.expect_clean ~what:(name ^ " trace") trace;
  (* the returned schedule executes every lowered gate once *)
  check_int (name ^ " schedules every gate")
    result.S.num_gates
    (List.length (CB.scheduled_gate_ids trace))

let test_never_worse_benchmarks () =
  List.iter
    (fun name -> assert_never_worse name (B.Registry.build name))
    [ "qft9"; "bv12"; "qaoa12"; "lr16"; "lr24"; "bv32" ]

(* dune runtest runs in _build/default/test; fixtures are copied next to
   the executable, the source tree keeps them one level up. *)
let regressions_dir () =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "fixtures" "regressions");
      Filename.concat "fixtures" "regressions";
    ]

let test_never_worse_regressions () =
  match regressions_dir () with
  | None -> Alcotest.fail "fixtures/regressions not found"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".qasm")
      |> List.sort compare
    in
    if files = [] then Alcotest.fail "no promoted regressions found";
    List.iter
      (fun f ->
        assert_never_worse f (Qec_qasm.Frontend.of_file (Filename.concat dir f)))
      files

(* ------------------------------------------------------------------ *)
(* the long-range win the benchmarks gate on                            *)

let test_lr24_strictly_better () =
  let c = B.Registry.build "lr24" in
  let result, _, stats = L.run_traced timing c in
  let greedy = S.run timing c in
  check_bool
    (Printf.sprintf "lr24: %d < %d cycles" result.S.total_cycles
       greedy.S.total_cycles)
    true
    (result.S.total_cycles < greedy.S.total_cycles);
  check_bool "portfolio rounds committed" true (stats.L.priority_rounds > 0);
  check_bool "lookahead chosen" true stats.L.chose_lookahead

(* One clock: the compile time covers the greedy drive as well as the
   portfolio drive raced against it, not only the drive that won. *)
let test_compile_time_is_the_call () =
  let t0 = Unix.gettimeofday () in
  let result, _, _ = L.run_traced timing (B.Qft.circuit 64) in
  let wall = Unix.gettimeofday () -. t0 in
  check_bool "inside the call" true (result.S.compile_time_s <= wall);
  check_bool "the whole call" true (result.S.compile_time_s >= 0.9 *. wall)

(* run_traced applies the registry entry's range check, with its
   message. *)
let test_run_rejects_out_of_range () =
  let c = B.Registry.build "qft9" in
  List.iter
    (fun (pair, message) ->
      let options = Result.get_ok (CB.Options.decode L.options_spec [ pair ]) in
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          ignore (L.run_traced ~options timing c));
      Alcotest.(check (result unit string))
        ("entry " ^ message) (Error message)
        ((Option.get (CB.of_name "lookahead")).CB.validate options))
    [
      (("window", CB.Options.Int (-1)), "window -1 must be >= 0");
      ( ("slack_weight", CB.Options.Float (-0.5)),
        "slack_weight -0.5 must be >= 0" );
    ]

(* ------------------------------------------------------------------ *)
(* backend packaging                                                    *)

let test_backend_outcome () =
  let outcome =
    (CB.by_name "lookahead").CB.run timing (B.Registry.build "qft9")
  in
  Alcotest.(check string) "name" "lookahead" outcome.CB.backend;
  Certified.expect_clean outcome.CB.trace;
  List.iter
    (fun key ->
      check_bool ("stats carry " ^ key) true
        (List.mem_assoc key outcome.CB.stats))
    [
      "window";
      "chose_lookahead";
      "lookahead_cycles";
      "greedy_cycles";
      "priority_rounds";
      "rescued_gates";
    ]

let () =
  Alcotest.run "qec_lookahead"
    [
      ( "windowed_tail",
        [
          Alcotest.test_case "known answer" `Quick
            test_windowed_tail_known_answer;
          Alcotest.test_case "mixed costs" `Quick
            test_windowed_tail_mixed_costs;
          Alcotest.test_case "converges to Dataflow tail" `Quick
            test_windowed_tail_converges_to_dataflow;
          Alcotest.test_case "rejects negative window" `Quick
            test_windowed_tail_rejects_negative;
        ] );
      ( "greedy identity",
        [ Alcotest.test_case "window 0" `Quick test_window_zero_is_greedy ] );
      ( "never worse",
        [
          Alcotest.test_case "benchmarks" `Quick test_never_worse_benchmarks;
          Alcotest.test_case "promoted regressions" `Quick
            test_never_worse_regressions;
        ] );
      ( "long-range win",
        [ Alcotest.test_case "lr24" `Quick test_lr24_strictly_better ] );
      ( "compile time",
        [ Alcotest.test_case "whole call" `Quick test_compile_time_is_the_call ] );
      ( "backend",
        [
          Alcotest.test_case "outcome shape" `Quick test_backend_outcome;
          Alcotest.test_case "run rejects out-of-range options" `Quick
            test_run_rejects_out_of_range;
        ] );
    ]
