(* Mutation self-tests for Qec_lint: for every rule, one corrupted input
   that fires exactly that code and one clean input that stays silent;
   plus JSONL golden output, exit-code policy, and a lint-is-read-only
   check against the scheduler. *)

module D = Qec_lint.Diagnostic
module Lint = Qec_lint.Lint
module Circuit_lint = Qec_lint.Circuit_lint
module Schedule_lint = Qec_lint.Schedule_lint
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module S = Autobraid.Scheduler
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_codes = Alcotest.(check (list string))

let codes diags = List.map (fun (d : D.t) -> d.code) diags

let source_codes src = codes (Lint.lint_source ~file:"test.qasm" src)

(* [fires code src] asserts the source-level pipeline reports exactly
   [code] — the mutation fires its rule and nothing else. *)
let fires code src = check_codes ("fires " ^ code) [ code ] (source_codes src)

let silent src = check_codes "silent" [] (source_codes src)

(* ---------------- AST rules: mutation fires exactly one code ----------- *)

let clean_program =
  "OPENQASM 2.0;\n\
   qreg q[2];\n\
   creg c[2];\n\
   h q[0];\n\
   cx q[0], q[1];\n\
   measure q -> c;\n"

let test_clean_silent () = silent clean_program

let test_ql000 () =
  fires "QL000" "OPENQASM 2.0;\nqreg q[1]\nh q[0];\n"

let test_ql001 () =
  fires "QL001" "OPENQASM 2.0;\nqreg q[2];\nh r[0];\ncx q[0], q[1];\n"

let test_ql002 () =
  fires "QL002" "OPENQASM 2.0;\nqreg q[2];\nh q[5];\ncx q[0], q[1];\n"

let test_ql003 () =
  fires "QL003" "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\ncx q[0], q[1];\n"

let test_ql004 () =
  fires "QL004" "OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\ncx q[0], q[1];\n"

let test_ql005 () =
  fires "QL005" "OPENQASM 2.0;\nqreg q[2];\nrx q[0];\ncx q[0], q[1];\n"

let test_ql006 () =
  fires "QL006" "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\ncx q[0], q[1];\n"

let test_ql007 () =
  fires "QL007" "OPENQASM 2.0;\nqreg q[2];\nqreg r[3];\ncx q, r;\n"

let test_ql008 () =
  fires "QL008" "OPENQASM 2.0;\nqreg q[1];\nh q[0];\nqreg r[1];\nh r[0];\n"

let test_ql009 () =
  fires "QL009" "OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\ncx q[0], q[1];\n"

let test_ql010 () =
  fires "QL010"
    "OPENQASM 2.0;\nqreg q[1];\ngate g a { cx a, b; }\nh q[0];\n"

let test_ql011 () = fires "QL011" "OPENQASM 2.0;\n"

let test_ql012 () =
  fires "QL012" "OPENQASM 3.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n"

let test_ql013 () =
  (* An unresolvable parameter expression passes every AST pre-flight but
     fails elaboration — the catch-all must carry the statement's span. *)
  let src = "OPENQASM 2.0;\nqreg q[2];\nrx(foo) q[0];\ncx q[0], q[1];\n" in
  let diags = Lint.lint_source ~file:"test.qasm" src in
  check_codes "fires QL013" [ "QL013" ] (codes diags);
  match diags with
  | [ { D.pos = Some { line; col }; severity; _ } ] ->
    check_int "line" 3 line;
    check_int "col" 1 col;
    check_bool "error severity" true (severity = D.Error)
  | _ -> Alcotest.fail "expected one positioned diagnostic"

let test_ql020 () =
  fires "QL020"
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     creg c[2];\n\
     cx q[0], q[1];\n\
     measure q[0] -> c[0];\n\
     h q[0];\n\
     measure q[0] -> c[0];\n\
     measure q[1] -> c[1];\n"

let test_ql020_reset_clears () =
  silent
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     creg c[2];\n\
     cx q[0], q[1];\n\
     measure q[0] -> c[0];\n\
     reset q[0];\n\
     h q[0];\n\
     measure q[0] -> c[0];\n\
     measure q[1] -> c[1];\n"

let test_ql021 () =
  (* q[3] is dead weight, but dropping it would not shrink the lattice
     (ceil(sqrt 3) = ceil(sqrt 4) = 2), so QL104 must stay quiet. *)
  fires "QL021"
    "OPENQASM 2.0;\n\
     qreg q[4];\n\
     creg c[4];\n\
     cx q[0], q[1];\n\
     h q[2];\n\
     measure q[0] -> c[0];\n\
     measure q[1] -> c[1];\n\
     measure q[2] -> c[2];\n"

let test_ql022 () =
  fires "QL022"
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\ncx q[0], q[1];\n"

let test_ql023_builtin () =
  fires "QL023"
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     gate x a { h a; }\n\
     h q[0];\n\
     cx q[0], q[1];\n"

let test_ql023_earlier () =
  fires "QL023"
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     gate g a { x a; }\n\
     gate g a { h a; }\n\
     g q[0];\n\
     cx q[0], q[1];\n"

let test_ql024 () =
  fires "QL024"
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     creg c[3];\n\
     h q[0];\n\
     cx q[0], q[1];\n\
     measure q -> c;\n"

(* Positions on fired rules point at the offending statement. *)
let test_positions () =
  match Lint.lint_source ~file:"test.qasm"
          "OPENQASM 2.0;\nqreg q[2];\n  cx q[0], q[0];\ncx q[0], q[1];\n"
  with
  | [ { D.code = "QL003"; pos = Some { line; col }; _ } ] ->
    check_int "line" 3 line;
    check_int "col" 3 col
  | _ -> Alcotest.fail "expected exactly QL003 with a position"

(* User-declared gates participate in signature checks. *)
let test_user_gate_signature () =
  fires "QL006"
    "OPENQASM 2.0;\n\
     qreg q[2];\n\
     gate g a, b { cx a, b; }\n\
     g q[0];\n\
     cx q[0], q[1];\n"

(* ---------------- circuit rules (QL1xx) ---------------- *)

let circuit_codes gates ~n =
  codes (Circuit_lint.check ~file:"circ" (C.create ~num_qubits:n gates))

let test_ql101 () =
  check_codes "fires QL101" [ "QL101" ]
    (circuit_codes ~n:2 [ G.Cx (0, 1); G.Measure 0; G.Measure 1; G.H 0 ]);
  check_codes "silent" []
    (circuit_codes ~n:2 [ G.H 0; G.Cx (0, 1); G.Measure 0; G.Measure 1 ]);
  (* measurement-free circuits are states, not experiments: no deadness *)
  check_codes "no measurements" []
    (circuit_codes ~n:2 [ G.H 0; G.Cx (0, 1) ])

let test_ql102 () =
  check_codes "fires QL102" [ "QL102" ]
    (circuit_codes ~n:2 [ G.Cx (0, 1); G.Cx (0, 1) ]);
  check_codes "intervening gate" []
    (circuit_codes ~n:2 [ G.Cx (0, 1); G.H 0; G.Cx (0, 1) ]);
  check_codes "different pair" []
    (circuit_codes ~n:3 [ G.Cx (0, 1); G.Cx (1, 2) ])

let test_ql102_chain () =
  (* four identical cx in a row pair up as (0,1) and (2,3), not (1,2) *)
  check_codes "two pairs" [ "QL102"; "QL102" ]
    (circuit_codes ~n:2 [ G.Cx (0, 1); G.Cx (0, 1); G.Cx (0, 1); G.Cx (0, 1) ])

let test_ql103 () =
  check_codes "fires QL103" [ "QL103" ] (circuit_codes ~n:2 [ G.H 0; G.H 1 ]);
  check_codes "silent" [] (circuit_codes ~n:2 [ G.Cx (0, 1) ])

let test_ql104 () =
  (* 5 qubits, 4 touched: lattice shrinks 3x3 -> 2x2 *)
  check_codes "fires QL104" [ "QL104" ]
    (circuit_codes ~n:5 [ G.Cx (0, 1); G.Cx (2, 3) ]);
  check_codes "silent when square" []
    (circuit_codes ~n:4 [ G.Cx (0, 1); G.Cx (2, 3) ])

(* ---------------- dataflow rules (QL3xx) ---------------- *)

let dataflow_codes gates ~n =
  codes (Qec_lint.Dataflow_lint.check ~file:"circ" (C.create ~num_qubits:n gates))

let test_ql301_ql304 () =
  (* q1's H is unobservable and q1 is never released: the liveness rule
     fires at the last writer and the ancilla rule at the qubit — they
     diagnose the same forgotten wire from both ends. *)
  check_codes "fires QL301+QL304" [ "QL301"; "QL304" ]
    (dataflow_codes ~n:2 [ G.H 1; G.H 0; G.Measure 0 ]);
  check_codes "all measured silent" []
    (dataflow_codes ~n:2 [ G.H 0; G.Measure 0 ]);
  (* measurement-free circuits are states, not experiments (QL101's
     convention) *)
  check_codes "no measurements silent" []
    (dataflow_codes ~n:2 [ G.H 0; G.H 1 ])

let test_ql302 () =
  (* a pure 8-gate CX chain: every gate zero-slack *)
  check_codes "fires QL302" [ "QL302" ]
    (dataflow_codes ~n:9
       [ G.Cx (0, 1); G.Cx (1, 2); G.Cx (2, 3); G.Cx (3, 4); G.Cx (4, 5);
         G.Cx (5, 6); G.Cx (6, 7); G.Cx (7, 8) ]);
  (* a 6-gate chain plus 6 parallel CXs: only half are zero-slack, below
     the 60% threshold (the parallel pairs sit on adjacent cells of the
     4x4 identity placement so no congestion hotspot appears either) *)
  check_codes "parallel slack silent" []
    (dataflow_codes ~n:16
       [ G.Cx (0, 1); G.Cx (1, 2); G.Cx (2, 0); G.Cx (0, 1); G.Cx (1, 2);
         G.Cx (2, 0); G.Cx (4, 5); G.Cx (6, 7); G.Cx (8, 9); G.Cx (10, 11);
         G.Cx (12, 13); G.Cx (14, 15) ]);
  (* under 8 two-qubit gates the rule stays quiet however tight the chain *)
  check_codes "small circuit silent" []
    (dataflow_codes ~n:4 [ G.Cx (0, 1); G.Cx (1, 2); G.Cx (2, 3) ])

(* Five layer-0 CXs criss-crossing a 5x5 identity placement: the
   full-grid cx q0,q24 overlaps the other four bounding boxes. *)
let crossing =
  [ G.Cx (0, 24); G.Cx (4, 20); G.Cx (2, 22); G.Cx (10, 14); G.Cx (7, 17) ]

let test_ql303 () =
  check_codes "fires QL303" [ "QL303" ] (dataflow_codes ~n:25 crossing);
  (* dropping the full-grid gate caps every degree at 3 *)
  check_codes "degree 3 silent" []
    (dataflow_codes ~n:25 (List.tl crossing))

(* QL3xx diagnostics are informational: they never move the exit code,
   even under --deny warning. *)
let test_ql3xx_severity () =
  let diags =
    Qec_lint.Dataflow_lint.check ~file:"circ"
      (C.create ~num_qubits:2 [ G.H 1; G.H 0; G.Measure 0 ])
  in
  check_bool "fired" true (diags <> []);
  List.iter
    (fun (d : D.t) -> check_bool "info severity" true (d.severity = D.Info))
    diags;
  check_int "exit stays 0" 0 (Lint.exit_code ~deny_warning:true diags)

(* ---------------- schedule rules (QL2xx) ---------------- *)

let test_ql201 () =
  check_codes "fires QL201" [ "QL201" ]
    (codes (Schedule_lint.check_options ~file:"f" ~threshold_p:1.5 ()));
  check_codes "negative" [ "QL201" ]
    (codes (Schedule_lint.check_options ~file:"f" ~threshold_p:(-0.1) ()));
  check_codes "silent" []
    (codes (Schedule_lint.check_options ~file:"f" ~threshold_p:0.0 ()))

let test_ql202 () =
  check_codes "d too small" [ "QL202" ]
    (codes (Schedule_lint.check_options ~file:"f" ~d:2 ()));
  check_codes "even d" [ "QL202" ]
    (codes (Schedule_lint.check_options ~file:"f" ~d:4 ()));
  check_codes "silent" [] (codes (Schedule_lint.check_options ~file:"f" ~d:33 ()))

let timing = Qec_surface.Timing.make ~d:33 ()

let test_ql210 () =
  let lint trace =
    Schedule_lint.check_certificate ~file:"bv8"
      (Qec_verify.Certifier.certify timing trace)
  in
  let _, trace = S.run_traced timing (B.Bv.circuit 8) in
  check_codes "valid trace silent" [] (codes (lint trace));
  let broken =
    { trace with Autobraid.Trace.rounds = List.rev trace.Autobraid.Trace.rounds }
  in
  let diags = lint broken in
  check_bool "reversed trace fires" true (diags <> []);
  List.iter
    (fun (d : D.t) ->
      check_str "code" "QL210" d.code;
      check_bool "error severity" true (d.severity = D.Error))
    diags;
  check_bool "locates the violation" true
    (List.exists (fun (d : D.t) -> d.context <> None) diags);
  check_bool "names the failed invariant" true
    (List.exists
       (fun (d : D.t) ->
         match d.context with
         | Some ctx ->
           String.starts_with ~prefix:"gate/dependency-order, round " ctx
         | None -> false)
       diags)

(* ---------------- diagnostics: rendering and JSONL golden ------------- *)

let test_to_string () =
  let d =
    D.make ~pos:{ Qec_qasm.Ast.line = 3; col = 7 } ~context:"gate 2: cx q0, q1"
      ~code:"QL102" ~severity:D.Warning ~file:"foo.qasm" "self-cancelling pair"
  in
  check_str "one line"
    "foo.qasm:3:7: warning[QL102]: self-cancelling pair (gate 2: cx q0, q1)"
    (D.to_string d)

let test_render_caret () =
  let src = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n" in
  let d =
    D.make ~pos:{ Qec_qasm.Ast.line = 3; col = 1 } ~code:"QL002"
      ~severity:D.Error ~file:"t.qasm" "index 5 out of range for qreg q[2]"
  in
  check_str "caret under column"
    "t.qasm:3:1: error[QL002]: index 5 out of range for qreg q[2]\n\
    \    cx q[0], q[5];\n\
    \    ^"
    (D.render ~source:src d)

let test_jsonl_golden () =
  let d =
    D.make ~pos:{ Qec_qasm.Ast.line = 3; col = 7 } ~context:"gate 2"
      ~code:"QL102" ~severity:D.Warning ~file:"foo.qasm" "a \"quoted\" msg"
  in
  check_str "with position and context"
    "{\"code\":\"QL102\",\"severity\":\"warning\",\"file\":\"foo.qasm\",\
     \"line\":3,\"col\":7,\"message\":\"a \\\"quoted\\\" msg\",\
     \"context\":\"gate 2\"}"
    (D.to_jsonl d);
  let d' = D.make ~code:"QL103" ~severity:D.Info ~file:"bv8" "no braids" in
  check_str "positionless"
    "{\"code\":\"QL103\",\"severity\":\"info\",\"file\":\"bv8\",\
     \"line\":0,\"col\":0,\"message\":\"no braids\"}"
    (D.to_jsonl d')

let test_export_json_matches_jsonl () =
  let d =
    D.make ~pos:{ Qec_qasm.Ast.line = 2; col = 1 } ~code:"QL021"
      ~severity:D.Warning ~file:"t.qasm" "qreg q is never used"
  in
  check_str "report export agrees with to_jsonl"
    (D.to_jsonl d)
    (Qec_report.Json.to_string (Qec_report.Export.diagnostic_to_json d))

(* ---------------- exit-code policy ---------------- *)

let test_exit_code_policy () =
  let err = D.make ~code:"QL001" ~severity:D.Error ~file:"f" "e" in
  let warn = D.make ~code:"QL021" ~severity:D.Warning ~file:"f" "w" in
  let info = D.make ~code:"QL103" ~severity:D.Info ~file:"f" "i" in
  check_int "clean" 0 (Lint.exit_code []);
  check_int "info only" 0 (Lint.exit_code [ info ]);
  check_int "warning passes" 0 (Lint.exit_code [ warn; info ]);
  check_int "error fails" 1 (Lint.exit_code [ warn; err ]);
  check_int "deny promotes warnings" 1
    (Lint.exit_code ~deny_warning:true [ warn ]);
  check_int "deny leaves info" 0 (Lint.exit_code ~deny_warning:true [ info ]);
  check_str "summary" "1 error(s), 1 warning(s), 1 info"
    (Lint.summary [ err; warn; info ]);
  check_str "summary after promotion" "2 error(s), 0 warning(s), 1 info"
    (Lint.summary ~deny_warning:true [ err; warn; info ])

(* ---------------- fixtures stay clean; lint is read-only -------------- *)

(* dune runtest runs in _build/default/test; fixtures are copied next to
   the project root in the build tree *)
let fixture name =
  List.find Sys.file_exists
    [ Filename.concat "../fixtures" name; Filename.concat "fixtures" name ]

(* The fixtures carry no error or warning diagnostics; the QL3xx dataflow
   rules are informational by design, so their firings are pinned exactly
   instead of forbidden. adder4 drops its carry chain without measuring it
   (QL301 at each last writer, QL304 per unmeasured qubit) and both
   circuits are dense two-qubit chains with no slack (QL302). *)
let test_fixtures_clean () =
  List.iter
    (fun (f, expected) ->
      let diags, _src = Lint.lint_file (fixture f) in
      check_codes (f ^ " diagnostics") expected (codes diags);
      check_int (f ^ " has no errors/warnings") 0
        (Lint.error_count ~deny_warning:true diags))
    [
      ( "adder4.qasm",
        [ "QL301"; "QL301"; "QL301"; "QL301"; "QL301"; "QL302";
          "QL304"; "QL304"; "QL304"; "QL304"; "QL304" ] );
      ("qft5.qasm", [ "QL302" ]);
    ]

let test_lint_is_read_only () =
  let c = B.Qft.circuit 9 in
  let before = S.run timing c in
  let _ = Circuit_lint.check ~file:"qft9" c in
  let _ = Schedule_lint.check_options ~file:"qft9" ~threshold_p:0.1 ~d:33 () in
  let after = S.run timing c in
  check_int "total_cycles" before.S.total_cycles after.S.total_cycles;
  check_int "rounds" before.S.rounds after.S.rounds;
  check_int "swaps" before.S.swaps_inserted after.S.swaps_inserted;
  check_int "gates" before.S.num_gates after.S.num_gates

let () =
  Alcotest.run "lint"
    [
      ( "ast",
        [
          Alcotest.test_case "clean program silent" `Quick test_clean_silent;
          Alcotest.test_case "QL000 syntax" `Quick test_ql000;
          Alcotest.test_case "QL001 unknown register" `Quick test_ql001;
          Alcotest.test_case "QL002 index range" `Quick test_ql002;
          Alcotest.test_case "QL003 duplicate operand" `Quick test_ql003;
          Alcotest.test_case "QL004 unknown gate" `Quick test_ql004;
          Alcotest.test_case "QL005 param count" `Quick test_ql005;
          Alcotest.test_case "QL006 operand count" `Quick test_ql006;
          Alcotest.test_case "QL007 broadcast mismatch" `Quick test_ql007;
          Alcotest.test_case "QL008 late qreg" `Quick test_ql008;
          Alcotest.test_case "QL009 duplicate decl" `Quick test_ql009;
          Alcotest.test_case "QL010 bad gate body" `Quick test_ql010;
          Alcotest.test_case "QL011 no qreg" `Quick test_ql011;
          Alcotest.test_case "QL012 bad version" `Quick test_ql012;
          Alcotest.test_case "QL013 elaboration" `Quick test_ql013;
          Alcotest.test_case "QL020 use after measure" `Quick test_ql020;
          Alcotest.test_case "QL020 reset clears" `Quick test_ql020_reset_clears;
          Alcotest.test_case "QL021 unused qubits" `Quick test_ql021;
          Alcotest.test_case "QL022 unused creg" `Quick test_ql022;
          Alcotest.test_case "QL023 shadow builtin" `Quick test_ql023_builtin;
          Alcotest.test_case "QL023 shadow earlier" `Quick test_ql023_earlier;
          Alcotest.test_case "QL024 measure mismatch" `Quick test_ql024;
          Alcotest.test_case "positions recorded" `Quick test_positions;
          Alcotest.test_case "user gate signature" `Quick test_user_gate_signature;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "QL101 dead gates" `Quick test_ql101;
          Alcotest.test_case "QL102 cancelling cx" `Quick test_ql102;
          Alcotest.test_case "QL102 pairs chain" `Quick test_ql102_chain;
          Alcotest.test_case "QL103 no braids" `Quick test_ql103;
          Alcotest.test_case "QL104 lattice capacity" `Quick test_ql104;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "QL301/QL304 dead wires" `Quick test_ql301_ql304;
          Alcotest.test_case "QL302 zero-slack chain" `Quick test_ql302;
          Alcotest.test_case "QL303 congestion hotspot" `Quick test_ql303;
          Alcotest.test_case "QL3xx stay informational" `Quick
            test_ql3xx_severity;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "QL201 threshold range" `Quick test_ql201;
          Alcotest.test_case "QL202 distance" `Quick test_ql202;
          Alcotest.test_case "QL210 trace violations" `Quick test_ql210;
        ] );
      ( "output",
        [
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "caret rendering" `Quick test_render_caret;
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "export json" `Quick test_export_json_matches_jsonl;
        ] );
      ( "policy",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_code_policy;
          Alcotest.test_case "fixtures clean" `Quick test_fixtures_clean;
          Alcotest.test_case "lint is read-only" `Quick test_lint_is_read_only;
        ] );
    ]
