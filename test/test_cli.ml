(* End-to-end tests of the `autobraid` CLI binary: every subcommand is
   exercised through a real process, checking exit codes and output. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* dune runtest runs in _build/default/test; `dune exec` from the root. *)
let cli =
  let candidates =
    [ "../bin/autobraid_cli.exe"; "_build/default/bin/autobraid_cli.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "CLI binary not found (build bin/ first)"

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Run the CLI with args; return (exit_code, stdout++stderr). *)
let run args =
  let out = Filename.temp_file "autobraid_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_list () =
  let code, out = run "list" in
  check_int "exit 0" 0 code;
  check_bool "families" true (contains out "qft<n>");
  check_bool "fixed" true (contains out "urf2_277")

let test_compile_builtin () =
  let code, out = run "compile bv20" in
  check_int "exit 0" 0 code;
  check_bool "report printed" true (contains out "total cycles");
  check_bool "cp ratio" true (contains out "vs critical path");
  check_bool "reliability" true (contains out "failure prob.")

let test_compile_baseline_and_sp () =
  let code, _ = run "compile qft9 -s baseline" in
  check_int "baseline ok" 0 code;
  let code, out = run "compile qft16 -s baseline --certify" in
  check_int "baseline certifies" 0 code;
  check_bool "certificate printed" true (contains out "certified");
  let code, _ = run "compile qft9 -s sp --initial metis" in
  check_int "sp ok" 0 code

let test_compile_optimize () =
  let code, out = run "compile 4gt11_8 -O" in
  check_int "exit 0" 0 code;
  check_bool "peephole line" true (contains out "peephole:")

let test_info () =
  let code, out = run "info qft9" in
  check_int "exit 0" 0 code;
  check_bool "qubits" true (contains out "qubits             9");
  check_bool "parallelism" true (contains out "CX parallelism")

let test_emit_roundtrip () =
  let tmp = Filename.temp_file "autobraid_emit" ".qasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let code, _ = run (Printf.sprintf "emit qft5 -o %s" tmp) in
      check_int "exit 0" 0 code;
      let c = Qec_qasm.Frontend.of_file tmp in
      check_int "5 qubits" 5 (Qec_circuit.Circuit.num_qubits c);
      check_int "qft5 gate count" 15 (Qec_circuit.Circuit.length c))

(* Every QFT angle survives emission: a QFT wider than 63 qubits once
   printed pi/2^63 as "inf", which the parser rejects. *)
let test_emit_qft100_compiles_same () =
  let tmp = Filename.temp_file "autobraid_qft100" ".qasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let code, _ = run (Printf.sprintf "emit qft100 -o %s" tmp) in
      check_int "emit exit 0" 0 code;
      let cycles args =
        let code, out = run args in
        check_int (args ^ " exit 0") 0 code;
        let row =
          List.find
            (fun l -> contains l "total cycles")
            (String.split_on_char '\n' out)
        in
        (* "| total cycles | N |": the table's width follows the name *)
        String.trim (List.nth (String.split_on_char '|' row) 2)
      in
      Alcotest.(check string)
        "same cycles" (cycles "compile qft100")
        (cycles (Printf.sprintf "compile %s" (Filename.quote tmp))))

let test_compile_from_file () =
  let tmp = Filename.temp_file "autobraid_in" ".qasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
      close_out oc;
      let code, out = run (Printf.sprintf "compile %s" (Filename.quote tmp)) in
      check_int "exit 0" 0 code;
      check_bool "3 qubits" true (contains out "logical qubits");
      check_bool "2x2 lattice" true (contains out "2x2 tiles"))

let test_sweep () =
  let code, out = run "sweep bv8" in
  check_int "exit 0" 0 code;
  check_bool "header" true (contains out "# p  cycles");
  check_int "10 points + header" 11
    (List.length (String.split_on_char '\n' (String.trim out)))

let test_trace () =
  let code, out = run "trace bv8 --rounds 2" in
  check_int "exit 0" 0 code;
  check_bool "valid" true (contains out "trace: VALID");
  check_bool "rendered" true (contains out "round 0:")

let test_export_formats () =
  let code, out = run "export bv8 -f json" in
  check_int "json ok" 0 code;
  check_bool "json has result" true (contains out "\"total_cycles\"");
  let code, out = run "export bv8 -f dot" in
  check_int "dot ok" 0 code;
  check_bool "dot graph" true (contains out "graph coupling");
  let code, out = run "export bv8 -f csv" in
  check_int "csv ok" 0 code;
  check_bool "csv header" true (contains out "p,cycles")

let test_resources () =
  let code, out = run "resources 5000 --pl 1e-22" in
  check_int "exit 0" 0 code;
  check_bool "physical count" true (contains out "total physical qubits")

let with_qasm_file contents f =
  let tmp = Filename.temp_file "autobraid_lint" ".qasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc contents;
      close_out oc;
      f tmp)

let test_lint_clean () =
  with_qasm_file
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"
    (fun tmp ->
      let code, out = run (Printf.sprintf "lint %s" (Filename.quote tmp)) in
      check_int "exit 0" 0 code;
      check_bool "no diagnostics" true (String.trim out = ""))

let test_lint_corrupted () =
  with_qasm_file "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n" (fun tmp ->
      let code, out = run (Printf.sprintf "lint %s" (Filename.quote tmp)) in
      check_int "exit 1" 1 code;
      check_bool "rule code" true (contains out "QL002");
      check_bool "file:line:col" true (contains out (tmp ^ ":3:1:"));
      check_bool "caret" true (contains out "^");
      check_bool "summary" true (contains out "1 error(s)"))

let test_lint_deny_warning () =
  (* an unused qubit is only a warning: exit 0 normally, 1 under --deny *)
  with_qasm_file
    "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[1];\nh q[2];\n" (fun tmp ->
      let code, out = run (Printf.sprintf "lint %s" (Filename.quote tmp)) in
      check_int "warnings pass" 0 code;
      check_bool "QL021 reported" true (contains out "QL021");
      let code, _ =
        run (Printf.sprintf "lint %s --deny warning" (Filename.quote tmp))
      in
      check_int "denied warnings fail" 1 code)

let test_lint_jsonl () =
  with_qasm_file "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n" (fun tmp ->
      let code, out =
        run (Printf.sprintf "lint %s -f jsonl" (Filename.quote tmp))
      in
      check_int "exit 1" 1 code;
      check_bool "json object" true (contains out "{\"code\":\"QL002\"");
      check_bool "position fields" true (contains out "\"line\":3,\"col\":1"))

let test_lint_benchmark () =
  let code, _ = run "lint qft5" in
  check_int "clean benchmark" 0 code;
  let code, out = run "lint qft5 -p 1.5" in
  check_int "bad threshold" 1 code;
  check_bool "QL201" true (contains out "QL201")

let test_malformed_input_handling () =
  (* malformed files must produce file:line:col diagnostics on every
     subcommand, not an uncaught exception *)
  with_qasm_file "OPENQASM 2.0;\nqreg q[1]\nh q[0];\n" (fun tmp ->
      List.iter
        (fun sub ->
          let code, out =
            run (Printf.sprintf "%s %s" sub (Filename.quote tmp))
          in
          check_int (sub ^ " exits 1") 1 code;
          (* the parser reports the unexpected token, i.e. the `h` on line 3 *)
          check_bool (sub ^ " locates error") true (contains out (tmp ^ ":3:1:"));
          check_bool
            (sub ^ " no raw exception") false
            (contains out "exception"))
        [ "compile"; "info"; "lint" ]);
  with_qasm_file "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n" (fun tmp ->
      let code, out = run (Printf.sprintf "compile %s" (Filename.quote tmp)) in
      check_int "unsupported gate exits 1" 1 code;
      check_bool "positioned" true (contains out (tmp ^ ":3:1:")));
  (* a missing path falls through to the benchmark registry *)
  let code, out = run "compile /nonexistent/x.qasm" in
  check_int "missing file exits 2" 2 code;
  check_bool "unknown circuit text" true (contains out "unknown circuit")

let test_schedule_braid_byte_identical () =
  (* `schedule --backend braid` is the compile path behind the backend
     abstraction: output must match `compile` byte for byte (modulo the
     measured compile-time row, which is wall-clock noise). *)
  List.iter
    (fun spec ->
      let c1, out1 = run (Printf.sprintf "compile %s" spec) in
      let c2, out2 = run (Printf.sprintf "schedule %s --backend braid" spec) in
      check_int "compile exit 0" 0 c1;
      check_int "schedule exit 0" 0 c2;
      let strip s =
        String.split_on_char '\n' s
        |> List.filter (fun l -> not (contains l "compile time"))
        |> String.concat "\n"
      in
      Alcotest.(check string)
        (Printf.sprintf "identical output on %s" spec)
        (strip out1) (strip out2))
    [ "qft9"; "bv12"; "qaoa12" ]

let test_schedule_surgery () =
  let code, out = run "schedule qft9 --backend surgery" in
  check_int "exit 0" 0 code;
  check_bool "result table" true (contains out "total cycles");
  check_bool "surgery stats" true (contains out "pipelined_splits");
  check_bool "no swaps ever" true (contains out "swaps inserted");
  let fixture =
    List.find Sys.file_exists
      [ "../fixtures/longrange8.qasm"; "fixtures/longrange8.qasm" ]
  in
  let code, _ = run (Printf.sprintf "schedule %s --backend surgery" fixture) in
  check_int "qasm file exit 0" 0 code

let test_schedule_compare () =
  let code, out = run "schedule lr16 --backend compare" in
  check_int "exit 0" 0 code;
  check_bool "braid column" true (contains out "braid");
  check_bool "surgery column" true (contains out "surgery");
  check_bool "speedup line" true (contains out "speedup")

let test_export_backend () =
  let code, out = run "export bv12 -f json --backend surgery" in
  check_int "exit 0" 0 code;
  check_bool "backend field" true (contains out "\"backend\": \"surgery\"");
  check_bool "backend stats" true (contains out "merge_rounds");
  check_bool "telemetry" true (contains out "\"counters\"");
  let code, out = run "export bv12 -f json --backend braid" in
  check_int "braid exit 0" 0 code;
  check_bool "braid field" true (contains out "\"backend\": \"braid\"")

(* ------------------------------------------------------------------ *)
(* batch                                                                *)

let with_manifest contents f =
  let tmp = Filename.temp_file "autobraid_manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc contents;
      close_out oc;
      f tmp)

let batch_manifest =
  {|[
  {"id": "a", "circuit": "qft9"},
  {"id": "b", "circuit": "bv12", "backend": "surgery"},
  {"id": "c", "circuit": "/nonexistent/missing.qasm"},
  {"id": "d", "circuit": "bv12", "scheduler": "baseline"}
]|}

let test_batch_jobs_byte_identical () =
  with_manifest batch_manifest (fun manifest ->
      let run_jobs n =
        let out = Filename.temp_file "autobraid_batch" ".jsonl" in
        let code, _ =
          run
            (Printf.sprintf "batch %s --jobs %d -o %s" (Filename.quote manifest)
               n (Filename.quote out))
        in
        let text = read_file out in
        Sys.remove out;
        (code, text)
      in
      let c1, out1 = run_jobs 1 in
      let c4, out4 = run_jobs 4 in
      (* the manifest contains one failing job, so both exit 1 *)
      check_int "jobs 1 exit" 1 c1;
      check_int "jobs 4 exit" 1 c4;
      Alcotest.(check string) "jobs 1 = jobs 4" out1 out4;
      check_int "four records" 4
        (List.length (String.split_on_char '\n' (String.trim out1)));
      check_bool "error record inline" true
        (contains out1 "\"status\":\"error\"");
      check_bool "error kind" true
        (contains out1 "\"kind\":\"circuit-not-found\"");
      check_bool "ok records present" true (contains out1 "\"status\":\"ok\"");
      check_bool "ids echoed" true (contains out1 "\"id\":\"a\""))

let test_batch_cache_warm_identical () =
  with_manifest {|[{"circuit": "qft9"}, {"circuit": "qft9", "seed": 12}]|}
    (fun manifest ->
      let dir = Filename.temp_file "autobraid_cachedir" "" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Unix.rmdir dir
          end)
        (fun () ->
          let pass () =
            let out = Filename.temp_file "autobraid_batch" ".jsonl" in
            let code, log =
              run
                (Printf.sprintf "batch %s --jobs 2 --cache-dir %s -o %s"
                   (Filename.quote manifest) (Filename.quote dir)
                   (Filename.quote out))
            in
            let text = read_file out in
            Sys.remove out;
            (code, log, text)
          in
          let c1, _, cold = pass () in
          let c2, log2, warm = pass () in
          check_int "cold exit 0" 0 c1;
          check_int "warm exit 0" 0 c2;
          Alcotest.(check string) "cold = warm" cold warm;
          check_bool "placements persisted" true
            (Array.exists
               (fun f -> Filename.check_suffix f ".placement")
               (Sys.readdir dir));
          check_bool "warm pass reports hits" true
            (contains log2 "placement cache 2"
            || contains log2 "2+0 hits" || contains log2 "0+2 hits")))

let test_batch_bad_manifest () =
  let code, out = run "batch /nonexistent/manifest.json" in
  check_int "missing manifest exit 2" 2 code;
  check_bool "message" true (contains out "manifest");
  with_manifest {|{"version": 1}|} (fun manifest ->
      let code, _ = run (Printf.sprintf "batch %s" (Filename.quote manifest)) in
      check_int "malformed manifest exit 2" 2 code);
  with_manifest {|[{"circuit": "qft9", "frobnicate": 1}]|} (fun manifest ->
      let code, out =
        run (Printf.sprintf "batch %s" (Filename.quote manifest))
      in
      check_int "unknown key exit 2" 2 code;
      check_bool "names the key" true (contains out "frobnicate"))

(* The greedy baseline certifies like any other job; only best_p sweeps,
   which record no trace, are skipped by verify. *)
let test_baseline_jobs_certify () =
  with_manifest
    {|[{"id": "g", "circuit": "bv12", "scheduler": "baseline",
        "outputs": ["certificate"]},
       {"id": "p", "circuit": "qft9", "best_p": true}]|}
    (fun manifest ->
      let code, out =
        run (Printf.sprintf "verify %s" (Filename.quote manifest))
      in
      check_int "verify exit 0" 0 code;
      check_bool "baseline certified" true (contains out "bv12: certified");
      check_bool "baseline not skipped" false (contains out "skipping bv12");
      check_bool "best_p skipped" true (contains out "skipping qft9"));
  with_manifest {|[{"circuit": "bv12", "scheduler": "baseline"}]|}
    (fun manifest ->
      let out = Filename.temp_file "autobraid_batch" ".jsonl" in
      let code, _ =
        run
          (Printf.sprintf "batch %s --certify -o %s" (Filename.quote manifest)
             (Filename.quote out))
      in
      let text = read_file out in
      Sys.remove out;
      check_int "batch --certify exit 0" 0 code;
      check_bool "certificate block" true (contains text "autobraid-cert/v1"))

let test_schedule_unknown_backend () =
  let code, out = run "schedule qft9 --backend warp" in
  check_bool "rejected" true (code <> 0);
  (* the registry drives the error message: known names are listed *)
  check_bool "lists braid" true (contains out "braid");
  check_bool "lists surgery" true (contains out "surgery")

let test_schedule_missing_file_jsonl () =
  let code, out = run "schedule /nonexistent/x.qasm --backend surgery" in
  check_int "exit 2" 2 code;
  check_bool "structured record" true (contains out "\"status\":\"error\"");
  check_bool "kind" true (contains out "\"kind\":\"circuit-not-found\"")

let test_error_handling () =
  let code, out = run "compile definitely_not_a_circuit" in
  check_int "exit 2" 2 code;
  check_bool "message" true (contains out "unknown circuit");
  let code, _ = run "frobnicate" in
  check_bool "unknown subcommand fails" true (code <> 0);
  let code, _ = run "compile qft9 -p 1.5" in
  check_bool "invalid threshold fails" true (code <> 0)

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "list" `Quick test_list;
          Alcotest.test_case "compile builtin" `Quick test_compile_builtin;
          Alcotest.test_case "compile schedulers" `Quick test_compile_baseline_and_sp;
          Alcotest.test_case "emit qft100 round trip" `Slow
            test_emit_qft100_compiles_same;
          Alcotest.test_case "compile -O" `Quick test_compile_optimize;
          Alcotest.test_case "info" `Quick test_info;
          Alcotest.test_case "emit round trip" `Quick test_emit_roundtrip;
          Alcotest.test_case "compile from file" `Quick test_compile_from_file;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "export formats" `Quick test_export_formats;
          Alcotest.test_case "schedule braid identical" `Quick
            test_schedule_braid_byte_identical;
          Alcotest.test_case "schedule surgery" `Quick test_schedule_surgery;
          Alcotest.test_case "schedule compare" `Quick test_schedule_compare;
          Alcotest.test_case "export backend" `Quick test_export_backend;
          Alcotest.test_case "resources" `Quick test_resources;
          Alcotest.test_case "errors" `Quick test_error_handling;
          Alcotest.test_case "unknown backend" `Quick test_schedule_unknown_backend;
          Alcotest.test_case "schedule missing file jsonl" `Quick
            test_schedule_missing_file_jsonl;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs byte-identical" `Quick
            test_batch_jobs_byte_identical;
          Alcotest.test_case "warm cache identical" `Quick
            test_batch_cache_warm_identical;
          Alcotest.test_case "bad manifest" `Quick test_batch_bad_manifest;
          Alcotest.test_case "baseline jobs certify" `Quick
            test_baseline_jobs_certify;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean file" `Quick test_lint_clean;
          Alcotest.test_case "corrupted file" `Quick test_lint_corrupted;
          Alcotest.test_case "deny warning" `Quick test_lint_deny_warning;
          Alcotest.test_case "jsonl output" `Quick test_lint_jsonl;
          Alcotest.test_case "benchmark circuit" `Quick test_lint_benchmark;
          Alcotest.test_case "malformed input" `Quick test_malformed_input_handling;
        ] );
    ]
