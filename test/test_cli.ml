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

let read_file path = In_channel.with_open_bin path In_channel.input_all

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

(* Run the CLI with args; return (exit_code, stdout, stderr). *)
let run_split args =
  let out = Filename.temp_file "autobraid_cli" ".out" in
  let err = Filename.temp_file "autobraid_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let texts = (read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  (code, fst texts, snd texts)

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
  check_int "sp ok" 0 code;
  (* rejected as the same manifest job is, not silently dropped *)
  let code, out = run "compile qft9 -s sp --best-p" in
  check_int "sp --best-p exit 2" 2 code;
  check_bool "sp --best-p message" true
    (contains out "best_p requires the braid backend with the full scheduler")

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

let test_compile_backend_surgery () =
  let code, out = run "compile qft9 --backend surgery" in
  check_int "exit 0" 0 code;
  check_bool "result table" true (contains out "total cycles");
  check_bool "surgery stats" true (contains out "pipelined_splits");
  check_bool "no swaps ever" true (contains out "swaps inserted");
  let fixture =
    List.find Sys.file_exists
      [ "../fixtures/longrange8.qasm"; "fixtures/longrange8.qasm" ]
  in
  let code, _ = run (Printf.sprintf "compile %s --backend surgery" fixture) in
  check_int "qasm file exit 0" 0 code

let test_compile_backend_compare () =
  let code, out = run "compile lr16 --backend compare" in
  check_int "exit 0" 0 code;
  check_bool "braid column" true (contains out "braid");
  check_bool "surgery column" true (contains out "surgery");
  check_bool "speedup line" true (contains out "speedup");
  (* one key=value list cannot target three schemas at once *)
  let code, out = run "compile lr16 --backend compare --backend-opt window=2" in
  check_int "compare --backend-opt exit 2" 2 code;
  check_bool "compare --backend-opt message" true
    (contains out "--backend-opt does not apply to --backend compare")

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

(* An unusable --cache-dir is a usage error naming the directory: batch
   exits 2, and serve exits 2 before it creates its socket. *)
let test_unusable_cache_dir () =
  let file = Filename.temp_file "autobraid_cachefile" "" in
  let socket = Filename.temp_file "autobraid_sock" ".sock" in
  Sys.remove socket;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      List.iter
        (fun dir ->
          with_manifest {|[{"circuit": "qft9"}]|} (fun manifest ->
              let code, out =
                run
                  (Printf.sprintf "batch %s --cache-dir %s"
                     (Filename.quote manifest) (Filename.quote dir))
              in
              check_int ("batch exit 2 for " ^ dir) 2 code;
              check_bool "batch names the directory" true (contains out dir);
              check_bool "no uncaught exception" false
                (contains out "uncaught exception"));
          let code, out =
            run
              (Printf.sprintf "serve --socket %s --cache-dir %s"
                 (Filename.quote socket) (Filename.quote dir))
          in
          check_int ("serve exit 2 for " ^ dir) 2 code;
          check_bool "serve names the directory" true (contains out dir);
          check_bool "serve does not blame the socket" false
            (contains out "cannot listen");
          check_bool "no socket left behind" false (Sys.file_exists socket))
        [ file; Filename.concat file "cache"; "/nonexistent/autobraid/cache" ])

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

let test_unknown_backend () =
  let code, out = run "compile qft9 --backend warp" in
  check_int "exit 2" 2 code;
  (* the registry drives the engine's message: known names are listed *)
  check_bool "lists braid" true (contains out "braid");
  check_bool "lists surgery" true (contains out "surgery")

let test_error_handling () =
  let code, out = run "compile definitely_not_a_circuit" in
  check_int "exit 2" 2 code;
  check_bool "message" true (contains out "unknown circuit");
  let code, _ = run "frobnicate" in
  check_bool "unknown subcommand fails" true (code <> 0);
  let code, _ = run "compile qft9 -p 1.5" in
  check_bool "invalid threshold fails" true (code <> 0)

(* ------------------------------------------------------------------ *)
(* Agreement with the scheduler and the registry                        *)

let fixture name =
  List.find Sys.file_exists [ "../fixtures/" ^ name; "fixtures/" ^ name ]

let circuit_of target =
  if Sys.file_exists target then Qec_qasm.Frontend.of_file target
  else Qec_benchmarks.Registry.build target

let agreement_targets () = [ "qft16"; fixture "longrange8.qasm" ]

(* `sweep` and `export -f csv` print exactly the default threshold curve
   of Scheduler.run_best_p. *)
let test_sweep_csv_match_best_p () =
  List.iter
    (fun target ->
      let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
      let _, curve = Autobraid.Scheduler.run_best_p timing (circuit_of target) in
      let base =
        float_of_int (snd (List.hd curve)).Autobraid.Scheduler.total_cycles
      in
      let expected =
        "# p  cycles  time_us  normalized\n"
        ^ String.concat ""
            (List.map
               (fun (p, (r : Autobraid.Scheduler.result)) ->
                 Printf.sprintf "%.1f  %d  %.0f  %.3f\n" p r.total_cycles
                   (Autobraid.Scheduler.time_us timing r)
                   (float_of_int r.total_cycles /. base))
               curve)
      in
      let code, out = run ("sweep " ^ Filename.quote target) in
      check_int "sweep exit 0" 0 code;
      Alcotest.(check string) ("sweep " ^ target) expected out;
      let code, out = run ("export -f csv " ^ Filename.quote target) in
      check_int "csv exit 0" 0 code;
      Alcotest.(check string)
        ("csv " ^ target)
        (Qec_report.Export.p_curve_to_csv timing curve)
        out)
    (agreement_targets ())

(* `trace` reports the rounds and cycles of Scheduler.run_traced. *)
let test_trace_matches_run_traced () =
  List.iter
    (fun target ->
      let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
      let r, _ = Autobraid.Scheduler.run_traced timing (circuit_of target) in
      let code, out = run ("trace --rounds 1 " ^ Filename.quote target) in
      check_int "trace exit 0" 0 code;
      check_bool "valid" true (contains out "trace: VALID");
      check_bool ("rounds and cycles of " ^ target) true
        (contains out
           (Printf.sprintf "%d rounds, %d cycles, %d swaps" r.rounds
              r.total_cycles r.swaps_inserted)))
    (agreement_targets ())

(* `export --backend surgery` carries the registry run's result and
   backend stats (compile time aside, which is wall-clock noise). *)
let test_export_backend_matches_registry () =
  let module CB = Autobraid.Comm_backend in
  let module Json = Qec_report.Json in
  Qec_engine.Engine.ensure_backends ();
  let normalize j =
    (* one print/parse pass so both sides spell numbers the same way *)
    let j = Result.get_ok (Json.of_string (Json.to_string j)) in
    match j with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "compile_time_s") fields)
    | j -> j
  in
  let member k j =
    match Json.member k j with
    | Some v -> normalize v
    | None -> Alcotest.failf "export has no %S member" k
  in
  List.iter
    (fun target ->
      let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
      let e = Option.get (CB.of_name "surgery") in
      let outcome =
        (e.CB.ctor CB.default_config (CB.Options.defaults e.CB.options)).CB.run
          timing (circuit_of target)
      in
      let expected =
        Qec_report.Export.backend_outcome_to_json timing outcome
      in
      let code, out =
        run ("export -f json --backend surgery " ^ Filename.quote target)
      in
      check_int "export exit 0" 0 code;
      let got =
        match Json.of_string out with
        | Ok j -> j
        | Error msg -> Alcotest.failf "export is not JSON: %s" msg
      in
      List.iter
        (fun k ->
          check_bool
            (Printf.sprintf "%s %s" target k)
            true
            (member k expected = member k got))
        [ "backend"; "result"; "backend_stats" ])
    (agreement_targets ())

(* Every manifest-reading command rejects an unusable manifest the same
   way: the path-prefixed decode error on stderr, exit 2. *)
let test_manifest_errors () =
  let code, out = run "batch /nonexistent/manifest.json" in
  check_int "batch missing file exit 2" 2 code;
  check_bool "batch names the file" true
    (contains out "/nonexistent/manifest.json: No such file");
  (* a .json path that does not exist is a circuit name to verify *)
  let code, out = run "verify /nonexistent/manifest.json" in
  check_int "verify missing file exit 2" 2 code;
  check_bool "verify unknown circuit" true (contains out "unknown circuit");
  with_manifest {|{"jobs": 3}|} (fun manifest ->
      List.iter
        (fun cmd ->
          let code, out =
            run (Printf.sprintf "%s %s" cmd (Filename.quote manifest))
          in
          check_int (cmd ^ " exit 2") 2 code;
          check_bool (cmd ^ " message") true
            (contains out (manifest ^ {|: manifest "jobs" must be a list|})))
        [ "batch"; "profile"; "verify" ])

(* `profile` on an unknown circuit is an unusable target: exit 2 with the
   engine's message, before any repeat runs. *)
let test_profile_unknown_circuit () =
  let code, out = run "profile no-such-circuit" in
  check_int "exit 2" 2 code;
  check_bool "engine message" true (contains out "unknown circuit")

(* A single-circuit spec the engine rejects is an unusable target too. *)
let test_profile_invalid_spec () =
  List.iter
    (fun (flags, message) ->
      let code, out = run ("profile qft9 " ^ flags) in
      check_int (flags ^ " exit 2") 2 code;
      check_bool (flags ^ " message") true (contains out message))
    [
      ("--backend nosuch", {|unknown backend "nosuch"|});
      ("-d 0", "distance 0 out of range");
    ]

(* A manifest job the engine rejects is a failed job, not an unusable
   target: `profile` runs the rest, exits 1 and names the job and the
   engine's message on stderr. *)
let test_profile_failed_job () =
  with_manifest {|[{"circuit": "qft9", "d": 0}, {"circuit": "qft9"}]|}
    (fun manifest ->
      let code, out =
        run (Printf.sprintf "profile %s --repeat 1" (Filename.quote manifest))
      in
      check_int "exit 1" 1 code;
      check_bool "counts" true (contains out "1 ok, 1 failed");
      check_bool "names the job" true
        (contains out "profile: job 0 (qft9): distance 0 out of range"))

(* `verify` on a manifest certifies every job it can: a rejected job is
   named on stderr and the others still print their certificates; the
   exit code is the largest any job earned (2 rejected spec, 1 failed
   run). *)
let test_verify_manifest_keeps_going () =
  with_manifest
    {|[{"circuit": "qft9"}, {"circuit": "qft9", "d": 0}, {"circuit": "bv12"}]|}
    (fun manifest ->
      let code, out, err = run_split ("verify " ^ Filename.quote manifest) in
      check_int "rejected job exits 2" 2 code;
      check_bool "names the job" true
        (contains err "verify: job 1 (qft9): distance 0 out of range");
      check_bool "first job certified" true (contains out "qft9: certified");
      check_bool "third job certified" true (contains out "bv12: certified");
      let code, out, _ =
        run_split ("verify --json " ^ Filename.quote manifest)
      in
      check_int "json exit 2" 2 code;
      match Qec_report.Json.of_string out with
      | Ok (Qec_report.Json.List certs) ->
        check_int "two certificates" 2 (List.length certs)
      | _ -> Alcotest.fail "verify --json is not a JSON array");
  let bad = Filename.temp_file "autobraid_bad" ".qasm" in
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc "OPENQASM 2.0;\nqreg q[2];\ncx q[0]\n");
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  with_manifest
    (Printf.sprintf {|[{"circuit": %S}, {"circuit": "qft9"}]|} bad)
    (fun manifest ->
      let code, out, err = run_split ("verify " ^ Filename.quote manifest) in
      check_int "failed run exits 1" 1 code;
      check_bool "names the failed job" true
        (contains err ("verify: job 0 (" ^ bad ^ "): "));
      check_bool "other job certified" true (contains out "qft9: certified"))

(* -d 0 is the engine's to reject: every compiling command exits 2 with
   its message, none with an uncaught exception from building a timing
   model first. *)
let test_distance_zero () =
  List.iter
    (fun cmd ->
      let code, out = run (cmd ^ " -d 0") in
      check_int (cmd ^ " exit 2") 2 code;
      check_bool (cmd ^ " message") true
        (contains out "distance 0 out of range");
      check_bool (cmd ^ " no exception") false (contains out "exception"))
    [
      "compile qft9";
      "compile qft9 --backend surgery";
      "compile qft9 --backend compare";
      "verify qft9";
      "sweep qft9";
      "export qft9 -f json";
      "export qft9 -f csv";
      "trace qft9";
    ]

(* ------------------------------------------------------------------ *)
(* One request vocabulary                                               *)

(* Run [f] against a serve daemon on a fresh socket, then shut it down. *)
let with_daemon f =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abcli%d.sock" (Unix.getpid ()))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; "1" |]
      null null null
  in
  Unix.close null;
  let rec wait_bound n =
    if (not (Sys.file_exists sock)) && n > 0 then begin
      Unix.sleepf 0.05;
      wait_bound (n - 1)
    end
  in
  wait_bound 200;
  Fun.protect
    ~finally:(fun () ->
      ignore (run ("serve --shutdown --connect " ^ Filename.quote sock));
      ignore (Unix.waitpid [] pid))
    (fun () -> f sock)

(* The [spec] member of a job record line. *)
let spec_of_line line =
  match Qec_report.Json.of_string line with
  | Ok j -> (
    match Qec_report.Json.member "spec" j with
    | Some spec -> Qec_report.Json.to_string spec
    | None -> Alcotest.failf "job record without a spec: %s" line)
  | Error msg -> Alcotest.failf "job record is not JSON (%s): %s" msg line

(* Each row's flags, and the one-job manifest that says the same. *)
let valid_requests =
  [
    ("", {|{"circuit": "qft9"}|});
    ( "--backend surgery --seed 5 -d 5 --backend-opt ripup=false",
      {|{"circuit": "qft9", "backend": "surgery", "seed": 5, "d": 5,
         "backend_options": {"ripup": false}}|} );
    ("-s baseline", {|{"circuit": "qft9", "scheduler": "baseline"}|});
    ( "-s sp -p 0.5 --initial metis -O --certify",
      {|{"circuit": "qft9", "scheduler": "sp", "threshold_p": 0.5,
         "initial": "metis", "optimize": true,
         "outputs": ["certificate"]}|} );
  ]

let invalid_requests =
  [
    ("--backend warp", {|unknown backend "warp"|});
    ("-d 0", "distance 0 out of range");
    ("-p 1.5", "threshold_p 1.5 out of [0, 1)");
  ]

(* compile, verify, profile and a serve client take the same request
   flags; the client's job record echoes the spec batch reads from the
   equivalent manifest; and a request the engine rejects exits 2 with
   the engine's message on every command. *)
let test_request_vocabulary () =
  with_daemon @@ fun sock ->
  let commands =
    [
      "compile qft9";
      "verify qft9";
      "profile qft9 --repeat 1";
      "serve qft9 --connect " ^ Filename.quote sock;
    ]
  in
  List.iter
    (fun (flags, job) ->
      List.iter
        (fun cmd ->
          let code, out = run (cmd ^ " " ^ flags) in
          if code <> 0 then
            Alcotest.failf "%s %s: exit %d\n%s" cmd flags code out)
        commands;
      let code, served, _ =
        run_split
          (Printf.sprintf "serve qft9 --connect %s %s" (Filename.quote sock)
             flags)
      in
      check_int ("serve " ^ flags) 0 code;
      with_manifest ("[" ^ job ^ "]") (fun manifest ->
          let code, batched, _ =
            run_split ("batch " ^ Filename.quote manifest)
          in
          check_int ("batch for " ^ flags) 0 code;
          Alcotest.(check string)
            ("spec of " ^ flags)
            (spec_of_line (String.trim batched))
            (spec_of_line (String.trim served))))
    valid_requests;
  List.iter
    (fun (flags, message) ->
      List.iter
        (fun cmd ->
          let code, out = run (cmd ^ " " ^ flags) in
          check_int (cmd ^ " " ^ flags ^ " exit 2") 2 code;
          check_bool (cmd ^ " " ^ flags ^ " message") true (contains out message))
        commands)
    invalid_requests

(* `autobraid backends` (text and --json) lists every registered backend
   with its declared options, docs and defaults; both listings are
   pinned byte for byte in fixtures/cli_backends.{txt,json}. *)
let test_backends_listing () =
  List.iter
    (fun (args, file) ->
      let code, out, err = run_split args in
      check_int (args ^ " exit 0") 0 code;
      Alcotest.(check string) (args ^ " stderr") "" err;
      Alcotest.(check string) (args ^ " stdout") (read_file (fixture file)) out)
    [ ("backends", "cli_backends.txt"); ("backends --json", "cli_backends.json") ]

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
          Alcotest.test_case "compile backend surgery" `Quick
            test_compile_backend_surgery;
          Alcotest.test_case "compile backend compare" `Quick
            test_compile_backend_compare;
          Alcotest.test_case "export backend" `Quick test_export_backend;
          Alcotest.test_case "resources" `Quick test_resources;
          Alcotest.test_case "errors" `Quick test_error_handling;
          Alcotest.test_case "unknown backend" `Quick test_unknown_backend;
          Alcotest.test_case "distance 0" `Quick test_distance_zero;
          Alcotest.test_case "backends listing" `Quick test_backends_listing;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs byte-identical" `Quick
            test_batch_jobs_byte_identical;
          Alcotest.test_case "warm cache identical" `Quick
            test_batch_cache_warm_identical;
          Alcotest.test_case "bad manifest" `Quick test_batch_bad_manifest;
          Alcotest.test_case "unusable cache dir" `Quick test_unusable_cache_dir;
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
      ( "agreement",
        [
          Alcotest.test_case "sweep and csv match run_best_p" `Quick
            test_sweep_csv_match_best_p;
          Alcotest.test_case "trace matches run_traced" `Quick
            test_trace_matches_run_traced;
          Alcotest.test_case "export backend matches registry" `Quick
            test_export_backend_matches_registry;
          Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
          Alcotest.test_case "profile unknown circuit" `Quick
            test_profile_unknown_circuit;
          Alcotest.test_case "profile invalid spec" `Quick
            test_profile_invalid_spec;
          Alcotest.test_case "profile failed job" `Quick
            test_profile_failed_job;
          Alcotest.test_case "verify manifest keeps going" `Quick
            test_verify_manifest_keeps_going;
          Alcotest.test_case "request vocabulary" `Quick
            test_request_vocabulary;
        ] );
    ]
