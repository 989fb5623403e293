(* Tests for Qec_prop: generator determinism and bounds, shrinking,
   the fixed-seed fuzz corpus, and replay of promoted regression files
   from fixtures/regressions/. *)

module Rng = Qec_util.Rng
module C = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Printer = Qec_qasm.Printer
module Gen = Qec_prop.Gen
module Shrink = Qec_prop.Shrink
module Property = Qec_prop.Property
module Runner = Qec_prop.Runner

(* ---------------------------------------------------------------- *)
(* Generator                                                        *)
(* ---------------------------------------------------------------- *)

let test_gen_deterministic () =
  for seed = 1 to 10 do
    let c1 = Gen.circuit (Rng.create seed) in
    let c2 = Gen.circuit (Rng.create seed) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproduces" seed)
      (Printer.to_string c1) (Printer.to_string c2)
  done

let test_gen_bounds () =
  let p = Gen.default in
  for seed = 1 to 50 do
    let c = Gen.circuit (Rng.create seed) in
    C.validate c;
    let n = C.num_qubits c in
    if n < p.Gen.min_qubits || n > p.Gen.max_qubits then
      Alcotest.failf "seed %d: %d qubits outside [%d, %d]" seed n
        p.Gen.min_qubits p.Gen.max_qubits;
    if Array.length (C.gates c) = 0 then
      Alcotest.failf "seed %d: empty circuit" seed
  done

let test_gen_params_validated () =
  (match Gen.validate { Gen.default with Gen.cx_density = 1.5 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cx_density 1.5 accepted");
  (match Gen.validate { Gen.default with Gen.min_qubits = 1 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "min_qubits 1 accepted");
  match Gen.validate Gen.default with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default params rejected: %s" e

let test_mutate_deterministic () =
  let base = Printer.to_string (Gen.circuit (Rng.create 7)) in
  let m1 = Gen.mutate (Rng.create 99) base in
  let m2 = Gen.mutate (Rng.create 99) base in
  Alcotest.(check string) "same seed, same mutation" m1 m2

(* ---------------------------------------------------------------- *)
(* Shrinking                                                        *)
(* ---------------------------------------------------------------- *)

let has_cx c =
  Array.exists (function Gate.Cx _ -> true | _ -> false) (C.gates c)

let test_shrink_reaches_minimum () =
  (* A 20-gate, 8-qubit circuit failing "contains a CX" must shrink to
     the single CX on as few qubits as the shrinker can reach. *)
  let gates =
    [ Gate.H 0; Gate.X 1; Gate.Z 2; Gate.H 3; Gate.Cx (5, 7); Gate.S 4;
      Gate.T 6; Gate.H 7; Gate.X 0; Gate.Z 1; Gate.H 2; Gate.S 3;
      Gate.T 4; Gate.X 5; Gate.Z 6; Gate.H 1; Gate.S 0; Gate.T 2;
      Gate.X 3; Gate.H 4 ]
  in
  let c = C.create ~num_qubits:8 gates in
  let shrunk = Shrink.minimize ~test:has_cx c in
  if not (has_cx shrunk) then Alcotest.fail "shrunk circuit lost the CX";
  Alcotest.(check int) "one gate left" 1 (Array.length (C.gates shrunk));
  Alcotest.(check int) "two qubits left" 2 (C.num_qubits shrunk)

let test_shrink_requires_failing_input () =
  let c = C.create ~num_qubits:2 [ Gate.H 0 ] in
  match Shrink.minimize ~test:has_cx c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "minimize accepted a passing input"

let test_shrink_text () =
  let text = "alpha\nbeta\nneedle here\ngamma\ndelta\n" in
  let contains s =
    let n = String.length s and m = 6 in
    let rec go i = i + m <= n && (String.sub s i m = "needle" || go (i + 1)) in
    go 0
  in
  let shrunk = Shrink.minimize_text ~test:contains text in
  if not (contains shrunk) then Alcotest.fail "shrunk text lost the needle";
  if String.length shrunk > String.length "needle" + 2 then
    Alcotest.failf "text barely shrunk: %S" shrunk

(* ---------------------------------------------------------------- *)
(* Registry and fixed-seed corpus                                   *)
(* ---------------------------------------------------------------- *)

let test_registry_complete () =
  let names = Property.names () in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "property %s missing from registry" expected)
    [ "trace/braid"; "trace/braid-swappy"; "trace/surgery";
      "surgery/pipeline-bounds"; "sched/incremental-frontier";
      "diff/backends"; "lookahead/never-worse";
      "engine/spec-identity";
      "engine/cache-identity"; "engine/batch-identity"; "qasm/roundtrip";
      "lint/stable-codes"; "qasm/crash"; "qasm/stream" ];
  List.iter
    (fun n ->
      match Property.find n with
      | Some p -> Alcotest.(check string) "find is keyed by name" n p.Property.name
      | None -> Alcotest.failf "find %s failed" n)
    names

let test_corpus_clean () =
  (* The fixed-seed corpus: every registered property over 25 generated
     cases. Failures here mean a cross-layer invariant regressed; run
     [autobraid fuzz --seed 42] for the full smoke sweep. *)
  let r = Runner.run ~seed:42 ~count:25 () in
  Alcotest.(check int) "cases run" 25 r.Runner.cases;
  (match r.Runner.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "property %s failed (seed %d, case %d): %s\n%s"
      f.Runner.property f.Runner.seed f.Runner.case f.Runner.message
      (Runner.counterexample_to_string f.Runner.counterexample));
  if r.Runner.checks < 25 * List.length (Property.all ()) then
    Alcotest.failf "only %d checks ran" r.Runner.checks

let test_failure_report_shape () =
  (* A property that always fails must produce a shrunk counterexample
     and stop at max_failures. *)
  let always_fail =
    { Property.name = "test/always-fail";
      description = "fails on every circuit";
      check = Property.Circuit (fun _ -> Property.Fail "nope") }
  in
  let r =
    Runner.run ~properties:[ always_fail ] ~max_failures:1 ~seed:5 ~count:50 ()
  in
  match r.Runner.failures with
  | [ f ] ->
    Alcotest.(check string) "property name" "test/always-fail" f.Runner.property;
    Alcotest.(check int) "stopped at first case" 1 r.Runner.cases;
    if f.Runner.shrunk_size > f.Runner.original_size then
      Alcotest.fail "shrinking grew the counterexample";
    (match f.Runner.counterexample with
    | Runner.Circuit c ->
      (* Always-failing means the shrinker may strip every gate. *)
      if Array.length (C.gates c) > 1 then
        Alcotest.failf "barely shrunk: %d gates" (Array.length (C.gates c))
    | Runner.Source _ -> Alcotest.fail "expected a circuit counterexample")
  | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs)

(* ---------------------------------------------------------------- *)
(* Regression replay                                                *)
(* ---------------------------------------------------------------- *)

let regressions_dir () =
  List.find_opt Sys.file_exists
    [ Filename.concat ".." (Filename.concat "fixtures" "regressions");
      Filename.concat "fixtures" "regressions" ]

let test_regressions_replay_clean () =
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
        let path = Filename.concat dir f in
        match Runner.replay_file path with
        | Ok (_, Property.Pass) -> ()
        | Ok (prop, Property.Fail msg) ->
          Alcotest.failf "regression %s (%s) fails again: %s" f prop msg
        | Error e -> Alcotest.failf "regression %s unreadable: %s" f e)
      files

let test_replay_rejects_malformed () =
  (match Runner.replay_string "OPENQASM 2.0;\nqreg q[1];\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fuzz-prop header accepted");
  match Runner.replay_string "// fuzz-prop: no/such-property\nqreg q[1];\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown property accepted"

let test_roundtrip_through_file () =
  (* failure_to_file -> replay_file closes the promotion loop. *)
  let c = C.create ~num_qubits:2 [ Gate.Cx (0, 1) ] in
  let f =
    { Runner.property = "qasm/roundtrip"; seed = 9; case = 3;
      message = "synthetic"; counterexample = Runner.Circuit c;
      original_size = 1; shrunk_size = 1 }
  in
  let dir = Filename.temp_file "qecprop" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Runner.failure_to_file ~dir f in
      Alcotest.(check string) "file name" "qasm-roundtrip-s9-c3.qasm"
        (Filename.basename path);
      match Runner.replay_file path with
      | Ok ("qasm/roundtrip", Property.Pass) -> ()
      | Ok (p, Property.Pass) -> Alcotest.failf "wrong property: %s" p
      | Ok (_, Property.Fail m) -> Alcotest.failf "replay failed: %s" m
      | Error e -> Alcotest.failf "replay error: %s" e)

let () =
  Alcotest.run "qec_prop"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "bounds" `Quick test_gen_bounds;
          Alcotest.test_case "params validated" `Quick test_gen_params_validated;
          Alcotest.test_case "mutate deterministic" `Quick
            test_mutate_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "reaches minimum" `Quick test_shrink_reaches_minimum;
          Alcotest.test_case "requires failing input" `Quick
            test_shrink_requires_failing_input;
          Alcotest.test_case "text" `Quick test_shrink_text;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "fixed-seed corpus clean" `Slow test_corpus_clean;
          Alcotest.test_case "failure report shape" `Quick
            test_failure_report_shape;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "promoted fixtures replay clean" `Quick
            test_regressions_replay_clean;
          Alcotest.test_case "malformed files rejected" `Quick
            test_replay_rejects_malformed;
          Alcotest.test_case "promotion round-trip" `Quick
            test_roundtrip_through_file;
        ] );
    ]
