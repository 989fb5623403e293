module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module CB = Autobraid.Comm_backend
module T = Qec_surface.Timing
module St = Qec_surface.Surgery_timing
module SS = Qec_surgery.Surgery_scheduler
module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine
module Engine_core = Qec_engine.Engine_core
module PC = Qec_engine.Placement_cache
module Json = Qec_report.Json
module Export = Qec_report.Export

type outcome = Pass | Fail of string

type check = Circuit of (Circuit.t -> outcome) | Source of (string -> outcome)

type t = { name : string; description : string; check : check }

let () = Engine.ensure_backends ()

let timing = T.make ~d:T.default_d ()

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* A property body must never escape with an exception: an unexpected
   raise from a scheduler or exporter on a generated circuit IS a
   counterexample, and the harness needs it as a value to shrink on. *)
let guard f input =
  match f input with
  | outcome -> outcome
  | exception e -> failf "unexpected exception: %s" (Printexc.to_string e)

(* The certificate's first witness, with [~result]'s total cycles in the
   cycle account. *)
let first_violation ~result trace =
  match (Qec_verify.Certifier.certify ~result timing trace).witnesses with
  | [] -> None
  | w :: rest ->
    Some
      (Printf.sprintf "%s (%d witnesses total)"
         (Qec_verify.Certifier.witness_to_string w)
         (1 + List.length rest))

(* ---------------- trace validity ---------------- *)

let check_braid_trace ~options c =
  let result, trace = S.run_traced ~options timing c in
  match first_violation ~result trace with
  | Some msg -> failf "braid trace: %s" msg
  | None ->
    if Trace.num_rounds trace <> result.S.rounds then
      failf "braid trace rounds %d disagree with result %d"
        (Trace.num_rounds trace) result.S.rounds
    else Pass

let trace_braid =
  {
    name = "trace/braid";
    description =
      "braid schedule certifies clean (vertex-disjoint rounds, dependency \
       order, every gate once, cycles matching the result) and its rounds \
       match the result";
    check = Circuit (guard (check_braid_trace ~options:S.default_options));
  }

let trace_braid_swappy =
  {
    name = "trace/braid-swappy";
    description =
      "same, with threshold_p = 0.9 forcing layout optimization so SWAP \
       layers and placement changes are exercised";
    check =
      Circuit
        (guard
           (check_braid_trace
              ~options:{ S.default_options with threshold_p = 0.9 }));
  }

let trace_surgery =
  {
    name = "trace/surgery";
    description =
      "surgery schedule certifies clean, including overlapped split \
       legality and cycles matching the result";
    check =
      Circuit
        (guard (fun c ->
             let result, trace, _stats = SS.run_traced timing c in
             match first_violation ~result trace with
             | Some msg -> failf "surgery trace: %s" msg
             | None -> Pass));
  }

(* ---------------- surgery latency bounds ---------------- *)

let surgery_pipeline_bounds =
  {
    name = "surgery/pipeline-bounds";
    description =
      "surgery with split pipelining is never slower than its own \
       no-pipelining run, and never faster than the all-splits-overlapped \
       lower bound";
    check =
      Circuit
        (guard (fun c ->
             let result, trace, _ = SS.run_traced timing c in
             let no_pipeline, _, _ =
               SS.run_traced
                 ~options:
                   (Result.get_ok
                      (CB.Options.decode SS.options_spec
                         [ ("pipeline_splits", CB.Options.Bool false) ]))
                 timing c
             in
             (* Replay the pipelined trace pretending every split
                overlapped: no schedule of the same rounds can beat it. *)
             let lower_bound =
               List.fold_left
                 (fun acc round ->
                   acc
                   +
                   match round with
                   | Trace.Local _ -> T.single_qubit_cycles timing
                   | Trace.Merge _ -> St.merge_cycles timing
                   | Trace.Braid _ -> T.braid_cycles timing
                   | Trace.Swap_layer _ -> T.swap_layer_cycles timing)
                 0 trace.Trace.rounds
             in
             if result.S.total_cycles > no_pipeline.S.total_cycles then
               failf "pipelining slowed surgery down: %d > %d cycles"
                 result.S.total_cycles no_pipeline.S.total_cycles
             else if result.S.total_cycles < lower_bound then
               failf "surgery beat its own lower bound: %d < %d cycles"
                 result.S.total_cycles lower_bound
             else Pass));
  }

(* ---------------- incremental frontier ---------------- *)

let sched_incremental_frontier =
  {
    name = "sched/incremental-frontier";
    description =
      "the bitset scheduling frontier agrees with the Int_set reference \
       at every round of a real braid schedule — same ready lists, \
       remaining counts, and done flags under the trace's completion \
       order";
    check =
      Circuit
        (guard (fun c ->
             let module Dag = Qec_circuit.Dag in
             let module Task = Autobraid.Task in
             let lowered = Qec_circuit.Decompose.to_scheduler_gates c in
             let dag = Dag.of_circuit lowered in
             let f = Dag.Frontier.create dag in
             let r = Dag.Frontier.Reference.create dag in
             let compare_states step =
               let rf = Dag.Frontier.ready f
               and rr = Dag.Frontier.Reference.ready r in
               if rf <> rr then
                 Some
                   (failf "%s: ready lists diverge (%d vs %d entries)" step
                      (List.length rf) (List.length rr))
               else if
                 Dag.Frontier.remaining f <> Dag.Frontier.Reference.remaining r
               then
                 Some
                   (failf "%s: remaining diverge: %d vs %d" step
                      (Dag.Frontier.remaining f)
                      (Dag.Frontier.Reference.remaining r))
               else if
                 Dag.Frontier.is_done f <> Dag.Frontier.Reference.is_done r
               then Some (failf "%s: done flags diverge" step)
               else None
             in
             let _, trace = S.run_traced timing lowered in
             let rec replay round_no = function
               | [] ->
                 if not (Dag.Frontier.is_done f) then
                   failf "frontier not drained after replay (%d left)"
                     (Dag.Frontier.remaining f)
                 else Pass
               | round :: rest -> (
                 let completed =
                   match round with
                   | Trace.Local { gates } -> gates
                   | Trace.Braid { braids; locals } ->
                     List.map (fun ((t : Task.t), _) -> t.Task.id) braids
                     @ locals
                   | Trace.Merge { merges; locals; _ } ->
                     List.map (fun ((t : Task.t), _) -> t.Task.id) merges
                     @ locals
                   | Trace.Swap_layer _ -> []
                 in
                 match
                   List.find_map
                     (fun id ->
                       match Dag.Frontier.complete f id with
                       | () ->
                         Dag.Frontier.Reference.complete r id;
                         None
                       | exception Invalid_argument msg ->
                         Some
                           (failf "round %d: bitset frontier rejected %d: %s"
                              round_no id msg))
                     completed
                 with
                 | Some fail -> fail
                 | None -> (
                   match
                     compare_states (Printf.sprintf "round %d" round_no)
                   with
                   | Some fail -> fail
                   | None -> replay (round_no + 1) rest))
             in
             match compare_states "initial" with
             | Some fail -> fail
             | None -> replay 0 trace.Trace.rounds));
  }

(* ---------------- differential oracle ---------------- *)

let diff_backends =
  {
    name = "diff/backends";
    description =
      "braid, surgery, lookahead, and the greedy MICRO'17 baseline \
       schedule the same lowered gate set, with certified traces and \
       latencies at or above each one's critical-path lower bound";
    check =
      Circuit
        (guard (fun c ->
             let braid = (CB.by_name "braid").CB.run timing c in
             let surgery = (CB.by_name "surgery").CB.run timing c in
             let lookahead = (CB.by_name "lookahead").CB.run timing c in
             let rg, baseline = Gp_baseline.run_traced timing c in
             let check_clean (backend, result, trace) =
               match first_violation ~result trace with
               | Some msg -> Some (Printf.sprintf "%s: %s" backend msg)
               | None -> None
             in
             match
               List.find_map check_clean
                 (List.map
                    (fun (o : CB.outcome) ->
                      (o.CB.backend, o.CB.result, o.CB.trace))
                    [ braid; surgery; lookahead ]
                 @ [ ("gp-baseline", rg, baseline) ])
             with
             | Some msg -> Fail msg
             | None ->
               let ids_b = CB.scheduled_gate_ids braid.CB.trace in
               let rb = braid.CB.result
               and rs = surgery.CB.result
               and rl = lookahead.CB.result in
               match
                 List.find_opt
                   (fun (_, ids) -> ids <> ids_b)
                   [
                     ("surgery", CB.scheduled_gate_ids surgery.CB.trace);
                     ("lookahead", CB.scheduled_gate_ids lookahead.CB.trace);
                     ("baseline", CB.scheduled_gate_ids baseline);
                   ]
               with
               | Some (name, ids) ->
                 failf
                   "braid and %s scheduled different gate sets (%d vs %d \
                    gates)"
                   name (List.length ids_b) (List.length ids)
               | None ->
                 if List.length ids_b <> rb.S.num_gates then
                   failf "braid scheduled %d of %d lowered gates"
                     (List.length ids_b) rb.S.num_gates
                 else if
                   rb.S.num_gates <> rs.S.num_gates
                   || rb.S.num_gates <> rl.S.num_gates
                   || rb.S.num_gates <> rg.S.num_gates
                 then
                   failf "lowered gate counts diverge: braid %d surgery %d \
                          lookahead %d baseline %d"
                     rb.S.num_gates rs.S.num_gates rl.S.num_gates rg.S.num_gates
                 else if
                   rb.S.num_two_qubit <> rs.S.num_two_qubit
                   || rb.S.num_two_qubit <> rl.S.num_two_qubit
                   || rb.S.num_two_qubit <> rg.S.num_two_qubit
                 then
                   failf "two-qubit counts diverge: braid %d surgery %d \
                          lookahead %d baseline %d"
                     rb.S.num_two_qubit rs.S.num_two_qubit rl.S.num_two_qubit
                     rg.S.num_two_qubit
                 else begin
                   let below_cp name (r : S.result) =
                     if r.S.total_cycles < r.S.critical_path_cycles then
                       Some
                         (Printf.sprintf
                            "%s beat its critical path: %d < %d cycles" name
                            r.S.total_cycles r.S.critical_path_cycles)
                     else None
                   in
                   match
                     List.filter_map Fun.id
                       [
                         below_cp "braid" rb;
                         below_cp "surgery" rs;
                         below_cp "lookahead" rl;
                         below_cp "baseline" rg;
                       ]
                   with
                   | msg :: _ -> Fail msg
                   | [] -> Pass
                 end));
  }

(* ---------------- lookahead guarantee ---------------- *)

let lookahead_never_worse =
  {
    name = "lookahead/never-worse";
    description =
      "the lookahead backend's total cycles never exceed the plain braid \
       schedule with identical options, its trace certifies clean, and its \
       reported greedy_cycles stat matches the braid run it raced";
    check =
      Circuit
        (guard (fun c ->
             let module L = Qec_lookahead.Lookahead_scheduler in
             let result, trace, stats = L.run_traced timing c in
             let greedy = S.run timing c in
             match first_violation ~result trace with
             | Some msg -> failf "lookahead trace: %s" msg
             | None ->
               if result.S.total_cycles > greedy.S.total_cycles then
                 failf "lookahead worse than greedy: %d > %d cycles"
                   result.S.total_cycles greedy.S.total_cycles
               else if stats.L.greedy_cycles <> greedy.S.total_cycles then
                 failf
                   "reported greedy_cycles %d disagree with the braid run %d"
                   stats.L.greedy_cycles greedy.S.total_cycles
               else if
                 stats.L.chose_lookahead
                 && stats.L.lookahead_cycles <> result.S.total_cycles
               then
                 failf "chose lookahead but returned %d cycles, not %d"
                   result.S.total_cycles stats.L.lookahead_cycles
               else Pass));
  }

(* ---------------- certification ---------------- *)

let verify_certify =
  {
    name = "verify/certify";
    description =
      "every backend's schedule certifies clean under the independent \
       Qec_verify certifier, and each applicable adversarial trace \
       mutation is rejected with the mutated invariant named";
    check =
      Circuit
        (guard (fun c ->
             let module V = Qec_verify.Certifier in
             let module M = Qec_verify.Mutate in
             let outcomes =
               [
                 (CB.by_name "braid").CB.run timing c;
                 (CB.by_name "surgery").CB.run timing c;
               ]
             in
             let rec check_outcomes = function
               | [] -> Pass
               | (o : CB.outcome) :: rest -> (
                 let cert =
                   V.certify ~backend:o.CB.backend ~result:o.CB.result timing
                     o.CB.trace
                 in
                 if not (V.ok cert) then
                   failf "%s failed certification: %s" o.CB.backend
                     (V.to_summary cert)
                 else
                   let rec check_mutations = function
                     | [] -> check_outcomes rest
                     | kind :: kinds -> (
                       match M.apply kind timing o.CB.result o.CB.trace with
                       | None -> check_mutations kinds
                       | Some (result', trace') ->
                         let cert' =
                           V.certify ~backend:o.CB.backend ~result:result'
                             timing trace'
                         in
                         let expected = M.expected kind in
                         if List.mem expected (V.failed cert') then
                           check_mutations kinds
                         else
                           failf
                             "%s: mutation %s escaped certification \
                              (expected %s; failed: %s)"
                             o.CB.backend (M.name kind)
                             (Qec_verify.Invariant.id expected)
                             (String.concat ","
                                (List.map Qec_verify.Invariant.id
                                   (V.failed cert'))))
                   in
                   check_mutations M.all)
             in
             check_outcomes outcomes));
  }

(* ---------------- engine identities ---------------- *)

let with_temp_qasm c f =
  let path = Filename.temp_file "autobraid_prop" ".qasm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Qec_qasm.Printer.to_file path c;
      f path)

let with_temp_dir f =
  let dir = Filename.temp_file "autobraid_prop_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun entry -> Sys.remove (Filename.concat dir entry))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let spec_for path =
  {
    Spec.default with
    circuit = path;
    outputs = { Spec.trace = true; reliability = false; certificate = false };
  }

(* Deterministic rendering of a run's observable output: the result record
   (compile time zeroed, as the batch engine does) plus the full trace. *)
let render_payload (p : Engine_core.payload) =
  let result = { p.Engine_core.result with S.compile_time_s = 0. } in
  let fields =
    [ ("backend", Json.String p.Engine_core.backend);
      ("result", Export.result_to_json result) ]
    @
    match p.Engine_core.trace with
    | Some trace -> [ ("trace", Export.trace_to_json trace) ]
    | None -> []
  in
  Json.to_string (Json.Obj fields)

let run_spec_exn ?cache spec =
  match Engine.run_spec ?cache spec with
  | Ok payload -> payload
  | Error e ->
    failwith (Printf.sprintf "run_spec failed (%s): %s" e.Engine_core.kind
                e.Engine_core.message)

let engine_spec_identity =
  {
    name = "engine/spec-identity";
    description =
      "Engine.run_spec on a spec naming the printed circuit is \
       byte-identical (result + trace JSON) to running the scheduler \
       directly on the same file — the compile == run_spec contract";
    check =
      Circuit
        (guard (fun c ->
             with_temp_qasm c @@ fun path ->
             let payload = run_spec_exn (spec_for path) in
             let direct_c = Qec_qasm.Frontend.of_file path in
             let result, trace = S.run_traced timing direct_c in
             let direct =
               render_payload
                 {
                   payload with
                   Engine_core.backend = "braid";
                   result;
                   trace = Some trace;
                 }
             in
             let via_spec = render_payload payload in
             if String.equal via_spec direct then Pass
             else
               failf "run_spec and direct scheduling diverged:\n%s\nvs\n%s"
                 via_spec direct));
  }

let engine_cache_identity =
  {
    name = "engine/cache-identity";
    description =
      "a placement-cache disk hit reproduces the cold run byte-for-byte, \
       and both match the uncached run";
    check =
      Circuit
        (guard (fun c ->
             with_temp_qasm c @@ fun path ->
             with_temp_dir @@ fun dir ->
             let spec = spec_for path in
             let cold_cache = Result.get_ok (PC.create ~dir ()) in
             let cold = run_spec_exn ~cache:cold_cache spec in
             let warm_cache = Result.get_ok (PC.create ~dir ()) in
             let warm = run_spec_exn ~cache:warm_cache spec in
             let uncached = run_spec_exn spec in
             let kc = PC.counters cold_cache
             and kw = PC.counters warm_cache in
             if kc.PC.misses <> 1 then
               failf "cold run made %d placement misses (expected 1)"
                 kc.PC.misses
             else if kw.PC.disk_hits <> 1 then
               failf "warm run made %d disk hits (expected 1; %d misses)"
                 kw.PC.disk_hits kw.PC.misses
             else if render_payload cold <> render_payload warm then
               Fail "warm-cache run diverged from cold run"
             else if render_payload cold <> render_payload uncached then
               Fail "cached run diverged from uncached run"
             else Pass));
  }

let engine_batch_identity =
  {
    name = "engine/batch-identity";
    description =
      "run_batch renders byte-identical JSONL for jobs = 1 and jobs = 3 \
       over braid, surgery, and baseline specs of the same circuit";
    check =
      Circuit
        (guard (fun c ->
             with_temp_qasm c @@ fun path ->
             let base = spec_for path in
             let specs =
               [
                 { base with Spec.id = Some "braid" };
                 { base with Spec.id = Some "braid-seed12"; seed = 12 };
                 { base with Spec.id = Some "surgery"; backend = "surgery" };
                 {
                   base with
                   Spec.id = Some "baseline";
                   scheduler = Spec.Baseline;
                   outputs = { base.Spec.outputs with certificate = true };
                 };
               ]
             in
             let sequential = Engine.run_batch ~jobs:1 specs in
             let parallel = Engine.run_batch ~jobs:3 specs in
             let js = Engine_core.jobs_to_jsonl sequential
             and jp = Engine_core.jobs_to_jsonl parallel in
             match Engine_core.errors sequential with
             | (i, e) :: _ ->
               failf "batch job %d failed (%s): %s" i e.Engine_core.kind
                 e.Engine_core.message
             | [] ->
               if String.equal js jp then Pass
               else Fail "batch JSONL differs between jobs=1 and jobs=3"));
  }

(* ---------------- qasm and lint round trips ---------------- *)

let qasm_roundtrip =
  {
    name = "qasm/roundtrip";
    description =
      "Printer.to_string then Frontend.of_string reproduces the circuit \
       gate-for-gate (width included)";
    check =
      Circuit
        (guard (fun c ->
             let printed = Qec_qasm.Printer.to_string c in
             let reparsed = Qec_qasm.Frontend.of_string printed in
             if Circuit.num_qubits reparsed <> Circuit.num_qubits c then
               failf "round-trip changed width: %d -> %d"
                 (Circuit.num_qubits c)
                 (Circuit.num_qubits reparsed)
             else if Circuit.length reparsed <> Circuit.length c then
               failf "round-trip changed gate count: %d -> %d"
                 (Circuit.length c) (Circuit.length reparsed)
             else begin
               let bad = ref None in
               Circuit.iter
                 (fun i g ->
                   if
                     !bad = None
                     && not (Gate.equal g (Circuit.gate reparsed i))
                   then bad := Some (i, g, Circuit.gate reparsed i))
                 c;
               match !bad with
               | Some (i, g, g') ->
                 failf "round-trip changed gate %d: %s -> %s" i
                   (Gate.to_string g) (Gate.to_string g')
               | None -> Pass
             end));
  }

let diag_key (d : Qec_lint.Diagnostic.t) =
  ( d.Qec_lint.Diagnostic.code,
    d.Qec_lint.Diagnostic.severity,
    d.Qec_lint.Diagnostic.pos,
    d.Qec_lint.Diagnostic.message )

let lint_stable_codes =
  {
    name = "lint/stable-codes";
    description =
      "lint diagnostics (code, severity, position, message) are stable \
       under a pretty-print -> parse -> pretty-print round trip";
    check =
      Circuit
        (guard (fun c ->
             let s1 = Qec_qasm.Printer.to_string c in
             let d1 = Qec_lint.Lint.lint_source ~file:"<fuzz>" s1 in
             let s2 =
               Qec_qasm.Printer.to_string (Qec_qasm.Frontend.of_string s1)
             in
             let d2 = Qec_lint.Lint.lint_source ~file:"<fuzz>" s2 in
             if List.map diag_key d1 = List.map diag_key d2 then Pass
             else
               failf
                 "lint diagnostics changed across the round trip: %d vs %d \
                  (%s | %s)"
                 (List.length d1) (List.length d2)
                 (String.concat "," (List.map (fun d -> d.Qec_lint.Diagnostic.code) d1))
                 (String.concat "," (List.map (fun d -> d.Qec_lint.Diagnostic.code) d2))));
  }

(* ---------------- crash fuzzing ---------------- *)

(* The structured errors a frontend is allowed to answer garbage with;
   positions must be real (1-based) so the CLI's file:line:col contract
   holds. Anything else escaping is a crash. *)
let qasm_crash =
  {
    name = "qasm/crash";
    description =
      "mutated QASM bytes get structured positioned errors (or a parse) \
       from the lexer, parser, frontend, lint driver, and JSON parser — \
       never an unhandled exception";
    check =
      Source
        (fun src ->
          let structured = function
            | Qec_qasm.Lexer.Error { line; col; _ }
            | Qec_qasm.Parser.Error { line; col; _ } ->
              if line >= 1 && col >= 1 then None
              else
                Some
                  (Printf.sprintf
                     "error carries non-positive position %d:%d" line col)
            | Qec_qasm.Frontend.Unsupported _ -> None
            | Qec_circuit.Circuit.Invalid _ -> None
            | e ->
              Some ("unhandled exception: " ^ Printexc.to_string e)
          in
          let frontend =
            match Qec_qasm.Frontend.of_string src with
            | (_ : Circuit.t) -> None
            | exception e -> structured e
          in
          match frontend with
          | Some msg -> failf "frontend: %s" msg
          | None -> (
            match Qec_lint.Lint.lint_source ~file:"<fuzz>" src with
            | (_ : Qec_lint.Diagnostic.t list) -> (
              match Qec_report.Json.of_string src with
              | Ok _ | Error _ -> Pass
              | exception e ->
                failf "Json.of_string raised: %s" (Printexc.to_string e))
            | exception e ->
              failf "lint_source raised: %s" (Printexc.to_string e)));
  }

(* The streaming front end against the list pipeline it replaced: lex
   the whole input, parse the whole token list, then elaborate. Outcomes
   agree when the circuits are equal or the same exception carries equal
   fields, so a streaming shortcut that reorders error precedence shows
   here. *)
let qasm_stream =
  let module Q = Qec_qasm in
  {
    name = "qasm/stream";
    description =
      "streaming Frontend.of_string agrees with Lexer.tokenize -> \
       Parser.parse_tokens -> Frontend.elaborate: the same circuit, or the \
       same exception with equal fields";
    check =
      Source
        (fun src ->
          let outcome f = match f () with c -> Ok c | exception e -> Error e in
          let reference () =
            match Q.Lexer.tokenize src with
            | exception Q.Lexer.Error { line; col; msg } ->
              raise (Q.Parser.Error { line; col; msg })
            | toks -> Q.Frontend.elaborate ~name:"fuzz" (Q.Parser.parse_tokens toks)
          in
          let key c = (Circuit.name c, Circuit.num_qubits c, Circuit.gates c) in
          match
            ( outcome (fun () -> Q.Frontend.of_string ~name:"fuzz" src),
              outcome reference )
          with
          | Ok c, Ok c' when compare (key c) (key c') = 0 -> Pass
          | Error e, Error e' when e = e' -> Pass
          | got, want ->
            let show = function
              | Ok c -> Printf.sprintf "a %d-gate circuit" (Circuit.length c)
              | Error e -> Printexc.to_string e
            in
            failf "streaming gave %s, the list pipeline %s" (show got)
              (show want));
  }

(* ---------------- serve protocol crash safety ---------------- *)

(* The daemon's per-line loop leans entirely on Protocol.decode being
   total: a malformed line must come back as a structured error record,
   never as an exception that kills a reader thread. Feed the mutated
   bytes both raw and spliced into otherwise well-formed request
   envelopes (so the spec/jobs sub-parsers get fuzzed too), and hold the
   response decoder to the same standard. *)
let serve_protocol =
  let module SP = Qec_serve.Protocol in
  {
    name = "serve/protocol";
    description =
      "serve request/response line decoding is total: structured \
       Ok/Error on arbitrary bytes, never an exception";
    check =
      Source
        (fun src ->
          let lines =
            [
              src;
              Printf.sprintf {|{"op": %s}|} src;
              Json.to_string (Json.Obj [ ("op", Json.String src) ]);
              Printf.sprintf {|{"op": "compile", "id": "x", "spec": %s}|} src;
              Printf.sprintf {|{"op": "batch", "jobs": %s}|} src;
            ]
          in
          let check_request line =
            match SP.decode line with
            | Ok _ -> None
            | Error { Qec_engine.Engine_core.kind = "parse" | "bad-request"; _ }
              ->
              None
            | Error e ->
              Some
                (Printf.sprintf "decode produced unexpected kind %S" e.kind)
            | exception e ->
              Some ("Protocol.decode raised: " ^ Printexc.to_string e)
          in
          let check_response line =
            match SP.response_of_line line with
            | Ok _ | Error _ -> None
            | exception e ->
              Some ("Protocol.response_of_line raised: " ^ Printexc.to_string e)
          in
          match
            List.find_map
              (fun line ->
                match check_request line with
                | Some _ as bad -> bad
                | None -> check_response line)
              lines
          with
          | Some msg -> Fail msg
          | None -> Pass);
  }

(* ---------------- registry ---------------- *)

let all () =
  [
    trace_braid;
    trace_braid_swappy;
    trace_surgery;
    surgery_pipeline_bounds;
    sched_incremental_frontier;
    diff_backends;
    lookahead_never_worse;
    verify_certify;
    engine_spec_identity;
    engine_cache_identity;
    engine_batch_identity;
    qasm_roundtrip;
    lint_stable_codes;
    qasm_crash;
    qasm_stream;
    serve_protocol;
  ]

let names () = List.map (fun p -> p.name) (all ())

let find name = List.find_opt (fun p -> p.name = name) (all ())

let check_circuit p c =
  match p.check with Circuit f -> f c | Source _ -> Pass

let check_source p s = match p.check with Source f -> f s | Circuit _ -> Pass
