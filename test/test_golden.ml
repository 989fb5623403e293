(* Golden digests. fixtures/golden_traces.txt pins the MD5 of the
   exported trace (Export.trace_to_json) of every registry family at its
   fixture size under every registered backend and the greedy baseline
   with both routers, plus QFT-400 braid and greedy. Kernel rewrites of
   the router, occupancy, paths or the LLG analysis must keep every
   schedule byte-identical. fixtures/golden_results.txt pins, for the
   same runs plus planar teleport and the best-p sweep, the MD5 of the
   result record and backend stats, which the trace does not determine
   (critical path, utilization, surgery volume). On a mismatch the
   failure message lists the whole fixture as this build computes it. *)

module CB = Autobraid.Comm_backend
module Spec = Qec_engine.Spec

let fixture name =
  (* dune runtest runs in _build/default/test; fixtures sit next to it *)
  List.find Sys.file_exists [ "../fixtures/" ^ name; "fixtures/" ^ name ]

let traces_path = fixture "golden_traces.txt"
let results_path = fixture "golden_results.txt"

(* A run kind as the fixture spells it: a registry backend name, or
   greedy-dimension / greedy-astar for the baseline's two routers. *)
let spec_of ~circuit kind =
  let base =
    {
      Spec.default with
      circuit;
      outputs = { trace = true; reliability = false; certificate = false };
    }
  in
  match kind with
  | "greedy-dimension" | "greedy-astar" ->
    let router = String.sub kind 7 (String.length kind - 7) in
    {
      base with
      scheduler = Spec.Baseline;
      backend_options = [ ("router", CB.Options.String router) ];
    }
  | "best-p" -> { base with best_p = true }
  | backend -> { base with backend }

let md5 json = Qec_report.Json.to_string json |> Digest.string |> Digest.to_hex

(* Each run once, shared by the trace and the result checks. *)
let runs = Hashtbl.create 64

let run_engine ~circuit kind =
  match Hashtbl.find_opt runs (circuit, kind) with
  | Some p -> p
  | None ->
    let p =
      match Qec_engine.Engine.run_spec (spec_of ~circuit kind) with
      | Error e -> Alcotest.failf "%s %s: %s" circuit kind e.message
      | Ok p -> p
    in
    Hashtbl.replace runs (circuit, kind) p;
    p

let trace_digest ~circuit kind =
  match run_engine ~circuit kind with
  | { trace = None; _ } -> Alcotest.failf "%s %s: no trace" circuit kind
  | { trace = Some tr; _ } -> md5 (Qec_report.Export.trace_to_json tr)

(* Planar teleport is not a registry backend: run its model directly at
   the engine's default distance and seed. *)
let teleport ~circuit ordering =
  Qec_planar.Teleport.run
    ~options:{ Qec_planar.Teleport.default_options with ordering }
    (Qec_surface.Timing.make ~d:Spec.default.d ())
    (Qec_benchmarks.Registry.build circuit)

let result_digest ~circuit kind =
  let module J = Qec_report.Json in
  let record result stats curve =
    J.Obj
      ([
         ("result", Qec_engine.Engine.result_json result);
         ("stats", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) stats));
       ]
      @
      match curve with
      | None -> []
      | Some c ->
        [
          ( "curve",
            J.List
              (List.map
                 (fun (p, r) ->
                   J.List [ J.Float p; Qec_engine.Engine.result_json r ])
                 c) );
        ])
  in
  match kind with
  | "teleport-stack" ->
    md5 (record (teleport ~circuit Qec_planar.Teleport.Stack) [] None)
  | "teleport-greedy" ->
    md5 (record (teleport ~circuit Qec_planar.Teleport.Greedy_shortest) [] None)
  | _ ->
    let p = run_engine ~circuit kind in
    md5 (record p.result p.stats p.curve)

let fixture_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ circuit; kind; digest ] -> (circuit, kind, digest)
         | _ -> Alcotest.failf "malformed fixture line: %s" line)

let check_lines ?(what = "trace") digest lines =
  let got = List.map (fun (c, k, _) -> (c, k, digest ~circuit:c k)) lines in
  if got <> lines then
    Alcotest.failf "%s digests moved; this build computes:\n%s" what
      (String.concat "\n"
         (List.map (fun (c, k, d) -> String.concat " " [ c; k; d ]) got))

let is_large (c, _, _) = c = "qft400"

(* Every registry family appears (as family ^ size) under every run
   kind. *)
let test_coverage () =
  let lines = fixture_lines traces_path in
  let family_of c =
    let i = ref (String.length c) in
    while !i > 0 && '0' <= c.[!i - 1] && c.[!i - 1] <= '9' do decr i done;
    String.sub c 0 !i
  in
  List.iter
    (fun (e : Qec_benchmarks.Registry.entry) ->
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (e.name ^ " " ^ kind ^ " in fixture")
            true
            (List.exists
               (fun (c, k, _) -> k = kind && family_of c = e.name)
               lines))
        ("greedy-dimension" :: "greedy-astar" :: CB.names ()))
    Qec_benchmarks.Registry.families

(* The result fixture covers every traced run. *)
let test_results_coverage () =
  let results = fixture_lines results_path in
  List.iter
    (fun (c, k, _) ->
      Alcotest.(check bool)
        (c ^ " " ^ k ^ " in result fixture")
        true
        (List.exists (fun (c', k', _) -> c = c' && k = k') results))
    (fixture_lines traces_path)

(* ---------------- QASM front end ---------------- *)

(* fixtures/golden_qasm.txt pins the front end: for every source, the MD5
   of its token stream (kind, payload, line, col) and of its elaborated
   circuit; for a fixed-seed corpus of Gen.mutate mutations of those
   sources, the exact outcome (the circuit's MD5, or the exception and
   its fields). *)

module Lexer = Qec_qasm.Lexer
module Parser = Qec_qasm.Parser
module Frontend = Qec_qasm.Frontend
module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate

let qasm_path = fixture "golden_qasm.txt"

(* (name, source): registry families as printed QASM, the Table-2
   RevLib instances lowered as perfbench writes them, and the QASM
   fixtures. *)
let qasm_sources =
  lazy
    (let print c =
       Qec_qasm.Printer.to_string (Qec_circuit.Decompose.lower_mcx c)
     in
     let families =
       List.map
         (fun (e : Qec_benchmarks.Registry.entry) ->
           let name = e.name ^ if e.name = "grover" then "16" else "64" in
           (name, print (Qec_benchmarks.Registry.build name)))
         Qec_benchmarks.Registry.families
     in
     let revlib =
       List.map
         (fun name -> (name, print (Qec_benchmarks.Registry.build name)))
         Qec_benchmarks.Building_blocks.names
     in
     let files dir =
       let dir = Filename.dirname qasm_path ^ dir in
       Sys.readdir dir |> Array.to_list |> List.sort compare
       |> List.filter (fun f -> Filename.check_suffix f ".qasm")
       |> List.map (fun f ->
              ( Filename.chop_suffix f ".qasm",
                In_channel.with_open_bin (Filename.concat dir f)
                  In_channel.input_all ))
     in
     families @ revlib @ files "" @ files "/regressions")

let hex buf = Buffer.contents buf |> Digest.string |> Digest.to_hex

let token_digest src =
  let buf = Buffer.create (4 * String.length src) in
  let add = Buffer.add_string buf in
  List.iter
    (fun (t : Lexer.t) ->
      (match t.token with
      | Lexer.Id s -> add "Id "; add s
      | Number f -> add "Number "; add (Printf.sprintf "%h" f)
      | Integer i -> add "Integer "; add (string_of_int i)
      | Str s -> add "Str "; add (String.escaped s)
      | Semicolon -> add ";"
      | Comma -> add ","
      | Lparen -> add "("
      | Rparen -> add ")"
      | Lbracket -> add "["
      | Rbracket -> add "]"
      | Lbrace -> add "{"
      | Rbrace -> add "}"
      | Arrow -> add "->"
      | Plus -> add "+"
      | Minus -> add "-"
      | Star -> add "*"
      | Slash -> add "/"
      | Caret -> add "^"
      | Eof -> add "Eof");
      add " ";
      add (string_of_int t.line);
      add " ";
      add (string_of_int t.col);
      add "\n")
    (Lexer.tokenize src);
  hex buf

let circuit_digest c =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let q i = add " "; add (string_of_int i) in
  let f x = add " "; add (Printf.sprintf "%h" x) in
  add (Circuit.name c);
  q (Circuit.num_qubits c);
  add "\n";
  Circuit.iter
    (fun _ g ->
      (match (g : Gate.t) with
      | H a -> add "h"; q a
      | X a -> add "x"; q a
      | Y a -> add "y"; q a
      | Z a -> add "z"; q a
      | S a -> add "s"; q a
      | Sdg a -> add "sdg"; q a
      | T a -> add "t"; q a
      | Tdg a -> add "tdg"; q a
      | Rx (a, v) -> add "rx"; q a; f v
      | Ry (a, v) -> add "ry"; q a; f v
      | Rz (a, v) -> add "rz"; q a; f v
      | U3 (a, t, p, l) -> add "u3"; q a; f t; f p; f l
      | Cx (a, b) -> add "cx"; q a; q b
      | Cz (a, b) -> add "cz"; q a; q b
      | Cphase (a, b, v) -> add "cp"; q a; q b; f v
      | Swap (a, b) -> add "swap"; q a; q b
      | Ccx (a, b, c) -> add "ccx"; q a; q b; q c
      | Mcx (cs, t) -> add "mcx"; List.iter q cs; q t
      | Measure a -> add "measure"; q a
      | Barrier qs -> add "barrier"; List.iter q qs);
      add "\n")
    c;
  hex buf

(* What Frontend.of_string answers: the circuit's digest or the
   exception with every field. *)
let outcome ~name src =
  match Frontend.of_string ~name src with
  | c -> "ok " ^ circuit_digest c
  | exception Parser.Error { line; col; msg } ->
    Printf.sprintf "Parser.Error %d:%d %S" line col msg
  | exception Lexer.Error { line; col; msg } ->
    Printf.sprintf "Lexer.Error %d:%d %S" line col msg
  | exception Frontend.Unsupported { pos; msg } ->
    Printf.sprintf "Unsupported %s %S"
      (match pos with
      | None -> "-"
      | Some { line; col } -> Printf.sprintf "%d:%d" line col)
      msg
  | exception Circuit.Invalid msg -> Printf.sprintf "Invalid %S" msg

let mutants = 300

let qasm_lines_sources () =
  List.concat_map
    (fun (name, src) ->
      [
        Printf.sprintf "tokens %s %s" name (token_digest src);
        Printf.sprintf "circuit %s %s" name (outcome ~name src);
      ])
    (Lazy.force qasm_sources)

(* Mutant i mutates source (i mod #sources) with Rng seed 20000 + i. *)
let qasm_lines_mutants () =
  let sources = Array.of_list (Lazy.force qasm_sources) in
  List.init mutants (fun i ->
      let name, src = sources.(i mod Array.length sources) in
      let m = Qec_prop.Gen.mutate (Qec_util.Rng.create (20_000 + i)) src in
      Printf.sprintf "mutant %d %s %s" i name (outcome ~name m))

let check_qasm ~kinds computed =
  let fixture =
    In_channel.with_open_text qasm_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l ->
           List.exists (fun k -> String.starts_with ~prefix:(k ^ " ") l) kinds)
  in
  if computed () <> fixture then
    Alcotest.failf "QASM front-end digests moved; this build computes:\n%s"
      (String.concat "\n" (qasm_lines_sources () @ qasm_lines_mutants ()))

let () =
  Qec_engine.Engine.ensure_backends ();
  Alcotest.run "golden"
    [
      ( "traces",
        [
          Alcotest.test_case "fixture covers families x runs" `Quick
            test_coverage;
          Alcotest.test_case "registry families" `Quick (fun () ->
              check_lines trace_digest
                (List.filter
                   (fun l -> not (is_large l))
                   (fixture_lines traces_path)));
          Alcotest.test_case "qft400 braid and greedy" `Slow (fun () ->
              check_lines trace_digest
                (List.filter is_large (fixture_lines traces_path)));
        ] );
      ( "results",
        [
          Alcotest.test_case "fixture covers traced runs" `Quick
            test_results_coverage;
          Alcotest.test_case "records and stats" `Quick (fun () ->
              check_lines ~what:"result" result_digest
                (List.filter
                   (fun l -> not (is_large l))
                   (fixture_lines results_path)));
          Alcotest.test_case "qft400 records" `Slow (fun () ->
              check_lines ~what:"result" result_digest
                (List.filter is_large (fixture_lines results_path)));
        ] );
      ( "qasm",
        [
          Alcotest.test_case "sources: tokens and circuits" `Quick (fun () ->
              check_qasm ~kinds:[ "tokens"; "circuit" ] qasm_lines_sources);
          Alcotest.test_case "mutants: outcomes" `Slow (fun () ->
              check_qasm ~kinds:[ "mutant" ] qasm_lines_mutants);
        ] );
    ]
