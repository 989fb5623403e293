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
    ]
