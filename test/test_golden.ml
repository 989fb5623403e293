(* Golden trace digests: fixtures/golden_traces.txt pins the MD5 of the
   exported trace (Export.trace_to_json) of every registry family at its
   fixture size under every registered backend and the greedy baseline
   with both routers, plus QFT-400 braid and greedy. Kernel rewrites of
   the router, occupancy, paths or the LLG analysis must keep every
   schedule byte-identical. On a mismatch the failure message lists the
   whole fixture as this build computes it. *)

module CB = Autobraid.Comm_backend
module Spec = Qec_engine.Spec

let golden_path =
  (* dune runtest runs in _build/default/test; fixtures sit next to it *)
  List.find Sys.file_exists
    [ "../fixtures/golden_traces.txt"; "fixtures/golden_traces.txt" ]

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
  | backend -> { base with backend }

let trace_digest ~circuit kind =
  match Qec_engine.Engine.run_spec (spec_of ~circuit kind) with
  | Error e -> Alcotest.failf "%s %s: %s" circuit kind e.message
  | Ok { trace = None; _ } -> Alcotest.failf "%s %s: no trace" circuit kind
  | Ok { trace = Some tr; _ } ->
    Qec_report.Export.trace_to_json tr
    |> Qec_report.Json.to_string |> Digest.string |> Digest.to_hex

let fixture_lines () =
  In_channel.with_open_text golden_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ circuit; kind; digest ] -> (circuit, kind, digest)
         | _ -> Alcotest.failf "malformed fixture line: %s" line)

let check_lines lines =
  let got =
    List.map (fun (c, k, _) -> (c, k, trace_digest ~circuit:c k)) lines
  in
  if got <> lines then
    Alcotest.failf "trace digests moved; this build computes:\n%s"
      (String.concat "\n"
         (List.map (fun (c, k, d) -> String.concat " " [ c; k; d ]) got))

let is_large (c, _, _) = c = "qft400"

(* Every registry family appears (as family ^ size) under every run
   kind. *)
let test_coverage () =
  let lines = fixture_lines () in
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

let () =
  Qec_engine.Engine.ensure_backends ();
  Alcotest.run "golden"
    [
      ( "traces",
        [
          Alcotest.test_case "fixture covers families x runs" `Quick
            test_coverage;
          Alcotest.test_case "registry families" `Quick (fun () ->
              check_lines
                (List.filter (fun l -> not (is_large l)) (fixture_lines ())));
          Alcotest.test_case "qft400 braid and greedy" `Slow (fun () ->
              check_lines (List.filter is_large (fixture_lines ())));
        ] );
    ]
