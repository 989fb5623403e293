(* Tests for the reliability analysis and the JSON/DOT/CSV exporters. *)

module S = Autobraid.Scheduler
module R = Autobraid.Reliability
module Json = Qec_report.Json
module Export = Qec_report.Export
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = Qec_surface.Timing.make ~d:33 ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Reliability                                                          *)

let test_exposure_positive () =
  let r = S.run timing (B.Qft.circuit 16) in
  let e = R.exposure_of_result timing r in
  check_bool "data > 0" true (e.R.data_blocks > 0.);
  check_bool "routing > 0" true (e.R.routing_blocks > 0.);
  check_bool "total = sum" true
    (abs_float (R.total_blocks e -. (e.R.data_blocks +. e.R.routing_blocks))
    < 1e-9)

let test_failure_probability_monotone_in_d () =
  let r = S.run timing (B.Qft.circuit 16) in
  let e = R.exposure_of_result timing r in
  let p33 = R.failure_probability ~d:33 e in
  let p43 = R.failure_probability ~d:43 e in
  check_bool "bigger d safer" true (p43 < p33);
  check_bool "probability range" true (p33 >= 0. && p33 <= 1.)

let test_faster_schedule_safer () =
  (* autobraid's shorter makespan must yield a lower failure probability
     than the baseline's at the same distance *)
  let c = B.Qft.circuit 36 in
  let auto = S.run timing c in
  let base = Gp_baseline.run timing c in
  let ratio = R.compare_schedules ~d:33 timing base auto in
  check_bool "baseline fails more often" true (ratio >= 1.

)

let test_distance_for_failure () =
  let r = S.run timing (B.Qft.circuit 16) in
  let e = R.exposure_of_result timing r in
  let d = R.distance_for_failure ~target:1e-9 e in
  check_bool "odd" true (d mod 2 = 1);
  check_bool "achieves" true (R.failure_probability ~d e <= 1e-9);
  check_bool "minimal" true
    (d = 3 || R.failure_probability ~d:(d - 2) e > 1e-9);
  check_bool "bad target" true
    (match R.distance_for_failure ~target:1.5 e with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)

let test_json_primitives () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "float int" "2.0" (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  Alcotest.(check string)
    "escapes" "\"a\\\"b\\\\c\\nd\""
    (Json.to_string (Json.String "a\"b\\c\nd"))

let test_json_compound () =
  let doc = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]) ] in
  Alcotest.(check string) "compact" "{\"xs\":[1,2]}" (Json.to_string doc);
  let pretty = Json.to_string ~indent:true doc in
  check_bool "indented has newlines" true (String.contains pretty '\n')

let test_json_member () =
  let doc = Json.Obj [ ("a", Json.Int 1) ] in
  check_bool "found" true (Json.member "a" doc = Some (Json.Int 1));
  check_bool "missing" true (Json.member "b" doc = None);
  check_bool "non-object" true (Json.member "a" (Json.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let test_result_json_fields () =
  let r = S.run timing (B.Qft.circuit 9) in
  let doc = Export.result_to_json r in
  check_bool "cycles" true
    (Json.member "total_cycles" doc = Some (Json.Int r.S.total_cycles));
  check_bool "name" true
    (Json.member "name" doc = Some (Json.String "qft9"));
  (* labelled bundle *)
  let bundle = Export.results_to_json [ ("a", r); ("b", r) ] in
  check_bool "has a" true (Json.member "a" bundle <> None)

let test_trace_json () =
  let _, trace = S.run_traced timing (B.Qft.circuit 9) in
  let doc = Export.trace_to_json ~max_rounds:3 trace in
  (match Json.member "rounds" doc with
  | Some (Json.List rs) -> check_int "limited" 3 (List.length rs)
  | _ -> Alcotest.fail "rounds missing");
  check_bool "num_rounds full" true
    (Json.member "num_rounds" doc
    = Some (Json.Int (Autobraid.Trace.num_rounds trace)))

let test_exposure_json () =
  let r = S.run timing (B.Qft.circuit 9) in
  let e = R.exposure_of_result timing r in
  let doc = Export.exposure_to_json ~d:33 e in
  check_bool "probability present" true
    (Json.member "failure_probability" doc <> None)

let test_coupling_dot () =
  let c = Qec_circuit.Circuit.create ~num_qubits:3
      Qec_circuit.Gate.[ Cx (0, 1); Cx (0, 1); Cx (1, 2) ]
  in
  let dot = Export.coupling_to_dot (Qec_circuit.Coupling.of_circuit c) in
  check_bool "graph" true (contains dot "graph coupling");
  check_bool "edge with weight" true (contains dot "q0 -- q1 [label=\"2\"]");
  check_bool "second edge" true (contains dot "q1 -- q2")

let test_interference_dot () =
  let grid = Qec_lattice.Grid.create 6 in
  let p =
    Qec_lattice.Placement.create grid ~num_qubits:4
      ~cells:
        [| Qec_lattice.Grid.cell_id grid ~x:0 ~y:0;
           Qec_lattice.Grid.cell_id grid ~x:2 ~y:2;
           Qec_lattice.Grid.cell_id grid ~x:1 ~y:1;
           Qec_lattice.Grid.cell_id grid ~x:3 ~y:3 |]
  in
  let tasks =
    [ { Autobraid.Task.id = 0; q1 = 0; q2 = 1 };
      { Autobraid.Task.id = 1; q1 = 2; q2 = 3 } ]
  in
  let dot = Export.interference_to_dot p tasks in
  check_bool "nodes" true (contains dot "cx0" && contains dot "cx1");
  check_bool "edge (boxes overlap)" true (contains dot "cx0 -- cx1")

let test_p_curve_csv () =
  let _, curve =
    S.run_best_p ~grid_points:[ 0.0; 0.5 ] timing (B.Qft.circuit 9)
  in
  let csv = Export.p_curve_to_csv timing curve in
  let lines = String.split_on_char '\n' csv |> List.filter (( <> ) "") in
  check_int "header + 2 rows" 3 (List.length lines);
  check_bool "header" true (contains (List.hd lines) "p,cycles")


(* ------------------------------------------------------------------ *)
(* SVG                                                                  *)

let test_svg_braid_round () =
  let _, trace = S.run_traced timing (B.Qft.circuit 9) in
  let k =
    let rec go i = function
      | Autobraid.Trace.Braid { braids; _ } :: _ when braids <> [] -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> 0
    in
    go 0 trace.Autobraid.Trace.rounds
  in
  let svg = Qec_report.Svg.round_svg trace k in
  check_bool "svg root" true (contains svg "<svg");
  check_bool "closed" true (contains svg "</svg>");
  check_bool "has tiles" true (contains svg "<rect");
  check_bool "has qubit labels" true (contains svg ">q0<");
  check_bool "has a path" true
    (contains svg "<polyline" || contains svg "r=\"5\"")

let test_svg_swap_round () =
  let options = { S.default_options with threshold_p = 0.9 } in
  let _, trace = S.run_traced ~options timing (B.Qft.circuit 25) in
  let swap_round =
    let rec go i = function
      | Autobraid.Trace.Swap_layer _ :: _ -> Some i
      | _ :: rest -> go (i + 1) rest
      | [] -> None
    in
    go 0 trace.Autobraid.Trace.rounds
  in
  match swap_round with
  | None -> () (* no swaps triggered: nothing to render *)
  | Some k ->
    let svg = Qec_report.Svg.round_svg trace k in
    check_bool "dashed swap connector" true (contains svg "stroke-dasharray")

let test_svg_out_of_range () =
  let _, trace = S.run_traced timing (B.Bv.circuit 6) in
  check_bool "raises" true
    (match Qec_report.Svg.round_svg trace 99999 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_svg_save () =
  let _, trace = S.run_traced timing (B.Qft.circuit 9) in
  let path = Filename.temp_file "autobraid" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Qec_report.Svg.save_round path trace 0;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      check_bool "nonempty file" true (len > 100))

let () =
  Alcotest.run "report"
    [
      ( "reliability",
        [
          Alcotest.test_case "exposure" `Quick test_exposure_positive;
          Alcotest.test_case "monotone in d" `Quick test_failure_probability_monotone_in_d;
          Alcotest.test_case "faster is safer" `Quick test_faster_schedule_safer;
          Alcotest.test_case "distance for failure" `Quick test_distance_for_failure;
        ] );
      ( "json",
        [
          Alcotest.test_case "primitives" `Quick test_json_primitives;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compound" `Quick test_json_compound;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "svg",
        [
          Alcotest.test_case "braid round" `Quick test_svg_braid_round;
          Alcotest.test_case "swap round" `Quick test_svg_swap_round;
          Alcotest.test_case "out of range" `Quick test_svg_out_of_range;
          Alcotest.test_case "save" `Quick test_svg_save;
        ] );
      ( "export",
        [
          Alcotest.test_case "result json" `Quick test_result_json_fields;
          Alcotest.test_case "trace json" `Quick test_trace_json;
          Alcotest.test_case "exposure json" `Quick test_exposure_json;
          Alcotest.test_case "coupling dot" `Quick test_coupling_dot;
          Alcotest.test_case "interference dot" `Quick test_interference_dot;
          Alcotest.test_case "p-curve csv" `Quick test_p_curve_csv;
        ] );
    ]
