(* Tests for Qec_verify: the dataflow engine's known-answer cases, the
   certifier against real schedules and hand-built corrupted traces (one
   per invariant, every malformed round shape, and the round/gate each
   witness names), the adversarial mutation corpus (fixtures/
   mutations.json) as a kill-test, and the certificate JSON schema. *)

module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module T = Qec_surface.Timing
module SS = Qec_surgery.Surgery_scheduler
module B = Qec_benchmarks
module Bitset = Qec_util.Bitset
module Json = Qec_report.Json
module I = Qec_verify.Invariant
module V = Qec_verify.Certifier
module M = Qec_verify.Mutate
module Df = Qec_verify.Dataflow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let timing = T.make ~d:33 ()

let invariant_ids certs = List.map I.id certs

let expect_ok what cert =
  check_bool
    (Printf.sprintf "%s certifies clean (got: %s)" what (V.to_summary cert))
    true (V.ok cert)

let expect_failed what expected cert =
  Alcotest.(check (list string))
    (what ^ " failed invariants")
    (invariant_ids expected)
    (invariant_ids (V.failed cert))

(* ---------------- dataflow: known answers ---------------- *)

let test_live_after () =
  let c = C.create ~num_qubits:2 [ G.H 0; G.Cx (0, 1); G.H 1 ] in
  let live = Df.live_after c in
  Alcotest.(check (list (list int)))
    "liveness per gate"
    [ [ 0; 1 ]; [ 1 ]; [] ]
    (Array.to_list (Array.map Bitset.to_list live))

let test_default_cost () =
  check_int "local" 1 (Df.default_cost (G.H 0));
  check_int "two-qubit" 2 (Df.default_cost (G.Cx (0, 1)));
  check_int "barrier" 0 (Df.default_cost (G.Barrier [ 0; 1 ]))

let test_slack () =
  (* H0 -> CX(0,1) is the critical chain (1 + 2 = 3 units of d); the
     independent H2 finishes at 1 with tail 1, so its slack is 2. *)
  let c = C.create ~num_qubits:3 [ G.H 0; G.Cx (0, 1); G.H 2 ] in
  let slacks = Df.slack_analysis c in
  check_int "critical length" 3 (Df.critical_length slacks);
  Alcotest.(check (list (list int)))
    "per-gate (finish, tail, slack)"
    [ [ 1; 3; 0 ]; [ 3; 2; 0 ]; [ 1; 1; 2 ] ]
    (Array.to_list
       (Array.map
          (fun (s : Df.slack) -> [ s.earliest_finish; s.tail; s.slack ])
          slacks))

(* Five layer-0 CXs criss-crossing the 5x5 identity placement; the
   full-grid cx q0,q24 overlaps all four other bounding boxes. *)
let crossing =
  C.create ~num_qubits:25
    [ G.Cx (0, 24); G.Cx (4, 20); G.Cx (2, 22); G.Cx (10, 14); G.Cx (7, 17) ]

let test_congestion () =
  let pressure = Df.congestion_pressure crossing in
  check_int "one entry per two-qubit gate" 5 (List.length pressure);
  List.iter
    (fun (p : Df.congestion) -> check_int "all in ASAP layer 0" 0 p.layer)
    pressure;
  let degree_of id =
    (List.find (fun (p : Df.congestion) -> p.task.Autobraid.Task.id = id)
       pressure)
      .degree
  in
  check_int "full-grid gate contends with all others" 4 (degree_of 0)

let test_solve_rejects_bad_ordering () =
  (* a Forward edge to a larger id breaks the topological contract *)
  check_bool "Invalid_argument raised" true
    (match
       Df.solve ~n:2 ~direction:Df.Forward
         ~edges:(fun _ -> [ 1 ])
         ~init:0
         ~transfer:(fun _ acc -> acc)
         ~join:max
     with
    | (_ : int array) -> false
    | exception Invalid_argument _ -> true)

(* ---------------- certifier: real schedules ---------------- *)

let test_certify_braid () =
  let c = B.Qft.circuit 16 in
  let result, trace = S.run_traced timing c in
  let cert = V.certify ~backend:"braid" ~result timing trace in
  expect_ok "braid qft16" cert;
  check_int "independent cycles match the result" result.S.total_cycles
    cert.V.cycles_computed;
  check_int "traced cycles agree" cert.V.cycles_traced cert.V.cycles_computed;
  check_int "rounds" result.S.rounds cert.V.num_rounds;
  check_bool "backend recorded" true (cert.V.backend = Some "braid")

let test_certify_braid_with_swaps () =
  let options = { S.default_options with threshold_p = 0.9 } in
  let result, trace = S.run_traced ~options timing (B.Qft.circuit 25) in
  check_bool "swaps actually forced" true (result.S.swap_layers > 0);
  expect_ok "swappy qft25" (V.certify ~result timing trace)

let test_certify_surgery () =
  let result, trace, _stats = SS.run_traced timing (B.Qft.circuit 16) in
  let cert = V.certify ~backend:"surgery" ~result timing trace in
  expect_ok "surgery qft16" cert;
  check_int "independent cycles match the result" result.S.total_cycles
    cert.V.cycles_computed

(* ---------------- certifier: hand-built corruptions -------------------
   One trace per invariant, on a 2x2 grid with qubit i on cell i (vertex
   grid 3x3, row-major 0-8; cell 0 corners {0,1,3,4}, cell 1 {1,2,4,5},
   cell 2 {3,4,6,7}, cell 3 {4,5,7,8}). *)

let grid2 = Qec_lattice.Grid.create 2

let path vs = Qec_lattice.Path.of_vertices grid2 vs

let mk_trace circuit rounds =
  { Trace.circuit; grid = grid2; initial_cells = [| 0; 1; 2; 3 |]; rounds }

let c4 gates = C.create ~num_qubits:4 gates

let task id q1 q2 = { Autobraid.Task.id; q1; q2 }

let certified trace = V.certify timing trace

let test_hand_built_clean () =
  let t =
    mk_trace
      (c4 [ G.Cx (0, 1); G.Cx (2, 3) ])
      [
        Trace.Braid
          {
            braids = [ (task 0 0 1, path [ 0; 1 ]); (task 1 2 3, path [ 6; 7 ]) ];
            locals = [];
          };
      ]
  in
  let cert = certified t in
  expect_ok "hand-built braid" cert;
  check_int "2d cycles" (T.braid_cycles timing) cert.V.cycles_computed

let test_gate_out_of_range () =
  expect_failed "out-of-range id" [ I.Gate_exactly_once ]
    (certified (mk_trace (c4 [ G.H 0 ]) [ Trace.Local { gates = [ 5; 0 ] } ]))

let test_executed_twice () =
  expect_failed "double execution" [ I.Gate_exactly_once ]
    (certified
       (mk_trace (c4 [ G.H 0 ])
          [ Trace.Local { gates = [ 0 ] }; Trace.Local { gates = [ 0 ] } ]))

let test_never_executed () =
  expect_failed "dropped gate" [ I.Gate_exactly_once ]
    (certified
       (mk_trace (c4 [ G.H 0; G.H 1 ]) [ Trace.Local { gates = [ 0 ] } ]))

let test_dependency_order () =
  expect_failed "reordered chain" [ I.Gate_dependency_order ]
    (certified
       (mk_trace
          (c4 [ G.H 0; G.X 0 ])
          [ Trace.Local { gates = [ 1 ] }; Trace.Local { gates = [ 0 ] } ]))

let test_two_qubit_in_local () =
  expect_failed "cx in a local slot" [ I.Round_shape ]
    (certified (mk_trace (c4 [ G.Cx (0, 1) ]) [ Trace.Local { gates = [ 0 ] } ]))

let test_path_misses_tiles () =
  (* a perfectly valid channel path that never reaches q3's tile *)
  expect_failed "disconnected path" [ I.Path_channel ]
    (certified
       (mk_trace
          (c4 [ G.Cx (0, 3) ])
          [
            Trace.Braid { braids = [ (task 0 0 3, path [ 0; 1 ]) ]; locals = [] };
          ]))

let test_path_collision () =
  (* both paths connect their operand tiles but share vertex 4 *)
  expect_failed "colliding paths" [ I.Path_disjoint ]
    (certified
       (mk_trace
          (c4 [ G.Cx (0, 1); G.Cx (2, 3) ])
          [
            Trace.Braid
              {
                braids =
                  [ (task 0 0 1, path [ 1; 4 ]); (task 1 2 3, path [ 4; 7 ]) ];
                locals = [];
              };
          ]))

let test_swap_touches_twice () =
  expect_failed "overlapping swaps" [ I.Swap_legal ]
    (certified
       (mk_trace (c4 [ G.H 0 ])
          [
            Trace.Swap_layer { swaps = [ (0, 1); (1, 2) ] };
            Trace.Local { gates = [ 0 ] };
          ]))

(* Malformed rounds the scheduler never emits: each breaks only the round
   shape. *)
let expect_bad_shape what rounds gates =
  expect_failed what [ I.Round_shape ] (certified (mk_trace (c4 gates) rounds))

let test_braid_not_two_qubit () =
  expect_bad_shape "one-qubit gate braided"
    [ Trace.Braid { braids = [ (task 0 0 1, path [ 0; 1 ]) ]; locals = [] } ]
    [ G.H 0 ]

let test_task_operand_mismatch () =
  (* the task claims q2,q3 (and its path connects them); gate 0 acts on
     q0,q1 *)
  expect_bad_shape "task operands differ from the gate"
    [ Trace.Braid { braids = [ (task 0 2 3, path [ 6; 7 ]) ]; locals = [] } ]
    [ G.Cx (0, 1) ]

let test_empty_local_round () =
  expect_bad_shape "empty local round"
    [ Trace.Local { gates = [] }; Trace.Local { gates = [ 0 ] } ]
    [ G.H 0 ]

let test_braid_without_braids () =
  expect_bad_shape "braid round without braids"
    [ Trace.Braid { braids = []; locals = [ 0 ] } ]
    [ G.H 0 ]

let test_merge_without_merges () =
  expect_bad_shape "merge round without merges"
    [ Trace.Merge { merges = []; locals = [ 0 ]; split_overlapped = false } ]
    [ G.H 0 ]

let test_empty_swap_layer () =
  expect_bad_shape "empty swap layer"
    [ Trace.Swap_layer { swaps = [] }; Trace.Local { gates = [ 0 ] } ]
    [ G.H 0 ]

(* Witness pinpointing: a failed certificate must name the offending
   round and gate, not only the invariant, so each violation below is
   matched against its rendered witness. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_witness needle trace =
  let rendered = List.map V.witness_to_string (certified trace).V.witnesses in
  check_bool
    (Printf.sprintf "reports %S (got: %s)" needle (String.concat " | " rendered))
    true
    (List.exists (fun s -> contains_sub s needle) rendered)

let test_check_clean_hand_built () =
  let cert =
    certified
      (mk_trace
         (c4 [ G.Cx (0, 1); G.Cx (2, 3) ])
         [
           Trace.Braid
             {
               braids =
                 [ (task 0 0 1, path [ 0; 1 ]); (task 1 2 3, path [ 6; 7 ]) ];
               locals = [];
             };
         ])
  in
  check_int "hand-built valid trace has no witnesses" 0
    (List.length cert.V.witnesses);
  check_int "traced and recomputed cycles agree" cert.V.cycles_traced
    cert.V.cycles_computed

let test_check_gate_out_of_range () =
  expect_witness "gate/exactly-once: round 0, gate 5: gate id 5 out of range"
    (mk_trace (c4 [ G.H 0 ]) [ Trace.Local { gates = [ 5 ] } ])

let test_check_executed_twice () =
  expect_witness "gate/exactly-once: round 1, gate 0: gate 0 executed 2 times"
    (mk_trace (c4 [ G.H 0 ])
       [ Trace.Local { gates = [ 0 ] }; Trace.Local { gates = [ 0 ] } ])

let test_check_dependency_order () =
  expect_witness
    "gate/dependency-order: round 0, gate 1: gate 1 runs before its \
     program-order predecessor 0"
    (mk_trace
       (c4 [ G.H 0; G.X 0 ])
       [ Trace.Local { gates = [ 1 ] }; Trace.Local { gates = [ 0 ] } ])

let test_check_two_qubit_in_local_slot () =
  expect_witness
    "round/shape: round 0, gate 0: two-qubit gate 0 occupies a local slot"
    (mk_trace (c4 [ G.Cx (0, 1) ]) [ Trace.Local { gates = [ 0 ] } ])

let test_check_path_collision () =
  (* both paths connect their operand tiles but share vertex 4 *)
  expect_witness "path/disjoint: round 0, gate 1: gate 1's path shares vertex 4"
    (mk_trace
       (c4 [ G.Cx (0, 1); G.Cx (2, 3) ])
       [
         Trace.Braid
           {
             braids =
               [ (task 0 0 1, path [ 1; 4 ]); (task 1 2 3, path [ 4; 7 ]) ];
             locals = [];
           };
       ])

let test_check_path_disconnected () =
  (* q0 sits on cell 0, q3 on cell 3; [0;1] never touches cell 3 *)
  expect_witness
    "path/channel: round 0, gate 0: path endpoints are not corners of the \
     operand tiles of gate 0"
    (mk_trace
       (c4 [ G.Cx (0, 3) ])
       [ Trace.Braid { braids = [ (task 0 0 3, path [ 0; 1 ]) ]; locals = [] } ])

let test_check_swap_touches_twice () =
  expect_witness "swap/legal: round 0: swap layer touches qubit 1 twice"
    (mk_trace (c4 [ G.H 0 ])
       [
         Trace.Swap_layer { swaps = [ (0, 1); (1, 2) ] };
         Trace.Local { gates = [ 0 ] };
       ])

let test_check_overlap_on_final_round () =
  expect_witness
    "surgery/split-pipeline: round 0: split overlap claimed on the final round"
    (mk_trace
       (c4 [ G.Cx (0, 1) ])
       [
         Trace.Merge
           {
             merges = [ (task 0 0 1, path [ 0; 1 ]) ];
             locals = [];
             split_overlapped = true;
           };
       ])

let test_check_overlap_shares_qubits () =
  (* the round after the overlapped split touches merge qubit 0 *)
  expect_witness
    "surgery/split-pipeline: round 0: overlapped split and the next round \
     both touch qubit 0"
    (mk_trace
       (c4 [ G.Cx (0, 1); G.H 0 ])
       [
         Trace.Merge
           {
             merges = [ (task 0 0 1, path [ 0; 1 ]) ];
             locals = [];
             split_overlapped = true;
           };
         Trace.Local { gates = [ 1 ] };
       ])

let test_check_never_executed () =
  expect_witness "gate/exactly-once: gate 1: gate 1 never executed"
    (mk_trace (c4 [ G.H 0; G.H 1 ]) [ Trace.Local { gates = [ 0 ] } ])

(* Exact witness lists, in emission order, for path shapes the
   certifier must judge on its own. Path.of_vertices refuses repeated,
   non-adjacent and off-grid vertices, and the certifier must not rely on
   that, so [raw_path] builds the value with Path.t's runtime layout (a
   vertex list and its length); the guard fails loudly if that layout
   ever changes. *)
let raw_path vs =
  let p : Qec_lattice.Path.t = Obj.magic (vs, List.length vs) in
  if
    Qec_lattice.Path.vertices p <> vs
    || Qec_lattice.Path.length p <> List.length vs
  then Alcotest.fail "raw_path: Path.t layout changed";
  p

let expect_witnesses what expected trace =
  Alcotest.(check (list string))
    what expected
    (List.map V.witness_to_string (certified trace).V.witnesses)

let one_braid circuit ops =
  mk_trace circuit [ Trace.Braid { braids = ops; locals = [] } ]

let test_pin_shared_vertices () =
  (* gate 2's path 8-7-4-1 shares 8 and 7 with gate 1 and 1 with gate 0,
     listed in descending order: one witness per shared vertex,
     ascending *)
  let shares v =
    Printf.sprintf
      "path/disjoint: round 0, gate 2: gate 2's path shares vertex %d with \
       an earlier path in the round"
      v
  in
  expect_witnesses "three shared vertices" [ shares 1; shares 7; shares 8 ]
    (one_braid
       (c4 [ G.Cx (0, 1); G.Cx (2, 3); G.Cx (1, 3) ])
       [
         (task 0 0 1, path [ 0; 1 ]);
         (task 1 2 3, path [ 7; 8 ]);
         (task 2 1 3, path [ 8; 7; 4; 1 ]);
       ])

let test_pin_channel_before_disjoint () =
  (* every path's channel witnesses come before the round's disjointness
     witnesses; a revisited vertex shared with an earlier path is named
     once *)
  expect_witnesses "channel then disjoint"
    [
      "path/channel: round 0, gate 1: path revisits vertex 4";
      "path/disjoint: round 0, gate 1: gate 1's path shares vertex 4 with an \
       earlier path in the round";
    ]
    (one_braid
       (c4 [ G.Cx (0, 1); G.Cx (2, 3) ])
       [
         (task 0 0 1, path [ 1; 4 ]);
         (task 1 2 3, raw_path [ 7; 4; 3; 4; 7 ]);
       ])

let test_pin_revisit () =
  (* the channel walk stops at the first revisit (no adjacency witness
     for 1 -> 8), the endpoint check still runs *)
  expect_witnesses "revisit"
    [
      "path/channel: round 0, gate 0: path revisits vertex 1";
      "path/channel: round 0, gate 0: path endpoints are not corners of the \
       operand tiles of gate 0";
    ]
    (one_braid (c4 [ G.Cx (0, 1) ]) [ (task 0 0 1, raw_path [ 0; 1; 4; 1; 8 ]) ])

let test_pin_non_adjacent () =
  let not_adjacent v w =
    Printf.sprintf
      "path/channel: round 0, gate 0: path vertices %d and %d are not \
       channel-adjacent"
      v w
  in
  (* 2 -> 3 and 3 -> 2 wrap between rows: consecutive ids, not adjacent *)
  expect_witnesses "row wrap forward" [ not_adjacent 2 3 ]
    (one_braid (c4 [ G.Cx (0, 1) ]) [ (task 0 0 1, raw_path [ 1; 2; 3; 4 ]) ]);
  expect_witnesses "row wrap backward" [ not_adjacent 3 2 ]
    (one_braid (c4 [ G.Cx (0, 1) ]) [ (task 0 0 1, raw_path [ 4; 3; 2; 1 ]) ]);
  expect_witnesses "jump and diagonal"
    [
      not_adjacent 0 2;
      not_adjacent 4 8;
      "path/channel: round 0, gate 0: path endpoints are not corners of the \
       operand tiles of gate 0";
    ]
    (one_braid (c4 [ G.Cx (0, 1) ]) [ (task 0 0 1, raw_path [ 0; 2; 5; 4; 8 ]) ])

let test_pin_off_grid () =
  (* a vertex off the 3x3 vertex grid is one path/channel witness of its
     own, wherever it sits, and no adjacency witness with its
     neighbours *)
  let off v =
    Printf.sprintf
      "path/channel: round 0, gate 0: path vertex %d is off the grid" v
  in
  let endpoints =
    "path/channel: round 0, gate 0: path endpoints are not corners of the \
     operand tiles of gate 0"
  in
  let braid p = one_braid (c4 [ G.Cx (0, 1) ]) [ (task 0 0 1, p) ] in
  expect_witnesses "off-grid target" [ off 9; endpoints ]
    (braid (raw_path [ 0; 1; 9 ]));
  expect_witnesses "off-grid source" [ off (-1); endpoints ]
    (braid (raw_path [ -1; 0; 1 ]));
  expect_witnesses "off-grid after a revisit"
    [
      "path/channel: round 0, gate 0: path revisits vertex 1";
      off 12;
      endpoints;
    ]
    (braid (raw_path [ 1; 4; 1; 12 ]));
  (* a path built legally on a larger grid, in a trace on the smaller one:
     vertex 4 of the 5x5 vertex grid's right column is on the 3x3 grid,
     the rest of the column is not *)
  expect_witnesses "path from a larger grid"
    [ off 9; off 14; off 19; off 24; endpoints ]
    (braid
       (Qec_lattice.Path.of_vertices (Qec_lattice.Grid.create 4)
          [ 4; 9; 14; 19; 24 ]))

let merge_round ?(split_overlapped = false) ops =
  Trace.Merge { merges = ops; locals = []; split_overlapped }

let test_split_pipeline_conflict () =
  (* the overlapped split's next round touches merge qubit 0 *)
  expect_failed "conflicting overlap" [ I.Split_pipeline ]
    (certified
       (mk_trace
          (c4 [ G.Cx (0, 1); G.H 0 ])
          [
            merge_round ~split_overlapped:true [ (task 0 0 1, path [ 1; 4 ]) ];
            Trace.Local { gates = [ 1 ] };
          ]))

let test_split_pipeline_final_round () =
  expect_failed "overlap on final round" [ I.Split_pipeline ]
    (certified
       (mk_trace
          (c4 [ G.Cx (0, 1) ])
          [ merge_round ~split_overlapped:true [ (task 0 0 1, path [ 1; 4 ]) ] ]))

let test_split_pipeline_legal () =
  (* same shape, but the next round touches disjoint qubits: clean, and
     the split cost is folded into the next round *)
  let t =
    mk_trace
      (c4 [ G.Cx (0, 1); G.H 2 ])
      [
        merge_round ~split_overlapped:true [ (task 0 0 1, path [ 1; 4 ]) ];
        Trace.Local { gates = [ 1 ] };
      ]
  in
  let cert = certified t in
  expect_ok "legal overlap" cert;
  check_int "split cycles elided"
    (Qec_surface.Surgery_timing.merge_cycles timing
    + T.single_qubit_cycles timing)
    cert.V.cycles_computed

let test_cycle_account () =
  let result, trace = S.run_traced timing (B.Qft.circuit 9) in
  let lying = { result with S.total_cycles = result.S.total_cycles + 1 } in
  expect_failed "inflated total" [ I.Cycle_account ]
    (V.certify ~result:lying timing trace)

(* ---------------- mutation corpus ---------------- *)

(* dune runtest runs in _build/default/test; fixtures are copied next to
   the project root in the build tree *)
let fixture name =
  List.find Sys.file_exists
    [ Filename.concat "../fixtures" name; Filename.concat "fixtures" name ]

let corpus () =
  match
    Json.of_string
      (In_channel.with_open_bin (fixture "mutations.json") In_channel.input_all)
  with
  | Error msg -> Alcotest.failf "mutations.json unparsable: %s" msg
  | Ok json -> json

let json_string = function Json.String s -> Some s | _ -> None

let corpus_entries json =
  match Json.member "mutations" json with
  | Some (Json.List entries) ->
    List.map
      (fun e ->
        match
          ( Option.bind (Json.member "kind" e) json_string,
            Option.bind (Json.member "expected" e) json_string,
            Option.bind (Json.member "description" e) json_string )
        with
        | Some kind, Some expected, Some description ->
          (kind, expected, description)
        | _ -> Alcotest.fail "corpus entry missing kind/expected/description")
      entries
  | _ -> Alcotest.fail "corpus has no mutations list"

let test_corpus_matches_module () =
  let entries = corpus_entries (corpus ()) in
  check_int "all kinds covered" (List.length M.all) (List.length entries);
  List.iter
    (fun (kind, expected, description) ->
      match M.of_name kind with
      | None -> Alcotest.failf "corpus names unknown mutation %S" kind
      | Some k ->
        check_str (kind ^ " expected invariant") expected (I.id (M.expected k));
        check_str (kind ^ " description") description (M.description k);
        check_bool (kind ^ " expectation resolves") true
          (I.of_id expected = Some (M.expected k)))
    entries

(* Every corpus circuit, both backends, every mutation kind: wherever the
   mutation applies, the certificate must fail and name the expected
   invariant; and each kind must apply somewhere (no vacuous kill). *)
let test_mutations_killed () =
  let schedules =
    List.concat_map
      (fun name ->
        let c = Qec_qasm.Frontend.of_file (fixture name) in
        let rb, tb = S.run_traced timing c in
        let rs, ts, _ = SS.run_traced timing c in
        [ (name ^ "/braid", rb, tb); (name ^ "/surgery", rs, ts) ])
      [ "qft5.qasm"; "adder4.qasm"; "longrange8.qasm" ]
  in
  List.iter
    (fun kind ->
      let applied = ref 0 in
      List.iter
        (fun (what, result, trace) ->
          match M.apply kind timing result trace with
          | None -> ()
          | Some (result', trace') ->
            incr applied;
            let cert = V.certify ~result:result' timing trace' in
            check_bool
              (Printf.sprintf "%s under %s rejected (%s)" what (M.name kind)
                 (V.to_summary cert))
              false (V.ok cert);
            check_bool
              (Printf.sprintf "%s under %s names %s (got: %s)" what
                 (M.name kind)
                 (I.id (M.expected kind))
                 (String.concat ", " (invariant_ids (V.failed cert))))
              true
              (List.mem (M.expected kind) (V.failed cert)))
        schedules;
      check_bool
        (Printf.sprintf "%s applies to at least one schedule" (M.name kind))
        true (!applied > 0))
    M.all

(* ---------------- certificate JSON ---------------- *)

let test_certificate_json () =
  let result, trace = S.run_traced timing (B.Qft.circuit 9) in
  let json cert = Qec_report.Export.certificate_to_json cert in
  let clean = json (V.certify ~backend:"braid" ~result timing trace) in
  check_bool "schema tag" true
    (Json.member "schema" clean = Some (Json.String "autobraid-cert/v1"));
  check_bool "ok" true (Json.member "ok" clean = Some (Json.Bool true));
  (match Json.member "invariants" clean with
  | Some (Json.List invs) ->
    check_int "one entry per invariant" (List.length I.all) (List.length invs);
    List.iter
      (fun inv ->
        check_bool "each passes" true
          (Json.member "status" inv = Some (Json.String "pass")))
      invs
  | _ -> Alcotest.fail "invariants list missing");
  let lying = { result with S.total_cycles = result.S.total_cycles + 1 } in
  let broken = json (V.certify ~result:lying timing trace) in
  check_bool "ok false" true
    (Json.member "ok" broken = Some (Json.Bool false));
  match Json.member "invariants" broken with
  | Some (Json.List invs) ->
    let failed =
      List.filter
        (fun inv -> Json.member "status" inv = Some (Json.String "fail"))
        invs
    in
    check_int "exactly one failing entry" 1 (List.length failed);
    let entry = List.hd failed in
    check_bool "names cycles/account" true
      (Json.member "id" entry = Some (Json.String "cycles/account"));
    check_bool "carries witnesses" true
      (match Json.member "witnesses" entry with
      | Some (Json.List (_ :: _)) -> true
      | _ -> false)
  | _ -> Alcotest.fail "invariants list missing"

let () =
  Alcotest.run "verify"
    [
      ( "dataflow",
        [
          Alcotest.test_case "live_after" `Quick test_live_after;
          Alcotest.test_case "default_cost" `Quick test_default_cost;
          Alcotest.test_case "slack" `Quick test_slack;
          Alcotest.test_case "congestion" `Quick test_congestion;
          Alcotest.test_case "solver ordering contract" `Quick
            test_solve_rejects_bad_ordering;
        ] );
      ( "certify",
        [
          Alcotest.test_case "braid clean" `Quick test_certify_braid;
          Alcotest.test_case "braid with swaps" `Quick
            test_certify_braid_with_swaps;
          Alcotest.test_case "surgery clean" `Quick test_certify_surgery;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "hand-built clean" `Quick test_hand_built_clean;
          Alcotest.test_case "gate out of range" `Quick test_gate_out_of_range;
          Alcotest.test_case "executed twice" `Quick test_executed_twice;
          Alcotest.test_case "never executed" `Quick test_never_executed;
          Alcotest.test_case "dependency order" `Quick test_dependency_order;
          Alcotest.test_case "two-qubit in local slot" `Quick
            test_two_qubit_in_local;
          Alcotest.test_case "path misses tiles" `Quick test_path_misses_tiles;
          Alcotest.test_case "path collision" `Quick test_path_collision;
          Alcotest.test_case "swap touches twice" `Quick
            test_swap_touches_twice;
          Alcotest.test_case "split overlap conflict" `Quick
            test_split_pipeline_conflict;
          Alcotest.test_case "split overlap on final round" `Quick
            test_split_pipeline_final_round;
          Alcotest.test_case "legal split overlap" `Quick
            test_split_pipeline_legal;
          Alcotest.test_case "cycle account" `Quick test_cycle_account;
        ] );
      ( "check violations",
        [
          Alcotest.test_case "clean hand-built trace" `Quick
            test_check_clean_hand_built;
          Alcotest.test_case "gate id out of range" `Quick
            test_check_gate_out_of_range;
          Alcotest.test_case "executed twice" `Quick test_check_executed_twice;
          Alcotest.test_case "dependency order" `Quick
            test_check_dependency_order;
          Alcotest.test_case "two-qubit in local slot" `Quick
            test_check_two_qubit_in_local_slot;
          Alcotest.test_case "path collision" `Quick test_check_path_collision;
          Alcotest.test_case "braid not two-qubit" `Quick
            test_braid_not_two_qubit;
          Alcotest.test_case "task operand mismatch" `Quick
            test_task_operand_mismatch;
          Alcotest.test_case "empty local round" `Quick test_empty_local_round;
          Alcotest.test_case "braid without braids" `Quick
            test_braid_without_braids;
          Alcotest.test_case "merge without merges" `Quick
            test_merge_without_merges;
          Alcotest.test_case "empty swap layer" `Quick test_empty_swap_layer;
          Alcotest.test_case "path disconnected" `Quick
            test_check_path_disconnected;
          Alcotest.test_case "swap touches twice" `Quick
            test_check_swap_touches_twice;
          Alcotest.test_case "overlap on final round" `Quick
            test_check_overlap_on_final_round;
          Alcotest.test_case "overlap shares qubits" `Quick
            test_check_overlap_shares_qubits;
          Alcotest.test_case "never executed" `Quick test_check_never_executed;
        ] );
      ( "witness order",
        [
          Alcotest.test_case "shared vertices ascending" `Quick
            test_pin_shared_vertices;
          Alcotest.test_case "channel before disjoint" `Quick
            test_pin_channel_before_disjoint;
          Alcotest.test_case "revisited vertex" `Quick test_pin_revisit;
          Alcotest.test_case "non-adjacent steps" `Quick test_pin_non_adjacent;
          Alcotest.test_case "off-grid vertex" `Quick test_pin_off_grid;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "corpus matches module" `Quick
            test_corpus_matches_module;
          Alcotest.test_case "all mutations killed" `Quick
            test_mutations_killed;
        ] );
      ( "export",
        [ Alcotest.test_case "cert JSON schema" `Quick test_certificate_json ];
      );
    ]
