(* Unit tests for circuit construction, validation and transforms. *)

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_create () =
  let c = C.create ~name:"t" ~num_qubits:3 G.[ H 0; Cx (0, 1); T 2 ] in
  check_int "qubits" 3 (C.num_qubits c);
  check_int "length" 3 (C.length c);
  Alcotest.(check string) "name" "t" (C.name c);
  check_bool "gate 1" true (G.equal (C.gate c 1) (G.Cx (0, 1)))

let test_out_of_range () =
  Alcotest.check_raises "oob"
    (C.Invalid "gate 0 (cx): qubit q3 out of range [0,3)") (fun () ->
      ignore (C.create ~num_qubits:3 [ G.Cx (0, 3) ]))

let test_duplicate_operand () =
  Alcotest.check_raises "dup" (C.Invalid "gate 0 (cx): duplicate operand qubit")
    (fun () -> ignore (C.create ~num_qubits:3 [ G.Cx (1, 1) ]))

(* Exact Circuit.Invalid messages: every operand is range-checked in
   operand order before any duplicate check, so an out-of-range operand
   is reported even when an earlier pair repeats, and the first
   out-of-range operand is the one named. *)
let invalid_cases =
  G.
    [
      ( "range before duplicate",
        Ccx (1, 1, 7),
        "gate 0 (ccx): qubit q7 out of range [0,5)" );
      ( "range before duplicate, cx",
        Cx (9, 9),
        "gate 0 (cx): qubit q9 out of range [0,5)" );
      ( "first of two out of range",
        Cx (6, 9),
        "gate 0 (cx): qubit q6 out of range [0,5)" );
      ( "first of two out of range, ccx",
        Ccx (0, 9, 6),
        "gate 0 (ccx): qubit q9 out of range [0,5)" );
      ( "negative operand",
        H (-1),
        "gate 0 (h): qubit q-1 out of range [0,5)" );
      ( "rz out of range",
        Rz (5, 0.5),
        "gate 0 (rz): qubit q5 out of range [0,5)" );
      ( "mcx control before target",
        Mcx ([ 0; 8; 1 ], 7),
        "gate 0 (mcx): qubit q8 out of range [0,5)" );
      ( "mcx target",
        Mcx ([ 0; 1; 2 ], 5),
        "gate 0 (mcx): qubit q5 out of range [0,5)" );
      ( "barrier out of range",
        Barrier [ 0; 0; 5 ],
        "gate 0 (barrier): qubit q5 out of range [0,5)" );
      ( "cx duplicate",
        Cx (1, 1),
        "gate 0 (cx): duplicate operand qubit" );
      ( "cz duplicate",
        Cz (4, 4),
        "gate 0 (cz): duplicate operand qubit" );
      ( "cphase duplicate",
        Cphase (2, 2, 0.5),
        "gate 0 (cp): duplicate operand qubit" );
      ( "swap duplicate",
        Swap (0, 0),
        "gate 0 (swap): duplicate operand qubit" );
      ( "ccx duplicate 0-1",
        Ccx (3, 3, 1),
        "gate 0 (ccx): duplicate operand qubit" );
      ( "ccx duplicate 0-2",
        Ccx (3, 1, 3),
        "gate 0 (ccx): duplicate operand qubit" );
      ( "ccx duplicate 1-2",
        Ccx (1, 3, 3),
        "gate 0 (ccx): duplicate operand qubit" );
      ( "mcx duplicate control",
        Mcx ([ 0; 1; 0 ], 2),
        "gate 0 (mcx): duplicate operand qubit" );
      ( "mcx target is a control",
        Mcx ([ 0; 1; 2 ], 1),
        "gate 0 (mcx): duplicate operand qubit" );
      ( "barrier duplicate",
        Barrier [ 0; 1; 0 ],
        "gate 0 (barrier): duplicate operand qubit" );
    ]

let test_invalid_messages () =
  List.iter
    (fun (what, g, msg) ->
      Alcotest.check_raises what (C.Invalid msg) (fun () ->
          ignore (C.create ~num_qubits:5 [ g ]));
      (* the gate index names the offending gate's position *)
      let shifted = "gate 2" ^ String.sub msg 6 (String.length msg - 6) in
      Alcotest.check_raises (what ^ ", third gate") (C.Invalid shifted)
        (fun () -> ignore (C.create ~num_qubits:5 G.[ H 0; X 1; g ])))
    invalid_cases

let test_invalid_messages_builder () =
  List.iter
    (fun (what, g, msg) ->
      let b = C.Builder.create ~num_qubits:5 () in
      C.Builder.add_list b G.[ H 0; Cx (0, 1) ];
      let shifted = "gate 2" ^ String.sub msg 6 (String.length msg - 6) in
      Alcotest.check_raises what (C.Invalid shifted) (fun () ->
          C.Builder.add b g);
      (* a rejected gate is not appended *)
      check_int (what ^ ": builder length") 2 (C.Builder.length b))
    invalid_cases

let test_no_qubits () =
  Alcotest.check_raises "empty" (C.Invalid "circuit x: no qubits") (fun () ->
      ignore (C.create ~name:"x" ~num_qubits:0 []))

let test_counts () =
  let c =
    C.create ~num_qubits:4 G.[ H 0; Cx (0, 1); Cz (2, 3); T 1; Barrier [ 0 ] ]
  in
  check_int "two qubit" 2 (C.two_qubit_count c);
  check_int "single" 2 (C.single_qubit_count c);
  check_int "barriers" 1
    (C.count_if (function G.Barrier _ -> true | _ -> false) c)

let test_append () =
  let a = C.create ~name:"a" ~num_qubits:2 [ G.H 0 ] in
  let b = C.create ~name:"b" ~num_qubits:2 [ G.Cx (0, 1) ] in
  let ab = C.append a b in
  check_int "length" 2 (C.length ab);
  Alcotest.(check string) "keeps first name" "a" (C.name ab);
  let c3 = C.create ~num_qubits:3 [] in
  Alcotest.check_raises "width mismatch"
    (C.Invalid "append: width mismatch (2 vs 3)") (fun () ->
      ignore (C.append a c3))

let test_map_gates () =
  let c = C.create ~num_qubits:2 G.[ H 0; Swap (0, 1) ] in
  let c' =
    C.map_gates
      (function
        | G.Swap (a, b) -> G.[ Cx (a, b); Cx (b, a); Cx (a, b) ] | g -> [ g ])
      c
  in
  check_int "expanded" 4 (C.length c');
  (* dropping gates works too *)
  let c'' = C.map_gates (function G.H _ -> [] | g -> [ g ]) c in
  check_int "dropped" 1 (C.length c'')

let test_iter_order () =
  let c = C.create ~num_qubits:2 G.[ H 0; H 1; Cx (0, 1) ] in
  let seen = ref [] in
  C.iter (fun i g -> seen := (i, G.name g) :: !seen) c;
  Alcotest.(check (list (pair int string)))
    "order"
    [ (0, "h"); (1, "h"); (2, "cx") ]
    (List.rev !seen)

let test_builder () =
  let b = C.Builder.create ~name:"built" ~num_qubits:2 () in
  C.Builder.add b (G.H 0);
  C.Builder.add_list b G.[ Cx (0, 1); T 1 ];
  check_int "builder length" 3 (C.Builder.length b);
  let c = C.Builder.finish b in
  check_int "circuit length" 3 (C.length c);
  (* builder keeps working after finish without affecting the snapshot *)
  C.Builder.add b (G.X 0);
  check_int "snapshot unchanged" 3 (C.length c);
  check_int "builder grew" 4 (C.Builder.length b)

let test_builder_validates_eagerly () =
  let b = C.Builder.create ~num_qubits:2 () in
  Alcotest.check_raises "eager"
    (C.Invalid "gate 0 (cx): qubit q5 out of range [0,2)") (fun () ->
      C.Builder.add b (G.Cx (0, 5)))

let test_with_name () =
  let c = C.create ~name:"old" ~num_qubits:1 [] in
  Alcotest.(check string) "renamed" "new" (C.name (C.with_name "new" c))

let prop_builder_equals_create =
  QCheck.Test.make ~name:"Builder.finish = create" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_bound 4) (int_bound 4)))
    (fun pairs ->
      let gates =
        List.filter_map
          (fun (a, b) -> if a <> b then Some (G.Cx (a, b)) else None)
          pairs
      in
      let via_create = C.create ~num_qubits:5 gates in
      let b = C.Builder.create ~num_qubits:5 () in
      List.iter (C.Builder.add b) gates;
      let via_builder = C.Builder.finish b in
      C.gates via_create = C.gates via_builder)

let () =
  Alcotest.run "circuit"
    [
      ( "circuit",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "duplicate operand" `Quick test_duplicate_operand;
          Alcotest.test_case "invalid messages" `Quick test_invalid_messages;
          Alcotest.test_case "no qubits" `Quick test_no_qubits;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "map_gates" `Quick test_map_gates;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "with_name" `Quick test_with_name;
        ] );
      ( "builder",
        [
          Alcotest.test_case "builder" `Quick test_builder;
          Alcotest.test_case "eager validation" `Quick test_builder_validates_eagerly;
          Alcotest.test_case "invalid messages" `Quick
            test_invalid_messages_builder;
          QCheck_alcotest.to_alcotest prop_builder_equals_create;
        ] );
    ]
