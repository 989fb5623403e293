(* Lexer, parser, elaborator and printer tests for the OpenQASM frontend. *)

module Lexer = Qec_qasm.Lexer
module Parser = Qec_qasm.Parser
module Ast = Qec_qasm.Ast
module Frontend = Qec_qasm.Frontend
module Printer = Qec_qasm.Printer
module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)

let tokens_of s = List.map (fun (t : Lexer.t) -> t.token) (Lexer.tokenize s)

let test_lex_kinds () =
  match tokens_of "cx q[0],q[1];" with
  | [ Lexer.Id "cx"; Id "q"; Lbracket; Integer 0; Rbracket; Comma; Id "q";
      Lbracket; Integer 1; Rbracket; Semicolon; Eof ] ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_numbers () =
  (match tokens_of "rz(0.5) q;" with
  | Lexer.Id "rz" :: Lparen :: Number f :: _ ->
    Alcotest.(check (float 1e-12)) "float" 0.5 f
  | _ -> Alcotest.fail "float token");
  match tokens_of "1e3" with
  | [ Lexer.Number f; Eof ] -> Alcotest.(check (float 1e-9)) "exp" 1000. f
  | _ -> Alcotest.fail "exponent literal"

let test_lex_arrow_minus () =
  (match tokens_of "a -> b" with
  | [ Lexer.Id "a"; Arrow; Id "b"; Eof ] -> ()
  | _ -> Alcotest.fail "arrow");
  match tokens_of "a - b" with
  | [ Lexer.Id "a"; Minus; Id "b"; Eof ] -> ()
  | _ -> Alcotest.fail "minus"

let test_lex_comments () =
  match tokens_of "h q; // a comment\nx q;" with
  | [ Lexer.Id "h"; Id "q"; Semicolon; Id "x"; Id "q"; Semicolon; Eof ] -> ()
  | _ -> Alcotest.fail "comment not skipped"

let test_lex_string () =
  match tokens_of "include \"qelib1.inc\";" with
  | [ Lexer.Id "include"; Str "qelib1.inc"; Semicolon; Eof ] -> ()
  | _ -> Alcotest.fail "string literal"

let test_lex_positions () =
  let toks = Lexer.tokenize "h q;\nx r;" in
  let x_tok = List.find (fun (t : Lexer.t) -> t.token = Lexer.Id "x") toks in
  check_int "line" 2 x_tok.line;
  check_int "col" 1 x_tok.col

let test_lex_error () =
  check_bool "bad char raises" true
    (match Lexer.tokenize "h @;" with
    | exception Lexer.Error { line = 1; _ } -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

(* Most structural tests match on [Ast.strip]ped statements; span threading
   itself is covered by the dedicated position tests below. *)
let parse_stmts src = Ast.strip (Parser.parse_string src)

let test_parse_headers () =
  match parse_stmts "OPENQASM 2.0;\ninclude \"qelib1.inc\";" with
  | [ Ast.Version "2.0"; Ast.Include "qelib1.inc" ] -> ()
  | _ -> Alcotest.fail "headers"

let test_parse_regs () =
  match parse_stmts "qreg q[3]; creg c[3];" with
  | [ Ast.Qreg ("q", 3); Ast.Creg ("c", 3) ] -> ()
  | _ -> Alcotest.fail "regs"

let test_parse_expr_precedence () =
  match parse_stmts "rz(1+2*3) q[0];" with
  | [ Ast.App { gparams = [ e ]; _ } ] ->
    Alcotest.(check (float 1e-9)) "1+2*3" 7. (Ast.eval_expr (fun _ -> 0.) e)
  | _ -> Alcotest.fail "expr stmt"

let eval_param src =
  match parse_stmts (Printf.sprintf "rz(%s) q[0];" src) with
  | [ Ast.App { gparams = [ e ]; _ } ] -> Ast.eval_expr (fun _ -> nan) e
  | _ -> Alcotest.fail "param"

let test_parse_expr_forms () =
  Alcotest.(check (float 1e-9)) "pi" Float.pi (eval_param "pi");
  Alcotest.(check (float 1e-9)) "pi/2" (Float.pi /. 2.) (eval_param "pi/2");
  Alcotest.(check (float 1e-9)) "-pi/4" (-.Float.pi /. 4.) (eval_param "-pi/4");
  Alcotest.(check (float 1e-9)) "paren" 9. (eval_param "(1+2)*3");
  Alcotest.(check (float 1e-9)) "pow right assoc" 512. (eval_param "2^3^2");
  Alcotest.(check (float 1e-9)) "sub chain" (-4.) (eval_param "1-2-3")

let test_parse_gate_decl () =
  let src = "gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }" in
  match parse_stmts src with
  | [ Ast.Gate_decl { name = "majority"; params = []; formals; body } ] ->
    Alcotest.(check (list string)) "formals" [ "a"; "b"; "c" ] formals;
    check_int "body" 3 (List.length body)
  | _ -> Alcotest.fail "gate decl"

let test_parse_measure_barrier () =
  match parse_stmts "measure q[0] -> c[0]; barrier q; reset q[1];" with
  | [ Ast.Measure (Ast.Indexed ("q", 0), Ast.Indexed ("c", 0));
      Ast.Barrier [ Ast.Whole "q" ];
      Ast.Reset (Ast.Indexed ("q", 1)) ] ->
    ()
  | _ -> Alcotest.fail "measure/barrier/reset"

let test_parse_unsupported () =
  check_bool "if rejected" true
    (match Parser.parse_string "if (c==0) x q[0];" with
    | exception Parser.Error _ -> true
    | _ -> false);
  check_bool "opaque rejected" true
    (match Parser.parse_string "opaque magic q;" with
    | exception Parser.Error _ -> true
    | _ -> false)

let test_parse_error_position () =
  match Parser.parse_string "qreg q[;" with
  | exception Parser.Error { line = 1; col; _ } -> check_bool "col" true (col > 1)
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Span threading: every node records the 1-based line/col of its first
   token, including applications inside gate-declaration bodies.        *)

let test_stmt_spans () =
  let src =
    String.concat ""
      [
        "OPENQASM 2.0;\n";
        "qreg q[2];\n";
        "creg c[2];\n";
        "h q[0];\n";
        "  cx q[0], q[1];\n";
        "measure q -> c;\n";
      ]
  in
  let spans =
    List.map
      (fun { Ast.pos; _ } -> (pos.Ast.line, pos.Ast.col))
      (Parser.parse_string src)
  in
  Alcotest.(check (list (pair int int)))
    "statement positions"
    [ (1, 1); (2, 1); (3, 1); (4, 1); (5, 3); (6, 1) ]
    spans

let test_gate_app_spans () =
  let src = "gate g a,b {\n  cx a,b;\n  h a;\n}\nqreg q[2];\ng q[0],q[1];" in
  match Parser.parse_string src with
  | [ { Ast.stmt = Ast.Gate_decl { body = [ app1; app2 ]; _ }; pos };
      { Ast.stmt = Ast.Qreg _; _ }; { Ast.stmt = Ast.App app; pos = apos } ] ->
    check_int "decl line" 1 pos.Ast.line;
    check_int "body app 1 line" 2 app1.Ast.gpos.Ast.line;
    check_int "body app 1 col" 3 app1.Ast.gpos.Ast.col;
    check_int "body app 2 line" 3 app2.Ast.gpos.Ast.line;
    check_bool "top-level gpos = node pos" true (app.Ast.gpos = apos)
  | _ -> Alcotest.fail "gate decl spans"

(* ------------------------------------------------------------------ *)
(* Frontend                                                             *)

let elab src = Frontend.of_string ~name:"test" src

let hdr = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

let test_frontend_error_spans () =
  (match elab (hdr ^ "qreg q[1];\nfrobnicate q[0];") with
  | exception Frontend.Unsupported { pos = Some { line; col }; _ } ->
    check_int "line" 4 line;
    check_int "col" 1 col
  | _ -> Alcotest.fail "expected positioned Unsupported");
  (* errors raised while expanding a user-gate body point at the
     application statement, not the declaration *)
  match elab (hdr ^ "qreg q[1];\ngate g a { rx(0.1) a; }\ng q[0], q[0];") with
  | exception Frontend.Unsupported { pos = Some { line; _ }; _ } ->
    check_int "line" 5 line
  | _ -> Alcotest.fail "expected positioned Unsupported"

let test_elab_basic () =
  let c = elab (hdr ^ "qreg q[2];\nh q[0];\ncx q[0],q[1];") in
  check_int "qubits" 2 (C.num_qubits c);
  check_int "gates" 2 (C.length c);
  check_bool "h then cx" true
    (G.equal (C.gate c 0) (G.H 0) && G.equal (C.gate c 1) (G.Cx (0, 1)))

let test_elab_broadcast () =
  let c = elab (hdr ^ "qreg q[3];\nh q;") in
  check_int "3 h gates" 3 (C.length c);
  let c = elab (hdr ^ "qreg a[3]; qreg b[3];\ncx a,b;") in
  check_int "3 cx" 3 (C.length c);
  check_bool "pairwise" true (G.equal (C.gate c 1) (G.Cx (1, 4)))

let test_elab_multi_registers () =
  let c = elab (hdr ^ "qreg a[2]; qreg b[2];\ncx a[1],b[0];") in
  check_bool "flattened indices" true (G.equal (C.gate c 0) (G.Cx (1, 2)))

let test_elab_builtins () =
  let c =
    elab
      (hdr
     ^ "qreg q[3];\n\
        t q[0]; tdg q[0]; s q[1]; sdg q[1]; x q[2]; y q[2]; z q[2];\n\
        rx(0.1) q[0]; ry(0.2) q[0]; rz(0.3) q[0]; p(0.4) q[1]; u1(0.5) q[1];\n\
        u2(0.1,0.2) q[2]; u3(0.1,0.2,0.3) q[2];\n\
        cz q[0],q[1]; cp(0.7) q[0],q[2]; crz(0.8) q[1],q[2]; swap q[0],q[1];\n\
        ccx q[0],q[1],q[2];\n\
        id q[0]; sx q[1]; sxdg q[2];")
  in
  check_bool "id emits nothing" true (C.count_if (fun _ -> true) c = 21);
  check_int "swaps" 1 (C.count_if (function G.Swap _ -> true | _ -> false) c);
  check_int "cphases (cp+crz)" 2
    (C.count_if (function G.Cphase _ -> true | _ -> false) c)

let test_elab_user_gate () =
  let src =
    hdr
    ^ "qreg q[3];\n\
       gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
       majority q[0],q[1],q[2];"
  in
  let c = elab src in
  check_int "expanded" 3 (C.length c);
  check_bool "ccx last" true (G.equal (C.gate c 2) (G.Ccx (0, 1, 2)))

let test_elab_user_gate_params () =
  let src =
    hdr
    ^ "qreg q[2];\n\
       gate rot(theta) a { rz(theta/2) a; rz(theta/2) a; }\n\
       rot(pi) q[0];"
  in
  let c = elab src in
  check_int "two rz" 2 (C.length c);
  match C.gate c 0 with
  | G.Rz (0, a) -> Alcotest.(check (float 1e-9)) "half pi" (Float.pi /. 2.) a
  | _ -> Alcotest.fail "expected rz"

let test_elab_nested_user_gates () =
  let src =
    hdr
    ^ "qreg q[2];\n\
       gate inner a { h a; }\n\
       gate outer a,b { inner a; cx a,b; inner b; }\n\
       outer q[0],q[1];"
  in
  check_int "nested expansion" 3 (C.length (elab src))

let test_elab_measure_reset () =
  let c = elab (hdr ^ "qreg q[2]; creg c[2];\nmeasure q -> c;\nreset q[0];") in
  check_int "3 measures (2 + reset)" 3
    (C.count_if (function G.Measure _ -> true | _ -> false) c)

let test_elab_errors () =
  check_bool "unknown gate" true
    (match elab (hdr ^ "qreg q[1];\nfrobnicate q[0];") with
    | exception Frontend.Unsupported _ -> true
    | _ -> false);
  check_bool "unknown register" true
    (match elab (hdr ^ "qreg q[1];\nh r[0];") with
    | exception Frontend.Unsupported _ -> true
    | _ -> false);
  check_bool "index out of range" true
    (match elab (hdr ^ "qreg q[2];\nh q[5];") with
    | exception Frontend.Unsupported _ -> true
    | _ -> false);
  check_bool "no qreg" true
    (match elab hdr with
    | exception Frontend.Unsupported _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                   *)

let test_print_parse_roundtrip () =
  let c =
    C.create ~name:"rt" ~num_qubits:3
      G.[
          H 0; X 1; Y 2; Z 0; S 1; Sdg 2; T 0; Tdg 1;
          Rx (0, 0.25); Ry (1, -1.5); Rz (2, 3.75);
          U3 (0, 0.1, 0.2, 0.3); Cx (0, 1); Cz (1, 2);
          Cphase (0, 2, 0.5); Swap (1, 2); Ccx (0, 1, 2);
          Barrier [ 0; 1; 2 ]; Measure 0;
        ]
  in
  let printed = Printer.to_string c in
  let c' = Frontend.of_string ~name:"rt" printed in
  check_int "same length" (C.length c) (C.length c');
  check_bool "same gates" true (C.gates c = C.gates c')

let gate_gen =
  QCheck.Gen.(
    let q = int_range 0 4 in
    let angle = map (fun i -> float_of_int i /. 7.) (int_range (-21) 21) in
    frequency
      [
        (3, map (fun a -> G.H a) q);
        (2, map (fun a -> G.T a) q);
        (2, map2 (fun a x -> G.Rz (a, x)) q angle);
        (4, map2 (fun a b -> G.Cx (a, b)) q q);
        (2, map3 (fun a b x -> G.Cphase (a, b, x)) q q angle);
        (1, map2 (fun a b -> G.Swap (a, b)) q q);
      ])

let circuit_gen =
  QCheck.Gen.(
    let* gs = list_size (int_range 0 40) gate_gen in
    let gs =
      List.filter
        (fun g ->
          let qs = G.qubits g in
          List.length (List.sort_uniq compare qs) = List.length qs)
        gs
    in
    return (C.create ~num_qubits:5 gs))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print c) = c" ~count:200
    (QCheck.make circuit_gen) (fun c ->
      let c' = Frontend.of_string (Printer.to_string c) in
      C.gates c = C.gates c')


(* ------------------------------------------------------------------ *)
(* Streaming: error precedence                                          *)

(* The streaming front end must report what lexing the whole input, then
   parsing it, then elaborating it reported: a lexer error anywhere beats
   a syntax error, which beats an elaboration error. *)
let list_pipeline src =
  match Lexer.tokenize src with
  | exception Lexer.Error { line; col; msg } ->
    raise (Parser.Error { line; col; msg })
  | toks -> Frontend.elaborate (Parser.parse_tokens toks)

let expect_parse_error ~line ~col ~msg src =
  List.iter
    (fun (what, f) ->
      match f src with
      | exception Parser.Error e ->
        Alcotest.(check (triple int int string))
          what (line, col, msg) (e.line, e.col, e.msg)
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: no error" what)
    [ ("stream", fun s -> Frontend.of_string s); ("list", list_pipeline) ]

let test_stream_lexer_error_wins () =
  expect_parse_error ~line:5 ~col:1 ~msg:"unexpected character '@'"
    "OPENQASM 2.0;\nqreg q[2];\nh q[0]\nx q[1];\n@\n"

let test_stream_syntax_error_wins () =
  expect_parse_error ~line:4 ~col:1 ~msg:"expected ;"
    "qreg q[2];\nfoo q[0];\nh q[1]\n"

let test_stream_elaboration_error_position () =
  let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nfoo q[1];\nx q[0];\n" in
  List.iter
    (fun (what, f) ->
      match f src with
      | exception Frontend.Unsupported { pos = Some p; msg } ->
        Alcotest.(check (triple int int string))
          what (4, 1, "unknown gate foo") (p.line, p.col, msg)
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: no error" what)
    [ ("stream", fun s -> Frontend.of_string s); ("list", list_pipeline) ]

let test_stream_iter_order () =
  let seen = ref [] in
  Parser.iter_string
    (fun n -> seen := n.Ast.pos.line :: !seen)
    "OPENQASM 2.0;\nqreg q[1];\n\nh q[0];";
  Alcotest.(check (list int)) "statements in order" [ 1; 2; 4 ] (List.rev !seen);
  let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];" in
  check_bool "parse_string = parse_tokens" true
    (Parser.parse_string src = Parser.parse_tokens (Lexer.tokenize src))

(* Robustness: arbitrary input must either parse or raise Parser.Error —
   never escape with an unexpected exception. *)
let printable_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 80))

let qasm_ish_gen =
  QCheck.Gen.(
    let token =
      oneofl
        [ "OPENQASM"; "2.0"; ";"; "qreg"; "creg"; "q"; "["; "]"; "3"; "h";
          "cx"; ","; "("; ")"; "pi"; "/"; "gate"; "{"; "}"; "measure"; "->";
          "barrier"; "0"; "1"; "x"; "rz"; "\n"; "\"s\"" ]
    in
    map (String.concat " ") (list_size (int_range 0 40) token))

let no_crash src =
  match Parser.parse_string src with
  | _ -> true
  | exception Parser.Error _ -> true
  | exception _ -> false

let no_crash_elab src =
  match Frontend.of_string src with
  | _ -> true
  | exception Parser.Error _ -> true
  | exception Frontend.Unsupported _ -> true
  | exception Qec_circuit.Circuit.Invalid _ -> true
  | exception _ -> false

let prop_fuzz_random =
  QCheck.Test.make ~name:"parser never crashes on random text" ~count:500
    (QCheck.make printable_gen) no_crash

let prop_fuzz_tokens =
  QCheck.Test.make ~name:"parser never crashes on token soup" ~count:500
    (QCheck.make qasm_ish_gen) no_crash

let prop_fuzz_elaborate =
  QCheck.Test.make ~name:"elaborator fails only with typed errors" ~count:500
    (QCheck.make qasm_ish_gen) no_crash_elab

let () =
  Alcotest.run "qasm"
    [
      ( "lexer",
        [
          Alcotest.test_case "kinds" `Quick test_lex_kinds;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "arrow/minus" `Quick test_lex_arrow_minus;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "strings" `Quick test_lex_string;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "errors" `Quick test_lex_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "headers" `Quick test_parse_headers;
          Alcotest.test_case "registers" `Quick test_parse_regs;
          Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "expression forms" `Quick test_parse_expr_forms;
          Alcotest.test_case "gate decl" `Quick test_parse_gate_decl;
          Alcotest.test_case "measure/barrier" `Quick test_parse_measure_barrier;
          Alcotest.test_case "unsupported" `Quick test_parse_unsupported;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
        ] );
      ( "spans",
        [
          Alcotest.test_case "statement spans" `Quick test_stmt_spans;
          Alcotest.test_case "gate body spans" `Quick test_gate_app_spans;
          Alcotest.test_case "frontend error spans" `Quick test_frontend_error_spans;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "basic" `Quick test_elab_basic;
          Alcotest.test_case "broadcast" `Quick test_elab_broadcast;
          Alcotest.test_case "multi register" `Quick test_elab_multi_registers;
          Alcotest.test_case "builtins" `Quick test_elab_builtins;
          Alcotest.test_case "user gate" `Quick test_elab_user_gate;
          Alcotest.test_case "user gate params" `Quick test_elab_user_gate_params;
          Alcotest.test_case "nested user gates" `Quick test_elab_nested_user_gates;
          Alcotest.test_case "measure/reset" `Quick test_elab_measure_reset;
          Alcotest.test_case "errors" `Quick test_elab_errors;
        ] );
      ( "stream",
        [
          Alcotest.test_case "lexer error beats earlier syntax error" `Quick
            test_stream_lexer_error_wins;
          Alcotest.test_case "syntax error beats earlier unknown gate" `Quick
            test_stream_syntax_error_wins;
          Alcotest.test_case "elaboration error keeps its position" `Quick
            test_stream_elaboration_error_position;
          Alcotest.test_case "statements in source order" `Quick
            test_stream_iter_order;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_random;
          QCheck_alcotest.to_alcotest prop_fuzz_tokens;
          QCheck_alcotest.to_alcotest prop_fuzz_elaborate;
        ] );
      ( "printer",
        [
          Alcotest.test_case "round trip" `Quick test_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
    ]
