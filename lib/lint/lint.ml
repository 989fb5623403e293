module Ast = Qec_qasm.Ast
module Parser = Qec_qasm.Parser
module Frontend = Qec_qasm.Frontend
module D = Diagnostic

let syntax_error_code = "QL000"

let elaboration_error_code = "QL013"

let lint_program = Ast_lint.check

let lint_circuit ~file c = Circuit_lint.check ~file c @ Dataflow_lint.check ~file c

let lint_source ~file src =
  match Parser.parse_string src with
  | exception Parser.Error { line; col; msg } ->
    [
      D.make ~pos:{ Ast.line; col } ~code:syntax_error_code ~severity:D.Error
        ~file ("syntax error: " ^ msg);
    ]
  | program -> (
    let ast_diags = Ast_lint.check ~file program in
    if List.exists (fun (d : D.t) -> d.severity = D.Error) ast_diags then
      (* Elaboration would throw on (a superset of) these; stop here so every
         problem is reported as a span-carrying diagnostic, not an exception. *)
      ast_diags
    else
      match Frontend.elaborate ~name:file program with
      | circuit -> ast_diags @ lint_circuit ~file circuit
      | exception Frontend.Unsupported { pos; msg } ->
        ast_diags
        @ [ D.make ?pos ~code:elaboration_error_code ~severity:D.Error ~file msg ]
      | exception Qec_circuit.Circuit.Invalid msg ->
        ast_diags
        @ [ D.make ~code:elaboration_error_code ~severity:D.Error ~file msg ])

let lint_file path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  (lint_source ~file:path src, src)

let effective_severity ~deny_warning (d : D.t) =
  if deny_warning && d.severity = D.Warning then D.Error else d.severity

let error_count ?(deny_warning = false) diags =
  List.length
    (List.filter (fun d -> effective_severity ~deny_warning d = D.Error) diags)

let exit_code ?(deny_warning = false) diags =
  if error_count ~deny_warning diags > 0 then 1 else 0

let summary ?(deny_warning = false) diags =
  let count sev =
    List.length
      (List.filter (fun d -> effective_severity ~deny_warning d = sev) diags)
  in
  Printf.sprintf "%d error(s), %d warning(s), %d info" (count D.Error)
    (count D.Warning) (count D.Info)
