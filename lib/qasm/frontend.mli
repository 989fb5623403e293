(** Elaboration of parsed OpenQASM into a flat {!Qec_circuit.Circuit.t}.

    All quantum registers are flattened into one index space in declaration
    order. User-declared gates are macro-expanded at application sites.
    Supported built-ins: h x y z s sdg t tdg id sx sxdg rx ry rz p u1 u2 u3
    U cx CX cz cp cu1 crz swap ccx cswap measure reset barrier.

    Scheduling-preserving approximations (documented in DESIGN.md): [crz]
    is treated as [cp] (same interaction, different relative phase) and
    [reset] as a local measurement. *)

exception Unsupported of { pos : Ast.pos option; msg : string }
(** Raised on gate names or features outside the subset. [pos] is the
    source position of the offending statement when elaboration started
    from a parsed program; [None] for errors with no single source site
    (e.g. a program that declares no quantum register). *)

val is_builtin : string -> bool
(** True for the natively supported gate names listed above. *)

val builtin_signature : string -> (int * int) option
(** [(parameter count, operand count)] for a builtin gate name; [None]
    for unknown names. Used by [Qec_lint] to pre-flight applications
    before elaboration can raise {!Unsupported}. *)

val elaborate : ?name:string -> Ast.program -> Qec_circuit.Circuit.t
(** Elaborate the statements in order. Raises {!Unsupported}, or
    {!Qec_circuit.Circuit.Invalid} on inconsistent register use (bad
    index, arity mismatch, duplicate operand). *)

val of_string : ?name:string -> string -> Qec_circuit.Circuit.t
(** Lex, parse and elaborate in one pass: each statement from
    {!Parser.iter_string} is elaborated, by the same statement elaborator
    as {!elaborate}, as soon as it parses, so no token list or program
    AST is built. Errors are those of lexing the whole input, then
    parsing it, then elaborating it, in that precedence:
    + the first lexer error anywhere, as {!Parser.Error};
    + otherwise the first syntax error, as {!Parser.Error};
    + otherwise the first {!Unsupported} or
      {!Qec_circuit.Circuit.Invalid}.

    So after an elaboration error the rest of the input is still parsed
    (not elaborated), and a later lexer or syntax error is reported
    instead. *)

val of_file : string -> Qec_circuit.Circuit.t
(** Read the file, then {!of_string}; the circuit is named after the
    file's basename. Raises [Sys_error] on I/O failure. *)
