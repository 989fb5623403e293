(** Recursive-descent parser: tokens → {!Ast.program}.

    The grammar reads one token source with one token of lookahead: a
    {!Lexer.state} pulled a token at a time ({!iter_string}), or a token
    list ({!parse_tokens}). {!iter_string} hands out each statement as
    soon as it parses, so no token list or whole-program AST is built.

    Error precedence is that of lexing the whole input before parsing
    any of it: the first lexer error anywhere in the input (re-raised as
    {!Error}) wins over a syntax error before it. On a syntax error,
    {!iter_string} therefore lexes the rest of the input and reports a
    later lexer error instead, if there is one. *)

exception Error of { line : int; col : int; msg : string }

val parse_tokens : Lexer.t list -> Ast.program
(** Parse a token list that ends with [Eof] (as {!Lexer.tokenize} returns
    it). Raises {!Error} on syntax errors and on OpenQASM features outside
    the supported subset ([if], [opaque]), and [Invalid_argument] on an
    empty list. *)

val iter_string : (Ast.node -> unit) -> string -> unit
(** [iter_string f src] lexes and parses [src] one statement at a time and
    calls [f] on each statement in source order, before the next one is
    parsed. Raises {!Error} on lexer and syntax errors, with the
    precedence above; statements before the error have already been
    passed to [f]. *)

val parse_string : string -> Ast.program
(** The statements of {!iter_string}, as a list. *)
