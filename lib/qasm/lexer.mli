(** Hand-written lexer for the OpenQASM 2.0 subset.

    A pull lexer: {!create} starts at the first byte of a source string
    and each {!next} returns one token, so a parser can consume tokens as
    they are made. {!tokenize} collects the whole stream, with the same
    tokens, positions and errors. *)

type token =
  | Id of string
  | Number of float
  | Integer of int
  | Str of string
  | Semicolon
  | Comma
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Arrow  (** [->] *)
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Eof

type t = { token : token; line : int; col : int }
(** A token with its source position (1-based). *)

exception Error of { line : int; col : int; msg : string }

type state
(** A position in a source string. *)

val create : string -> state
(** Start lexing at the first byte. *)

val next : state -> t
(** The next token. Comments ([// ...]) and whitespace are skipped, and
    at the end of input every call returns [Eof]. Raises {!Error} on an
    unexpected character or a malformed number or string; the state is
    then left where the error was found. *)

val tokenize : string -> t list
(** Every token of the input, by {!next}, ending with the [Eof] token.
    Raises the first {!Error}. *)
