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
  | Arrow
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Eof

type t = { token : token; line : int; col : int }

exception Error of { line : int; col : int; msg : string }

let is_digit c = c >= '0' && c <= '9'

let is_id_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_id_char c = is_id_start c || is_digit c

(* Pull lexer: [pos] indexes [src] directly and a token's column is its
   offset from [bol], the offset where its line starts. *)
type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
}

let create src = { src; pos = 0; line = 1; bol = 0 }

let fail lx msg =
  raise (Error { line = lx.line; col = lx.pos - lx.bol + 1; msg })

let newline lx =
  lx.line <- lx.line + 1;
  lx.bol <- lx.pos + 1

let rec scan lx pred =
  if lx.pos < String.length lx.src && pred lx.src.[lx.pos] then begin
    lx.pos <- lx.pos + 1;
    scan lx pred
  end

let lex_number lx =
  let src = lx.src and start = lx.pos in
  let n = String.length src in
  let seen_dot = ref false and seen_exp = ref false in
  let rec go () =
    if lx.pos < n then
      match src.[lx.pos] with
      | '0' .. '9' ->
        lx.pos <- lx.pos + 1;
        go ()
      | '.' when not !seen_dot ->
        seen_dot := true;
        lx.pos <- lx.pos + 1;
        go ()
      | ('e' | 'E') when not !seen_exp ->
        seen_exp := true;
        seen_dot := true (* no dot after exponent *);
        lx.pos <- lx.pos + 1;
        if lx.pos < n && (src.[lx.pos] = '+' || src.[lx.pos] = '-') then
          lx.pos <- lx.pos + 1;
        go ()
      | _ -> ()
  in
  go ();
  let text = String.sub src start (lx.pos - start) in
  if !seen_dot then
    match float_of_string_opt text with
    | Some f -> Number f
    | None -> fail lx (Printf.sprintf "malformed number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Integer i
    | None -> fail lx (Printf.sprintf "malformed integer %S" text)

(* Strings may span lines; no escapes. *)
let lex_string lx =
  let src = lx.src in
  lx.pos <- lx.pos + 1 (* opening quote *);
  let start = lx.pos in
  let rec go () =
    if lx.pos >= String.length src then fail lx "unterminated string"
    else
      match src.[lx.pos] with
      | '"' -> ()
      | c ->
        if c = '\n' then newline lx;
        lx.pos <- lx.pos + 1;
        go ()
  in
  go ();
  lx.pos <- lx.pos + 1;
  Str (String.sub src start (lx.pos - 1 - start))

(* Skip whitespace and [//] comments. *)
let rec skip lx =
  let src = lx.src in
  if lx.pos < String.length src then
    match src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip lx
    | '\n' ->
      newline lx;
      lx.pos <- lx.pos + 1;
      skip lx
    | '/' when lx.pos + 1 < String.length src && src.[lx.pos + 1] = '/' ->
      scan lx (fun c -> c <> '\n');
      skip lx
    | _ -> ()

let punct lx token =
  lx.pos <- lx.pos + 1;
  token

let next lx =
  skip lx;
  let src = lx.src in
  let line = lx.line and col = lx.pos - lx.bol + 1 in
  let token =
    if lx.pos >= String.length src then Eof
    else
      match src.[lx.pos] with
      | ';' -> punct lx Semicolon
      | ',' -> punct lx Comma
      | '(' -> punct lx Lparen
      | ')' -> punct lx Rparen
      | '[' -> punct lx Lbracket
      | ']' -> punct lx Rbracket
      | '{' -> punct lx Lbrace
      | '}' -> punct lx Rbrace
      | '+' -> punct lx Plus
      | '*' -> punct lx Star
      | '^' -> punct lx Caret
      | '/' -> punct lx Slash
      | '-' ->
        if lx.pos + 1 < String.length src && src.[lx.pos + 1] = '>' then begin
          lx.pos <- lx.pos + 2;
          Arrow
        end
        else punct lx Minus
      | '"' -> lex_string lx
      | c when is_digit c || c = '.' -> lex_number lx
      | c when is_id_start c ->
        let start = lx.pos in
        scan lx is_id_char;
        Id (String.sub src start (lx.pos - start))
      | c -> fail lx (Printf.sprintf "unexpected character %C" c)
  in
  { token; line; col }

let tokenize src =
  let lx = create src in
  let rec go acc =
    match next lx with
    | { token = Eof; _ } as t -> List.rev (t :: acc)
    | t -> go (t :: acc)
  in
  go []
