exception Error of { line : int; col : int; msg : string }

(* One token of lookahead over a token source. [next] is called only to
   move past a token that is not [Eof]. *)
type state = { next : unit -> Lexer.t; mutable tok : Lexer.t }

let fail (tk : Lexer.t) msg = raise (Error { line = tk.line; col = tk.col; msg })

let peek st = st.tok

let advance st =
  match st.tok.token with Lexer.Eof -> () | _ -> st.tok <- st.next ()

let expect st tok what =
  let t = peek st in
  if t.token = tok then advance st else fail t ("expected " ^ what)

let expect_id st =
  let t = peek st in
  match t.token with
  | Lexer.Id s ->
    advance st;
    s
  | _ -> fail t "expected identifier"

let expect_int st =
  let t = peek st in
  match t.token with
  | Lexer.Integer i ->
    advance st;
    i
  | _ -> fail t "expected integer"

(* Expression grammar: additive > multiplicative > power > unary > atom. *)
let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = parse_multiplicative st in
  let rec go lhs =
    match (peek st).token with
    | Lexer.Plus ->
      advance st;
      go (Ast.Add (lhs, parse_multiplicative st))
    | Lexer.Minus ->
      advance st;
      go (Ast.Sub (lhs, parse_multiplicative st))
    | _ -> lhs
  in
  go lhs

and parse_multiplicative st =
  let lhs = parse_power st in
  let rec go lhs =
    match (peek st).token with
    | Lexer.Star ->
      advance st;
      go (Ast.Mul (lhs, parse_power st))
    | Lexer.Slash ->
      advance st;
      go (Ast.Div (lhs, parse_power st))
    | _ -> lhs
  in
  go lhs

and parse_power st =
  let base = parse_unary st in
  match (peek st).token with
  | Lexer.Caret ->
    advance st;
    (* right associative *)
    Ast.Pow (base, parse_power st)
  | _ -> base

and parse_unary st =
  match (peek st).token with
  | Lexer.Minus ->
    advance st;
    Ast.Neg (parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  let t = peek st in
  match t.token with
  | Lexer.Number f ->
    advance st;
    Ast.Num f
  | Lexer.Integer i ->
    advance st;
    Ast.Num (float_of_int i)
  | Lexer.Id "pi" ->
    advance st;
    Ast.Pi
  | Lexer.Id s ->
    advance st;
    Ast.Ident s
  | Lexer.Lparen ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.Rparen ")";
    e
  | _ -> fail t "expected expression"

let parse_arg st =
  let name = expect_id st in
  match (peek st).token with
  | Lexer.Lbracket ->
    advance st;
    let idx = expect_int st in
    expect st Lexer.Rbracket "]";
    Ast.Indexed (name, idx)
  | _ -> Ast.Whole name

let parse_args st =
  let rec go acc =
    let a = parse_arg st in
    match (peek st).token with
    | Lexer.Comma ->
      advance st;
      go (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  go []

let parse_params st =
  (* Optional parenthesized expression list after a gate name. *)
  match (peek st).token with
  | Lexer.Lparen ->
    advance st;
    if (peek st).token = Lexer.Rparen then begin
      advance st;
      []
    end
    else begin
      let rec go acc =
        let e = parse_expr st in
        match (peek st).token with
        | Lexer.Comma ->
          advance st;
          go (e :: acc)
        | _ ->
          expect st Lexer.Rparen ")";
          List.rev (e :: acc)
      in
      go []
    end
  | _ -> []

let pos_of (tk : Lexer.t) = { Ast.line = tk.line; col = tk.col }

let parse_gate_app st ~pos name =
  let gparams = parse_params st in
  let gargs = parse_args st in
  expect st Lexer.Semicolon ";";
  { Ast.gname = name; gparams; gargs; gpos = pos }

let parse_gate_decl st =
  let name = expect_id st in
  let params =
    match (peek st).token with
    | Lexer.Lparen ->
      advance st;
      if (peek st).token = Lexer.Rparen then begin
        advance st;
        []
      end
      else begin
        let rec go acc =
          let p = expect_id st in
          match (peek st).token with
          | Lexer.Comma ->
            advance st;
            go (p :: acc)
          | _ ->
            expect st Lexer.Rparen ")";
            List.rev (p :: acc)
        in
        go []
      end
    | _ -> []
  in
  let rec formals acc =
    let f = expect_id st in
    match (peek st).token with
    | Lexer.Comma ->
      advance st;
      formals (f :: acc)
    | _ -> List.rev (f :: acc)
  in
  let formals = formals [] in
  expect st Lexer.Lbrace "{";
  let rec body acc =
    let t = peek st in
    match t.token with
    | Lexer.Rbrace ->
      advance st;
      List.rev acc
    | Lexer.Id "barrier" ->
      advance st;
      let _ = parse_args st in
      expect st Lexer.Semicolon ";";
      body acc
    | Lexer.Id g ->
      advance st;
      body (parse_gate_app st ~pos:(pos_of t) g :: acc)
    | _ -> fail t "expected gate application in gate body"
  in
  let body = body [] in
  Ast.Gate_decl { name; params; formals; body }

let parse_stmt st : Ast.node option =
  let t = peek st in
  let at stmt = Some { Ast.stmt; pos = pos_of t } in
  match t.token with
  | Lexer.Eof -> None
  | Lexer.Id "OPENQASM" ->
    advance st;
    let v =
      match (peek st).token with
      | Lexer.Number f ->
        advance st;
        Printf.sprintf "%.1f" f
      | Lexer.Integer i ->
        advance st;
        string_of_int i
      | _ -> fail (peek st) "expected version number"
    in
    expect st Lexer.Semicolon ";";
    at (Ast.Version v)
  | Lexer.Id "include" ->
    advance st;
    let f =
      match (peek st).token with
      | Lexer.Str s ->
        advance st;
        s
      | _ -> fail (peek st) "expected file name string"
    in
    expect st Lexer.Semicolon ";";
    at (Ast.Include f)
  | Lexer.Id "qreg" ->
    advance st;
    let name = expect_id st in
    expect st Lexer.Lbracket "[";
    let size = expect_int st in
    expect st Lexer.Rbracket "]";
    expect st Lexer.Semicolon ";";
    at (Ast.Qreg (name, size))
  | Lexer.Id "creg" ->
    advance st;
    let name = expect_id st in
    expect st Lexer.Lbracket "[";
    let size = expect_int st in
    expect st Lexer.Rbracket "]";
    expect st Lexer.Semicolon ";";
    at (Ast.Creg (name, size))
  | Lexer.Id "gate" ->
    advance st;
    at (parse_gate_decl st)
  | Lexer.Id "measure" ->
    advance st;
    let src = parse_arg st in
    expect st Lexer.Arrow "->";
    let dst = parse_arg st in
    expect st Lexer.Semicolon ";";
    at (Ast.Measure (src, dst))
  | Lexer.Id "reset" ->
    advance st;
    let a = parse_arg st in
    expect st Lexer.Semicolon ";";
    at (Ast.Reset a)
  | Lexer.Id "barrier" ->
    advance st;
    let args = parse_args st in
    expect st Lexer.Semicolon ";";
    at (Ast.Barrier args)
  | Lexer.Id "if" -> fail t "classical control (if) is not supported"
  | Lexer.Id "opaque" -> fail t "opaque gates are not supported"
  | Lexer.Id g ->
    advance st;
    at (Ast.App (parse_gate_app st ~pos:(pos_of t) g))
  | _ -> fail t "expected statement"

(* Hand each statement to [f] as it parses; a syntax error goes to
   [on_error]. *)
let iter_stmts ?(on_error = raise) f st =
  let rec go () =
    match parse_stmt st with
    | None -> ()
    | Some s ->
      f s;
      go ()
    | exception (Error _ as e) -> on_error e
  in
  go ()

let collect iter =
  let acc = ref [] in
  iter (fun s -> acc := s :: !acc);
  List.rev !acc

(* The list source repeats its last token once exhausted. *)
let parse_tokens toks =
  let rest = ref toks in
  let next () =
    match !rest with
    | [] -> invalid_arg "Parser.parse_tokens: empty token list"
    | [ t ] -> t
    | t :: more ->
      rest := more;
      t
  in
  let st = { next; tok = next () } in
  collect (fun f -> iter_stmts f st)

let iter_string f src =
  let lx = Lexer.create src in
  let lex_rest e =
    (* A lexer error later in the input takes precedence. *)
    while (Lexer.next lx).token <> Lexer.Eof do () done;
    raise e
  in
  try
    iter_stmts ~on_error:lex_rest f
      { next = (fun () -> Lexer.next lx); tok = Lexer.next lx }
  with Lexer.Error { line; col; msg } -> raise (Error { line; col; msg })

let parse_string src = collect (fun f -> iter_string f src)
