exception Unsupported of { pos : Ast.pos option; msg : string }

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Unsupported { pos = None; msg = s })) fmt

type decl = { params : string list; formals : string list; body : Ast.gate_app list }

type env = {
  name : string;
  qregs : (string, int * int) Hashtbl.t; (* name -> offset, size *)
  cregs : (string, int) Hashtbl.t; (* name -> size; values unused *)
  decls : (string, decl) Hashtbl.t;
  mutable builder : C.Builder.t option; (* created lazily after qregs known *)
  mutable total_qubits : int;
}

let builder env =
  match env.builder with
  | Some b -> b
  | None -> unsupported "gate application before any qreg declaration"

let resolve_index env reg i =
  match Hashtbl.find_opt env.qregs reg with
  | None -> unsupported "unknown quantum register %s" reg
  | Some (off, size) ->
    if i < 0 || i >= size then
      unsupported "index %d out of range for qreg %s[%d]" i reg size;
    off + i

(* Resolve an argument to the list of flat qubit indices it denotes:
   one for Indexed, the whole register for Whole. *)
let resolve_arg env = function
  | Ast.Indexed (reg, i) -> [ resolve_index env reg i ]
  | Ast.Whole reg -> (
    match Hashtbl.find_opt env.qregs reg with
    | None -> unsupported "unknown quantum register %s" reg
    | Some (off, size) -> List.init size (fun i -> off + i))

(* OpenQASM broadcasting: whole-register operands of equal size [s] expand
   an application into [s] copies; single-qubit operands are repeated. *)
let broadcast operand_lists =
  let sizes =
    List.filter_map
      (fun l -> if List.length l > 1 then Some (List.length l) else None)
      operand_lists
  in
  let width =
    match sizes with
    | [] -> 1
    | s :: rest ->
      if List.exists (( <> ) s) rest then
        unsupported "mismatched register sizes in broadcast application";
      s
  in
  List.init width (fun i ->
      List.map
        (fun l -> match l with [ q ] -> q | _ -> List.nth l i)
        operand_lists)

let add env g = C.Builder.add (builder env) g
let bad_arity gname = unsupported "%s: wrong operand count" gname
let one env gname f = function [ q ] -> add env (f q) | _ -> bad_arity gname

let two env gname f = function
  | [ a; b ] -> add env (f a b)
  | _ -> bad_arity gname

(* Apply a (possibly user-declared) gate to concrete qubits with concrete
   parameter values. One match on the name both recognises a built-in
   and applies it; any other name is a user gate, which expands
   recursively (QASM guarantees bodies reference only earlier
   declarations, so this terminates). Built-in names win over a user
   declaration of the same name. *)
let rec apply_gate env gname (ps : float list) (qs : int list) =
  let p i = List.nth ps i in
  match (gname, List.length ps) with
  | "h", 0 -> one env gname (fun q -> G.H q) qs
  | "x", 0 -> one env gname (fun q -> G.X q) qs
  | "y", 0 -> one env gname (fun q -> G.Y q) qs
  | "z", 0 -> one env gname (fun q -> G.Z q) qs
  | "s", 0 -> one env gname (fun q -> G.S q) qs
  | "sdg", 0 -> one env gname (fun q -> G.Sdg q) qs
  | "t", 0 -> one env gname (fun q -> G.T q) qs
  | "tdg", 0 -> one env gname (fun q -> G.Tdg q) qs
  | "id", 0 -> ( match qs with [ _ ] -> () | _ -> bad_arity gname)
  | "sx", 0 -> one env gname (fun q -> G.Rx (q, Float.pi /. 2.)) qs
  | "sxdg", 0 -> one env gname (fun q -> G.Rx (q, -.Float.pi /. 2.)) qs
  | "rx", 1 -> one env gname (fun q -> G.Rx (q, p 0)) qs
  | "ry", 1 -> one env gname (fun q -> G.Ry (q, p 0)) qs
  | "rz", 1 -> one env gname (fun q -> G.Rz (q, p 0)) qs
  | ("p" | "u1"), 1 -> one env gname (fun q -> G.Rz (q, p 0)) qs
  | "u2", 2 -> one env gname (fun q -> G.U3 (q, Float.pi /. 2., p 0, p 1)) qs
  | ("u3" | "u" | "U"), 3 ->
    one env gname (fun q -> G.U3 (q, p 0, p 1, p 2)) qs
  | ("cx" | "CX"), 0 -> two env gname (fun a b -> G.Cx (a, b)) qs
  | "cz", 0 -> two env gname (fun a b -> G.Cz (a, b)) qs
  | ("cp" | "cu1" | "crz"), 1 ->
    two env gname (fun a b -> G.Cphase (a, b, p 0)) qs
  | "swap", 0 -> two env gname (fun a b -> G.Swap (a, b)) qs
  | "ccx", 0 -> (
    match qs with
    | [ a; b; c ] -> add env (G.Ccx (a, b, c))
    | _ -> bad_arity gname)
  | "cswap", 0 -> (
    match qs with
    | [ c; x; y ] ->
      add env (G.Ccx (c, x, y));
      add env (G.Ccx (c, y, x));
      add env (G.Ccx (c, x, y))
    | _ -> bad_arity gname)
  | ( ( "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "id" | "sx"
      | "sxdg" | "rx" | "ry" | "rz" | "p" | "u1" | "u2" | "u3" | "u" | "U"
      | "cx" | "CX" | "cz" | "cp" | "cu1" | "crz" | "swap" | "ccx" | "cswap" ),
      _ ) ->
    unsupported "%s: wrong parameter count" gname
  | _ -> apply_user_gate env gname ps qs

and apply_user_gate env gname ps qs =
  match Hashtbl.find_opt env.decls gname with
  | None -> unsupported "unknown gate %s" gname
  | Some d ->
    if List.length ps <> List.length d.params then
      unsupported "%s: expected %d parameters" gname (List.length d.params);
    if List.length qs <> List.length d.formals then
      unsupported "%s: expected %d operands" gname (List.length d.formals);
    let param_env name =
      match List.combine d.params ps |> List.assoc_opt name with
      | Some v -> v
      | None -> unsupported "%s: unknown parameter %s" gname name
    in
    let qubit_of_formal f =
      match List.combine d.formals qs |> List.assoc_opt f with
      | Some q -> q
      | None -> unsupported "%s: unknown formal operand %s" gname f
    in
    List.iter
      (fun (app : Ast.gate_app) ->
        let ps' = List.map (Ast.eval_expr param_env) app.gparams in
        let qs' =
          List.map
            (function
              | Ast.Whole f -> qubit_of_formal f
              | Ast.Indexed _ ->
                unsupported "%s: indexing inside gate body" gname)
            app.gargs
        in
        apply_gate env app.gname ps' qs')
      d.body

let builtin_signature = function
  | "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "id" | "sx" | "sxdg" ->
    Some (0, 1)
  | "rx" | "ry" | "rz" | "p" | "u1" -> Some (1, 1)
  | "u2" -> Some (2, 1)
  | "u3" | "u" | "U" -> Some (3, 1)
  | "cx" | "CX" | "cz" | "swap" -> Some (0, 2)
  | "cp" | "cu1" | "crz" -> Some (1, 2)
  | "ccx" | "cswap" -> Some (0, 3)
  | _ -> None

let is_builtin name = builtin_signature name <> None

let no_params name = fun (_ : string) -> unsupported "%s: free parameter" name

let is_indexed = function Ast.Indexed _ -> true | Ast.Whole _ -> false

let elaborate_app env (app : Ast.gate_app) =
  let ps = List.map (Ast.eval_expr (no_params app.gname)) app.gparams in
  if List.for_all is_indexed app.gargs then
    (* Every operand is one qubit: nothing to broadcast. *)
    apply_gate env app.gname ps
      (List.map
         (function
           | Ast.Indexed (reg, i) -> resolve_index env reg i
           | Ast.Whole _ -> assert false (* excluded just above *))
         app.gargs)
  else
    let operand_lists = List.map (resolve_arg env) app.gargs in
    List.iter
      (fun qs -> apply_gate env app.gname ps qs)
      (broadcast operand_lists)

let create_env name =
  {
    name;
    qregs = Hashtbl.create 4;
    cregs = Hashtbl.create 4;
    decls = Hashtbl.create 16;
    builder = None;
    total_qubits = 0;
  }

let ensure_builder env =
  if Option.is_none env.builder && env.total_qubits > 0 then
    env.builder <-
      Some (C.Builder.create ~name:env.name ~num_qubits:env.total_qubits ())

let elaborate_stmt env (stmt : Ast.stmt) =
  match stmt with
  | Ast.Version v -> if v <> "2.0" then unsupported "OPENQASM version %s" v
  | Ast.Include _ -> () (* qelib1.inc built-ins are native *)
  | Ast.Qreg (reg, size) ->
    if Option.is_some env.builder then
      unsupported "qreg %s declared after first gate" reg;
    if Hashtbl.mem env.qregs reg then unsupported "duplicate qreg %s" reg;
    Hashtbl.add env.qregs reg (env.total_qubits, size);
    env.total_qubits <- env.total_qubits + size
  | Ast.Creg (reg, size) -> Hashtbl.replace env.cregs reg size
  | Ast.Gate_decl { name = gname; params; formals; body } ->
    Hashtbl.replace env.decls gname { params; formals; body }
  | Ast.App app ->
    ensure_builder env;
    elaborate_app env app
  | Ast.Measure (src, _dst) ->
    ensure_builder env;
    List.iter
      (fun q -> C.Builder.add (builder env) (G.Measure q))
      (resolve_arg env src)
  | Ast.Reset a ->
    ensure_builder env;
    (* Reset is a local (in-tile) operation; model it as a local
       measurement for scheduling purposes. *)
    List.iter
      (fun q -> C.Builder.add (builder env) (G.Measure q))
      (resolve_arg env a)
  | Ast.Barrier args ->
    ensure_builder env;
    let qs = List.concat_map (resolve_arg env) args in
    C.Builder.add (builder env) (G.Barrier (List.sort_uniq compare qs))

(* Attach the statement's source position to errors raised anywhere below
   it (including inside expanded user-gate bodies). *)
let elaborate_node env { Ast.stmt; pos } =
  try elaborate_stmt env stmt
  with Unsupported { pos = None; msg } ->
    raise (Unsupported { pos = Some pos; msg })

let finish env =
  ensure_builder env;
  match env.builder with
  | Some b -> C.Builder.finish b
  | None -> unsupported "program declares no quantum register"

let elaborate ?(name = "qasm") program =
  let env = create_env name in
  List.iter (elaborate_node env) program;
  finish env

(* Each statement is elaborated as soon as it parses. The first
   elaboration error is held until the whole input has parsed, so a lexer
   or syntax error anywhere in the input still takes precedence over it;
   later statements are parsed but not elaborated. *)
let of_string ?(name = "qasm") src =
  let env = create_env name in
  let failed = ref None in
  Parser.iter_string
    (fun node ->
      if Option.is_none !failed then
        try elaborate_node env node
        with e -> failed := Some (e, Printexc.get_raw_backtrace ()))
    src;
  match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> finish env

let of_file path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let name = Filename.remove_extension (Filename.basename path) in
  of_string ~name src
