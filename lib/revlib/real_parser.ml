exception Error of { line : int; msg : string }

module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error { line; msg })) fmt

type operand = { qubit : int; negated : bool }

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* Strip an inline comment starting with '#'. *)
let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let mct builder lineno (ops : operand list) =
  match List.rev ops with
  | [] -> fail lineno "gate with no lines"
  | target :: rev_controls ->
    if target.negated then fail lineno "negative target is not meaningful";
    let controls = List.rev rev_controls in
    let neg = List.filter (fun o -> o.negated) controls in
    let conj () =
      List.iter (fun o -> C.Builder.add builder (G.X o.qubit)) neg
    in
    conj ();
    (match List.map (fun o -> o.qubit) controls with
    | [] -> C.Builder.add builder (G.X target.qubit)
    | [ c ] -> C.Builder.add builder (G.Cx (c, target.qubit))
    | [ c1; c2 ] -> C.Builder.add builder (G.Ccx (c1, c2, target.qubit))
    | cs -> C.Builder.add builder (G.Mcx (cs, target.qubit)));
    conj ()

let fredkin builder lineno (ops : operand list) =
  match List.rev ops with
  | b :: a :: rev_controls ->
    if a.negated || b.negated then fail lineno "negative swap target";
    let controls = List.rev rev_controls in
    (* cswap = three Toffoli-like gates; with extra controls each CX of the
       swap expansion gains the control set. *)
    let cxs = [ (a.qubit, b.qubit); (b.qubit, a.qubit); (a.qubit, b.qubit) ] in
    let neg = List.filter (fun o -> o.negated) controls in
    let conj () =
      List.iter (fun o -> C.Builder.add builder (G.X o.qubit)) neg
    in
    conj ();
    List.iter
      (fun (c, t) ->
        match List.map (fun o -> o.qubit) controls with
        | [] -> C.Builder.add builder (G.Cx (c, t))
        | [ c1 ] -> C.Builder.add builder (G.Ccx (c1, c, t))
        | cs -> C.Builder.add builder (G.Mcx (cs @ [ c ], t)))
      cxs;
    conj ()
  | [ _ ] | [] -> fail lineno "f gate expects at least two lines"

(* Controlled V (square root of X): one braid plus local gates — the same
   emulation Decompose uses for controlled roots. *)
let controlled_v builder lineno ~dagger (ops : operand list) =
  match ops with
  | [ c; t ] ->
    if c.negated || t.negated then fail lineno "negative control on v gate";
    let angle = if dagger then -.(Float.pi /. 2.) else Float.pi /. 2. in
    C.Builder.add builder (G.H t.qubit);
    C.Builder.add builder (G.Cphase (c.qubit, t.qubit, angle));
    C.Builder.add builder (G.H t.qubit)
  | _ -> fail lineno "v gate expects exactly two lines"

let of_string ?(name = "revlib") src =
  let lines = String.split_on_char '\n' src in
  let numvars = ref 0 in
  let var_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let builder = ref None in
  let in_body = ref false in
  let ended = ref false in
  let get_builder lineno =
    match !builder with
    | Some b -> b
    | None ->
      if !numvars = 0 then fail lineno "gate before .numvars";
      let b = C.Builder.create ~name ~num_qubits:!numvars () in
      builder := Some b;
      b
  in
  let operand lineno tok =
    let negated = String.length tok > 0 && tok.[0] = '-' in
    let base = if negated then String.sub tok 1 (String.length tok - 1) else tok in
    let qubit =
      match Hashtbl.find_opt var_index base with
      | Some i -> i
      | None -> (
        (* Files without .variables use x0, x1, ... or bare indices. *)
        match int_of_string_opt base with
        | Some i when i >= 0 && i < !numvars -> i
        | Some _ | None -> fail lineno "unknown variable %s" base)
    in
    { qubit; negated }
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let text = String.trim (strip_comment raw) in
      if text <> "" && not !ended then
        match split_ws text with
        | [] -> ()
        | directive :: rest when directive.[0] = '.' -> (
          match (String.lowercase_ascii directive, rest) with
          | ".version", _ | ".inputs", _ | ".outputs", _ | ".constants", _
          | ".garbage", _ | ".inputbus", _ | ".outputbus", _ | ".define", _ ->
            ()
          | ".numvars", [ n ] -> (
            match int_of_string_opt n with
            | Some v when v > 0 -> numvars := v
            | Some _ | None -> fail lineno "bad .numvars")
          | ".variables", vars ->
            if List.length vars <> !numvars then
              fail lineno ".variables count differs from .numvars";
            List.iteri (fun j v -> Hashtbl.replace var_index v j) vars
          | ".begin", _ -> in_body := true
          | ".end", _ -> ended := true
          | d, _ -> fail lineno "unknown directive %s" d)
        | kind :: args ->
          if not !in_body then fail lineno "gate outside .begin/.end";
          let b = get_builder lineno in
          let ops = List.map (operand lineno) args in
          let kl = String.lowercase_ascii kind in
          if kl = "v" then controlled_v b lineno ~dagger:false ops
          else if kl = "v+" then controlled_v b lineno ~dagger:true ops
          else if String.length kl >= 1 && kl.[0] = 't' then begin
            (match int_of_string_opt (String.sub kl 1 (String.length kl - 1)) with
            | Some k when k = List.length ops -> ()
            | Some _ -> fail lineno "%s arity mismatch" kind
            | None -> fail lineno "unknown gate %s" kind);
            mct b lineno ops
          end
          else if String.length kl >= 1 && kl.[0] = 'f' then begin
            (match int_of_string_opt (String.sub kl 1 (String.length kl - 1)) with
            | Some k when k = List.length ops && k >= 2 -> ()
            | Some _ -> fail lineno "%s arity mismatch" kind
            | None -> fail lineno "unknown gate %s" kind);
            fredkin b lineno ops
          end
          else fail lineno "unknown gate %s" kind)
    lines;
  match !builder with
  | Some b -> C.Builder.finish b
  | None ->
    if !numvars > 0 then
      C.Builder.finish (C.Builder.create ~name ~num_qubits:!numvars ())
    else fail 0 "no .numvars declaration"

let of_file path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  of_string ~name:(Filename.remove_extension (Filename.basename path)) src
