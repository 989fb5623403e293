exception Invalid of string

type t = { name : string; num_qubits : int; gates : Gate.t array }

let invalidf fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let check_range ~num_qubits i g q =
  if q < 0 || q >= num_qubits then
    invalidf "gate %d (%s): qubit q%d out of range [0,%d)" i (Gate.name g) q
      num_qubits

let duplicate_operand i g =
  invalidf "gate %d (%s): duplicate operand qubit" i (Gate.name g)

(* Every operand is range-checked in operand order before any duplicate
   check. Fixed-arity gates compare their operands directly; only [Mcx]
   and [Barrier] build an operand list and sort it. *)
let check_gate ~num_qubits i g =
  match (g : Gate.t) with
  | H q | X q | Y q | Z q | S q | Sdg q | T q | Tdg q | Measure q
  | Rx (q, _) | Ry (q, _) | Rz (q, _) | U3 (q, _, _, _) ->
    check_range ~num_qubits i g q
  | Cx (a, b) | Cz (a, b) | Cphase (a, b, _) | Swap (a, b) ->
    check_range ~num_qubits i g a;
    check_range ~num_qubits i g b;
    if a = b then duplicate_operand i g
  | Ccx (a, b, c) ->
    check_range ~num_qubits i g a;
    check_range ~num_qubits i g b;
    check_range ~num_qubits i g c;
    if a = b || a = c || b = c then duplicate_operand i g
  | Mcx _ | Barrier _ ->
    let qs = Gate.qubits g in
    List.iter (check_range ~num_qubits i g) qs;
    let rec has_dup = function
      | a :: (b :: _ as rest) -> a = b || has_dup rest
      | [ _ ] | [] -> false
    in
    if has_dup (List.sort Int.compare qs) then duplicate_operand i g

let validate t =
  if t.num_qubits <= 0 then invalidf "circuit %s: no qubits" t.name;
  Array.iteri (check_gate ~num_qubits:t.num_qubits) t.gates

let create ?(name = "circuit") ~num_qubits gates =
  let t = { name; num_qubits; gates = Array.of_list gates } in
  validate t;
  t

let name t = t.name
let num_qubits t = t.num_qubits
let gates t = t.gates
let gate t i = t.gates.(i)
let length t = Array.length t.gates

let count_if p t =
  Array.fold_left (fun acc g -> if p g then acc + 1 else acc) 0 t.gates

let two_qubit_count t = count_if Gate.is_two_qubit t
let single_qubit_count t = count_if Gate.is_single_qubit t

let iter f t = Array.iteri f t.gates

let append a b =
  if a.num_qubits <> b.num_qubits then
    invalidf "append: width mismatch (%d vs %d)" a.num_qubits b.num_qubits;
  { a with gates = Array.append a.gates b.gates }

let with_gates t gates =
  let t' = { t with gates } in
  validate t';
  t'

(* Each replacement list is built once and copied into an array of the
   exact output length. *)
let map_gates f t =
  let parts = Array.map f t.gates in
  let total = Array.fold_left (fun n gs -> n + List.length gs) 0 parts in
  let out = Array.make total (Gate.H 0) in
  let k = ref 0 in
  Array.iter
    (List.iter (fun g ->
         out.(!k) <- g;
         incr k))
    parts;
  with_gates t out

let with_name name t = { t with name }

let used_qubits t =
  let used = Array.make t.num_qubits false in
  Array.iter (fun g -> List.iter (fun q -> used.(q) <- true) (Gate.qubits g))
    t.gates;
  let out = ref [] in
  for q = t.num_qubits - 1 downto 0 do
    if used.(q) then out := q :: !out
  done;
  !out

let compact t =
  match used_qubits t with
  | [] -> { t with num_qubits = 1; gates = [||] }
  | used ->
    let map = Array.make t.num_qubits (-1) in
    List.iteri (fun i q -> map.(q) <- i) used;
    {
      t with
      num_qubits = List.length used;
      gates = Array.map (Gate.map_qubits (fun q -> map.(q))) t.gates;
    }

let pp ppf t =
  Format.fprintf ppf "@[<v># %s: %d qubits, %d gates@," t.name t.num_qubits
    (Array.length t.gates);
  Array.iter (fun g -> Format.fprintf ppf "%a@," Gate.pp g) t.gates;
  Format.fprintf ppf "@]"

module Builder = struct
  type circuit = t

  type t = {
    b_name : string;
    b_num_qubits : int;
    mutable rev_gates : Gate.t list;
    mutable count : int;
  }

  let create ?(name = "circuit") ~num_qubits () =
    if num_qubits <= 0 then invalidf "Builder.create: no qubits";
    { b_name = name; b_num_qubits = num_qubits; rev_gates = []; count = 0 }

  let add b g =
    check_gate ~num_qubits:b.b_num_qubits b.count g;
    b.rev_gates <- g :: b.rev_gates;
    b.count <- b.count + 1

  let add_list b gs = List.iter (add b) gs

  let length b = b.count

  let finish b : circuit =
    {
      name = b.b_name;
      num_qubits = b.b_num_qubits;
      gates = Array.of_list (List.rev b.rev_gates);
    }
end
