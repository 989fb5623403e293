let strip_barriers c =
  Circuit.map_gates
    (function Gate.Barrier _ -> [] | g -> [ g ])
    c

let swap_network a b = Gate.[| Cx (a, b); Cx (b, a); Cx (a, b) |]

let swaps_to_cx c =
  Circuit.map_gates
    (function
      | Gate.Swap (a, b) -> Array.to_list (swap_network a b) | g -> [ g ])
    c

(* Nielsen & Chuang Fig. 4.9: Toffoli in Clifford+T. *)
let ccx_network a b t =
  Gate.
    [|
      H t;
      Cx (b, t);
      Tdg t;
      Cx (a, t);
      T t;
      Cx (b, t);
      Tdg t;
      Cx (a, t);
      T b;
      T t;
      H t;
      Cx (a, b);
      T a;
      Tdg b;
      Cx (a, b);
    |]

let ccx_to_clifford_t c =
  Circuit.map_gates
    (function
      | Gate.Ccx (a, b, t) -> Array.to_list (ccx_network a b t) | g -> [ g ])
    c

(* Controlled V^(1/2^m) where V^2^m = X, emulated as one braid plus local
   gates. Only the interaction structure matters for scheduling; we use a
   controlled-phase sandwiched in Hadamards (a controlled X-axis rotation),
   with [dagger] flipping the angle sign. *)
let controlled_root ~dagger ~m c t =
  let angle = Float.pi /. float_of_int (1 lsl m) in
  let angle = if dagger then -.angle else angle in
  Gate.[ H t; Cphase (c, t, angle); H t ]

(* Ancilla-free Barenco-style recursion. [root_m = 0] means a plain
   multi-controlled X; [root_m = m > 0] means multi-controlled V^(1/2^m).
   C^k U = CR(ck,t) . C^{k-1}X(c1..ck-1 -> ck) . CR^†(ck,t)
         . C^{k-1}X(c1..ck-1 -> ck) . C^{k-1}R(c1..ck-1 -> t)
   where R = sqrt U. *)
let rec mcu_free ~root_m controls target =
  match controls with
  | [] -> invalid_arg "Decompose.mcu_free: no controls"
  | [ c ] ->
    if root_m = 0 then [ Gate.Cx (c, target) ]
    else controlled_root ~dagger:false ~m:root_m c target
  | [ a; b ] when root_m = 0 -> [ Gate.Ccx (a, b, target) ]
  | _ ->
    let rec split acc = function
      | [ last ] -> (List.rev acc, last)
      | x :: rest -> split (x :: acc) rest
      | [] -> assert false
    in
    let front, last = split [] controls in
    controlled_root ~dagger:false ~m:(root_m + 1) last target
    @ mcu_free ~root_m:0 front last
    @ controlled_root ~dagger:true ~m:(root_m + 1) last target
    @ mcu_free ~root_m:0 front last
    @ mcu_free ~root_m:(root_m + 1) front target

(* Linear-size ladder with k-2 ancillas: AND-accumulate all but the last
   control into ancilla qubits, combine the last control in the final
   Toffoli onto the target, then uncompute. 2(k-2)+1 Toffolis total. *)
let mcx_ladder controls target ancillas =
  match (controls, List.rev controls) with
  | c1 :: c2 :: _, last :: _ when List.length controls >= 3 ->
    let middle =
      (* controls strictly between the first two and the last *)
      List.filteri
        (fun i _ -> i >= 2 && i < List.length controls - 1)
        controls
    in
    let compute = ref [ Gate.Ccx (c1, c2, List.hd ancillas) ] in
    let rec accumulate prev anc_left = function
      | [] -> prev
      | c :: cs -> (
        match anc_left with
        | a :: more ->
          compute := Gate.Ccx (c, prev, a) :: !compute;
          accumulate a more cs
        | [] -> invalid_arg "Decompose.mcx_ladder: not enough ancillas")
    in
    let top = accumulate (List.hd ancillas) (List.tl ancillas) middle in
    let compute = List.rev !compute in
    let uncompute = List.rev compute in
    compute @ [ Gate.Ccx (last, top, target) ] @ uncompute
  | _ -> invalid_arg "Decompose.mcx_ladder: fewer than 3 controls"

let mcx_gates ?ancillas controls target =
  let k = List.length controls in
  if k < 3 then invalid_arg "Decompose.mcx_gates: use Cx/Ccx for < 3 controls";
  let operands = target :: controls in
  match ancillas with
  | Some anc ->
    if List.exists (fun a -> List.mem a operands) anc then
      invalid_arg "Decompose.mcx_gates: ancilla overlaps operands";
    if List.length anc < k - 2 then
      invalid_arg "Decompose.mcx_gates: need at least k-2 ancillas";
    mcx_ladder controls target anc
  | None ->
    if k > 8 then
      invalid_arg
        "Decompose.mcx_gates: ancilla-free recursion capped at 8 controls";
    mcu_free ~root_m:0 controls target

let lower_mcx ?ancillas c =
  Circuit.map_gates
    (function
      | Gate.Mcx (cs, t) -> mcx_gates ?ancillas cs t
      | g -> [ g ])
    c

(* One pass per gate, in the order of the four whole-circuit passes:
   drop a barrier, expand an [Mcx] (ancilla-free), then rewrite every
   [Ccx] and [Swap] of the result. The output length is counted first,
   keeping each [Mcx]'s expansion for the fill, so the output array has
   exactly its final size. *)
let to_scheduler_gates c =
  (* a gate's length after the Ccx and Swap rewrites *)
  let narrow_size = function Gate.Ccx _ -> 15 | Gate.Swap _ -> 3 | _ -> 1 in
  let expansions = Queue.create () in
  let total =
    Array.fold_left
      (fun n g ->
        match (g : Gate.t) with
        | Barrier _ -> n
        | Mcx (cs, t) ->
          let gs = mcx_gates cs t in
          Queue.push gs expansions;
          List.fold_left (fun n g -> n + narrow_size g) n gs
        | g -> n + narrow_size g)
      0 (Circuit.gates c)
  in
  let out = Array.make total (Gate.H 0) in
  let blit k network =
    let len = Array.length network in
    Array.blit network 0 out k len;
    k + len
  in
  let write k g =
    match (g : Gate.t) with
    | Ccx (a, b, t) -> blit k (ccx_network a b t)
    | Swap (a, b) -> blit k (swap_network a b)
    | g ->
      out.(k) <- g;
      k + 1
  in
  let filled =
    Array.fold_left
      (fun k g ->
        match (g : Gate.t) with
        | Barrier _ -> k
        | Mcx _ -> List.fold_left write k (Queue.pop expansions)
        | g -> write k g)
      0 (Circuit.gates c)
  in
  assert (filled = total);
  Circuit.with_gates c out
