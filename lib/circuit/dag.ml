module Int_set = Set.Make (Int)

type t = {
  circuit : Circuit.t;
  preds : int list array; (* ascending *)
  succs : int list array; (* ascending *)
}

let of_circuit circuit =
  let n = Circuit.length circuit in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  (* last.(q) = most recent gate touching qubit q, if any *)
  let last = Array.make (Circuit.num_qubits circuit) (-1) in
  Circuit.iter
    (fun i g ->
      let ps = ref Int_set.empty in
      List.iter
        (fun q ->
          if last.(q) >= 0 then ps := Int_set.add last.(q) !ps;
          last.(q) <- i)
        (Gate.qubits g);
      let ps = Int_set.elements !ps in
      preds.(i) <- ps;
      List.iter (fun p -> succs.(p) <- i :: succs.(p)) ps)
    circuit;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  (* succs accumulated in program order which is ascending already after
     reversal; dedupe is unnecessary because preds were deduped. *)
  { circuit; preds; succs }

let circuit t = t.circuit
let num_gates t = Array.length t.preds
let preds t i = t.preds.(i)
let succs t i = t.succs.(i)

(* max (acc, a.(p) + bump) over the predecessor list, with integer
   comparisons (the polymorphic [max] calls into the runtime). *)
let rec max_pred a bump acc = function
  | [] -> acc
  | p :: ps ->
    let v = a.(p) + bump in
    max_pred a bump (if v > acc then v else acc) ps

let asap_levels t =
  let n = num_gates t in
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    level.(i) <- max_pred level 1 0 t.preds.(i)
  done;
  level

let depth_of levels =
  let d = ref 0 in
  for i = 0 to Array.length levels - 1 do
    if levels.(i) >= !d then d := levels.(i) + 1
  done;
  !d

let depth t = depth_of (asap_levels t)

let layers t =
  let levels = asap_levels t in
  let out = Array.make (depth_of levels) [] in
  for i = num_gates t - 1 downto 0 do
    out.(levels.(i)) <- i :: out.(levels.(i))
  done;
  out

let critical_path ~cost t =
  let n = num_gates t in
  let finish = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    finish.(i) <-
      max_pred finish 0 0 t.preds.(i) + cost (Circuit.gate t.circuit i);
    if finish.(i) > !total then total := finish.(i)
  done;
  !total

let two_qubit_layer_histogram t =
  let per_layer =
    Array.map
      (fun ids ->
        List.length
          (List.filter
             (fun i -> Gate.is_two_qubit (Circuit.gate t.circuit i))
             ids))
      (layers t)
  in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      let cur = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (cur + 1))
    per_layer;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

module Frontier = struct
  type dag = t

  (* Pre-rewrite Int_set implementation, kept verbatim as the differential
     oracle for the bitset frontier below (see test_dag.ml and the
     sched/incremental-frontier property). Scheduled for deletion once the
     bitset frontier has survived a release. *)
  module Reference = struct
    type nonrec t = {
      dag : dag;
      indegree : int array;
      mutable ready_set : Int_set.t;
      mutable left : int;
    }

    let create dag =
      let n = num_gates dag in
      let indegree = Array.init n (fun i -> List.length dag.preds.(i)) in
      let ready_set = ref Int_set.empty in
      for i = 0 to n - 1 do
        if indegree.(i) = 0 then ready_set := Int_set.add i !ready_set
      done;
      { dag; indegree; ready_set = !ready_set; left = n }

    let ready t = Int_set.elements t.ready_set

    let complete t i =
      if not (Int_set.mem i t.ready_set) then
        invalid_arg (Printf.sprintf "Frontier.complete: gate %d not ready" i);
      t.ready_set <- Int_set.remove i t.ready_set;
      t.left <- t.left - 1;
      List.iter
        (fun s ->
          t.indegree.(s) <- t.indegree.(s) - 1;
          if t.indegree.(s) = 0 then t.ready_set <- Int_set.add s t.ready_set)
        t.dag.succs.(i)

    let is_done t = t.left = 0
    let remaining t = t.left
  end

  (* Bitset-backed frontier: the ready set is one bit per gate, updated in
     place as gates complete. [ready]/[iter_ready] visit members in
     ascending id order — exactly [Int_set.elements] of the reference —
     without the per-round tree rebalancing or list churn.

     Every ready gate lies in the window [lo .. hi] (empty when hi < lo).
     [complete] widens it to cover each gate it makes ready; a scan reads
     only the bitset words under the window and shrinks it to the first
     and last ready ids it visits. A deep, narrow circuit keeps a handful
     of ready gates, so a round reads a few words instead of the whole
     bitset. *)
  type nonrec t = {
    dag : dag;
    indegree : int array;
    ready_bits : Qec_util.Bitset.t;
    mutable lo : int;
    mutable hi : int;
    mutable left : int;
  }

  let widen t i =
    if i < t.lo then t.lo <- i;
    if i > t.hi then t.hi <- i

  let create dag =
    let n = num_gates dag in
    let indegree = Array.init n (fun i -> List.length dag.preds.(i)) in
    let t =
      {
        dag;
        indegree;
        ready_bits = Qec_util.Bitset.create n;
        lo = max_int;
        hi = -1;
        left = n;
      }
    in
    for i = 0 to n - 1 do
      if indegree.(i) = 0 then begin
        Qec_util.Bitset.add t.ready_bits i;
        widen t i
      end
    done;
    t

  (* The window restarts empty and grows back over what the scan visits,
     so a [complete] made from inside [f] still widens it correctly. *)
  let iter_ready f t =
    let lo = t.lo and hi = t.hi in
    t.lo <- max_int;
    t.hi <- -1;
    Qec_util.Bitset.iter_range
      (fun i ->
        widen t i;
        f i)
      t.ready_bits ~lo ~hi

  let ready t =
    let acc = ref [] in
    iter_ready (fun i -> acc := i :: !acc) t;
    List.rev !acc

  let complete t i =
    if not (Qec_util.Bitset.mem t.ready_bits i) then
      invalid_arg (Printf.sprintf "Frontier.complete: gate %d not ready" i);
    Qec_util.Bitset.remove t.ready_bits i;
    t.left <- t.left - 1;
    List.iter
      (fun s ->
        t.indegree.(s) <- t.indegree.(s) - 1;
        if t.indegree.(s) = 0 then begin
          Qec_util.Bitset.add t.ready_bits s;
          widen t s
        end)
      t.dag.succs.(i)

  let is_done t = t.left = 0
  let remaining t = t.left
end
