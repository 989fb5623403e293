type t = { id : int; q1 : int; q2 : int }

let of_gate id g =
  match Qec_circuit.Gate.two_qubit_operands g with
  | Some (a, b) -> Some { id; q1 = a; q2 = b }
  | None -> None

let bbox placement t = Qec_lattice.Placement.cx_bbox placement t.q1 t.q2

let cells placement t =
  ( Qec_lattice.Placement.cell_of_qubit placement t.q1,
    Qec_lattice.Placement.cell_of_qubit placement t.q2 )

let distance placement t = Qec_lattice.Placement.distance placement t.q1 t.q2

(* Each task's distance once, then a stable sort on (distance, id) with
   integer compares; equal keys keep their input order, as before. *)
let shortest_first placement tasks =
  List.map (fun t -> (distance placement t, t)) tasks
  |> List.stable_sort (fun ((da : int), a) (db, b) ->
         if da <> db then Int.compare da db else Int.compare a.id b.id)
  |> List.map snd

let pp ppf t = Format.fprintf ppf "cx#%d(q%d,q%d)" t.id t.q1 t.q2
