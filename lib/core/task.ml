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

let shortest_first placement tasks =
  List.sort
    (fun a b ->
      let da = distance placement a and db = distance placement b in
      if da <> db then compare da db else compare a.id b.id)
    tasks

let pp ppf t = Format.fprintf ppf "cx#%d(q%d,q%d)" t.id t.q1 t.q2
