module Coupling = Qec_circuit.Coupling
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement

type rect = { x0 : int; y0 : int; x1 : int; y1 : int (* inclusive cells *) }

let rect_area r = (r.x1 - r.x0 + 1) * (r.y1 - r.y0 + 1)

let layout ?(seed = 17) ?(snake = true) coupling grid =
  let n = Coupling.num_qubits coupling in
  if n > Grid.num_cells grid then invalid_arg "Embed.layout: grid too small";
  match (if snake then Coupling.chain_order coupling else None) with
  | Some order -> Placement.of_order grid order
  | None ->
    let rng = Qec_util.Rng.create seed in
    let graph = Bisect.prepare coupling in
    let cells = Array.make n (-1) in
    let rec place rect qubits =
      match qubits with
      | [] -> ()
      | [ q ] -> cells.(q) <- Grid.cell_id grid ~x:rect.x0 ~y:rect.y0
      | _ ->
        let w = rect.x1 - rect.x0 + 1 and h = rect.y1 - rect.y0 + 1 in
        let ra, rb =
          if w >= h then begin
            let mid = rect.x0 + ((w - 1) / 2) in
            ({ rect with x1 = mid }, { rect with x0 = mid + 1 })
          end
          else begin
            let mid = rect.y0 + ((h - 1) / 2) in
            ({ rect with y1 = mid }, { rect with y0 = mid + 1 })
          end
        in
        let cap_a = rect_area ra and cap_b = rect_area rb in
        let k = List.length qubits in
        (* Fill proportionally to capacity so both halves always fit. *)
        let size_a = min cap_a (max (k - cap_b) (k * cap_a / (cap_a + cap_b))) in
        let qa, qb = Bisect.bisect ~rng ~size_a graph qubits in
        place ra qa;
        place rb qb
    in
    let l = Grid.side grid in
    place { x0 = 0; y0 = 0; x1 = l - 1; y1 = l - 1 } (List.init n (fun q -> q));
    Placement.create grid ~num_qubits:n ~cells
