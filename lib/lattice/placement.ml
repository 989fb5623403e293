type t = {
  grid : Grid.t;
  qubit_cell : int array; (* qubit -> cell *)
  cell_qubit : int array; (* cell -> qubit, or -1 *)
  xs : int array; (* qubit -> cell column *)
  ys : int array; (* qubit -> cell row *)
}

let create grid ~num_qubits ~cells =
  if Array.length cells <> num_qubits then
    invalid_arg "Placement.create: cells array length mismatch";
  if num_qubits > Grid.num_cells grid then
    invalid_arg "Placement.create: more qubits than cells";
  let cell_qubit = Array.make (Grid.num_cells grid) (-1) in
  Array.iteri
    (fun q c ->
      if c < 0 || c >= Grid.num_cells grid then
        invalid_arg "Placement.create: cell out of range";
      if cell_qubit.(c) >= 0 then
        invalid_arg "Placement.create: duplicate cell assignment";
      cell_qubit.(c) <- q)
    cells;
  let l = Grid.side grid in
  {
    grid;
    qubit_cell = Array.copy cells;
    cell_qubit;
    xs = Array.map (fun c -> c mod l) cells;
    ys = Array.map (fun c -> c / l) cells;
  }

let identity grid ~num_qubits =
  create grid ~num_qubits ~cells:(Array.init num_qubits (fun q -> q))

let random rng grid ~num_qubits =
  let cells =
    Qec_util.Rng.sample_without_replacement rng num_qubits
      (Grid.num_cells grid)
  in
  create grid ~num_qubits ~cells:(Array.of_list cells)

(* Boustrophedon cell order: row 0 left-to-right, row 1 right-to-left, ... *)
let snake_cells grid =
  let l = Grid.side grid in
  let out = ref [] in
  for y = l - 1 downto 0 do
    for i = l - 1 downto 0 do
      let x = if y mod 2 = 0 then i else l - 1 - i in
      out := Grid.cell_id grid ~x ~y :: !out
    done
  done;
  Array.of_list !out

let of_order grid qs =
  let n = List.length qs in
  let snake = snake_cells grid in
  if n > Array.length snake then
    invalid_arg "Placement.of_order: more qubits than cells";
  let cells = Array.make n (-1) in
  List.iteri
    (fun i q ->
      if q < 0 || q >= n then invalid_arg "Placement.of_order: bad qubit id";
      if cells.(q) >= 0 then invalid_arg "Placement.of_order: duplicate qubit";
      cells.(q) <- snake.(i))
    qs;
  create grid ~num_qubits:n ~cells

let copy t =
  {
    grid = t.grid;
    qubit_cell = Array.copy t.qubit_cell;
    cell_qubit = Array.copy t.cell_qubit;
    xs = Array.copy t.xs;
    ys = Array.copy t.ys;
  }

let grid t = t.grid
let num_qubits t = Array.length t.qubit_cell
let cell_of_qubit t q = t.qubit_cell.(q)

let qubit_of_cell t c =
  let q = t.cell_qubit.(c) in
  if q < 0 then None else Some q

let swap_qubits t a b =
  let ca = t.qubit_cell.(a) and cb = t.qubit_cell.(b) in
  t.qubit_cell.(a) <- cb;
  t.qubit_cell.(b) <- ca;
  t.cell_qubit.(ca) <- b;
  t.cell_qubit.(cb) <- a;
  let xa = t.xs.(a) and ya = t.ys.(a) in
  t.xs.(a) <- t.xs.(b);
  t.ys.(a) <- t.ys.(b);
  t.xs.(b) <- xa;
  t.ys.(b) <- ya

let move_qubit t ~qubit ~cell =
  if t.cell_qubit.(cell) >= 0 then
    invalid_arg "Placement.move_qubit: cell occupied";
  let old = t.qubit_cell.(qubit) in
  t.cell_qubit.(old) <- -1;
  t.qubit_cell.(qubit) <- cell;
  t.cell_qubit.(cell) <- qubit;
  let x, y = Grid.cell_xy t.grid cell in
  t.xs.(qubit) <- x;
  t.ys.(qubit) <- y

let xs t = t.xs
let ys t = t.ys
let qubit_cell_xy t q = (t.xs.(q), t.ys.(q))

let distance t a b =
  abs (t.xs.(a) - t.xs.(b)) + abs (t.ys.(a) - t.ys.(b))

let cx_bbox t a b : Bbox.t =
  let xa = t.xs.(a) and xb = t.xs.(b) and ya = t.ys.(a) and yb = t.ys.(b) in
  {
    x0 = (if xa < xb then xa else xb);
    y0 = (if ya < yb then ya else yb);
    x1 = (if xa < xb then xb else xa);
    y1 = (if ya < yb then yb else ya);
  }

let to_array t = Array.copy t.qubit_cell

let equal a b = a.qubit_cell = b.qubit_cell
