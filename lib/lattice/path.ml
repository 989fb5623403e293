type t = { verts : int list; len : int }

(* Paths are short (a few dozen vertices), so membership and overlap scan
   the list; no per-path set is kept. *)
let of_vertices grid verts =
  if verts = [] then invalid_arg "Path.of_vertices: empty";
  let rec check_adjacent = function
    | a :: (b :: _ as rest) ->
      if Grid.vertex_distance grid a b <> 1 then
        invalid_arg
          (Printf.sprintf "Path.of_vertices: v%d and v%d not adjacent" a b);
      check_adjacent rest
    | [ _ ] | [] -> ()
  in
  check_adjacent verts;
  let sorted = Array.of_list verts in
  let len = Array.length sorted in
  (* Adjacent steps never repeat a vertex, so paths of two or fewer
     vertices need no sort. *)
  if len > 2 then begin
    Array.sort Int.compare sorted;
    for i = 1 to len - 1 do
      if sorted.(i) = sorted.(i - 1) then
        invalid_arg "Path.of_vertices: repeated vertex"
    done
  end;
  { verts; len }

let vertices t = t.verts
let length t = t.len
let source t = List.hd t.verts
let target t = List.nth t.verts (t.len - 1)
let mem t v = List.mem v t.verts

let disjoint a b =
  let small, big = if a.len <= b.len then (a, b) else (b, a) in
  not (List.exists (fun v -> List.mem v big.verts) small.verts)

let is_corner grid cell v = Array.exists (( = ) v) (Grid.cell_corners grid cell)

let connects_cells grid t ca cb =
  let s = source t and e = target t in
  (is_corner grid ca s && is_corner grid cb e)
  || (is_corner grid cb s && is_corner grid ca e)

let within_bbox grid (box : Bbox.t) t =
  List.for_all
    (fun v ->
      let x, y = Grid.vertex_xy grid v in
      box.x0 <= x && x <= box.x1 + 1 && box.y0 <= y && y <= box.y1 + 1)
    t.verts

let pp grid ppf t =
  Format.fprintf ppf "@[<h>";
  List.iteri
    (fun i v ->
      let x, y = Grid.vertex_xy grid v in
      if i > 0 then Format.fprintf ppf " -> ";
      Format.fprintf ppf "(%d,%d)" x y)
    t.verts;
  Format.fprintf ppf "@]"
