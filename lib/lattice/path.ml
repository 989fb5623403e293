type t = { verts : int list; len : int }

(* Paths are short (a few dozen vertices), so membership and overlap scan
   the list; no per-path set is kept.

   Adjacency is checked without dividing per step: the first vertex's
   column is computed once and then tracked along the steps. A step of
   +-1 stays in the row (the column must not leave [0, side]); a step of
   +-(side + 1) changes the row and must stay among the vertices. The
   same pass finds the smallest and largest vertex, and the repeat check
   marks each vertex in a scratch bitset over that range, 32 bits per
   word so a vertex's word and bit are a shift and a mask. A path of
   [len] vertices spans at most [len] rows, so the bitset has at most
   about [len * (side + 1) / 32] words. *)
let of_vertices grid verts =
  let vside = Grid.side grid + 1 in
  let n = vside * vside in
  let rec check_adjacent a x len lo hi = function
    | [] -> (len, lo, hi)
    | b :: rest ->
      let x =
        if b = a + 1 && x + 1 < vside then x + 1
        else if b = a - 1 && x > 0 then x - 1
        else if (b = a + vside && b < n) || (b = a - vside && b >= 0) then x
        else
          invalid_arg
            (Printf.sprintf "Path.of_vertices: v%d and v%d not adjacent" a b)
      in
      check_adjacent b x (len + 1) (Int.min lo b) (Int.max hi b) rest
  in
  let len, lo, hi =
    match verts with
    | [] -> invalid_arg "Path.of_vertices: empty"
    | first :: rest ->
      if first < 0 || first >= n then
        invalid_arg (Printf.sprintf "Path.of_vertices: v%d out of range" first);
      check_adjacent first (first mod vside) 1 first first rest
  in
  (* Adjacent steps never repeat a vertex, so paths of two or fewer
     vertices need no check. *)
  if len > 2 then begin
    let seen = Array.make (((hi - lo) lsr 5) + 1) 0 in
    List.iter
      (fun v ->
        let i = v - lo in
        let w = i lsr 5 and bit = 1 lsl (i land 31) in
        if seen.(w) land bit <> 0 then
          invalid_arg "Path.of_vertices: repeated vertex";
        seen.(w) <- seen.(w) lor bit)
      verts
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
