module Tel = Qec_telemetry.Telemetry

type t = {
  grid : Grid.t;
  vside : int; (* Grid.side + 1, the vertex-id stride between rows *)
  vx : int array; (* vertex -> column *)
  vy : int array; (* vertex -> row *)
  gen : int array; (* generation stamp per vertex *)
  gscore : int array;
  came_from : int array;
  closed : bool array;
  mutable generation : int;
  open_list : int Qec_util.Heap.t; (* reference implementation's open list *)
  (* [route]'s open list: three FIFO buckets in a ring (see [push]). *)
  ring : int array array; (* per bucket: queued vertices in push order *)
  ring_head : int array; (* per bucket: next slot to pop *)
  ring_tail : int array; (* per bucket: next slot to fill *)
  mutable ring_cur : int; (* priority of bucket [ring_base] *)
  mutable ring_base : int;
  mutable queued : int;
  goal_mark : int array; (* [generation] on the current search's goals *)
  goal_ids : int array; (* up to 4 usable target corners *)
  goal_x : int array;
  goal_y : int array;
  mutable n_goals : int;
  src_ids : int array; (* up to 4 usable source corners *)
  mutable n_srcs : int;
  closed_stack : int array; (* vertices the current search closed, in order *)
  mutable n_closed : int;
  region : int array; (* dead-region label per vertex, -1 if never *)
  mutable next_region : int;
  mutable session_start : int; (* first label of the current session *)
  mutable session_epoch : int; (* occupancy epoch the session belongs to *)
  l_len : int array; (* dimension-ordered: length per corner pair *)
  l_runs : int array; (* dimension-ordered: free runs, -1 until counted *)
}

let create grid =
  let n = Grid.num_vertices grid and vside = Grid.side grid + 1 in
  {
    grid;
    vside;
    vx = Array.init n (fun v -> v mod vside);
    vy = Array.init n (fun v -> v / vside);
    gen = Array.make n 0;
    gscore = Array.make n 0;
    came_from = Array.make n (-1);
    closed = Array.make n false;
    generation = 0;
    open_list = Qec_util.Heap.create ();
    (* A search pushes at most 4n + 4 times (argued at [route]), so no
       bucket overflows; one that did would fail its bounds check. *)
    ring = Array.init 3 (fun _ -> Array.make ((4 * n) + 4) 0);
    ring_head = Array.make 3 0;
    ring_tail = Array.make 3 0;
    ring_cur = 0;
    ring_base = 0;
    queued = 0;
    goal_mark = Array.make n (-1);
    goal_ids = Array.make 4 (-1);
    goal_x = Array.make 4 0;
    goal_y = Array.make 4 0;
    n_goals = 0;
    src_ids = Array.make 4 (-1);
    n_srcs = 0;
    closed_stack = Array.make n 0;
    n_closed = 0;
    region = Array.make n (-1);
    next_region = 0;
    session_start = 0;
    session_epoch = 0;
    l_len = Array.make 16 0;
    l_runs = Array.make 32 (-1);
  }

let grid t = t.grid

let fresh t v =
  if t.gen.(v) <> t.generation then begin
    t.gen.(v) <- t.generation;
    t.gscore.(v) <- max_int;
    t.came_from.(v) <- -1;
    t.closed.(v) <- false
  end

let in_bounds grid bounds v =
  match bounds with
  | None -> true
  | Some (b : Bbox.t) ->
    let x, y = Grid.vertex_xy grid v in
    b.x0 <= x && x <= b.x1 + 1 && b.y0 <= y && y <= b.y1 + 1

(* Pre-rewrite closure-and-list A* kept verbatim as the differential
   oracle for the arena implementation below (see test_router.ml); it
   shares the generation-stamped scratch arrays, so interleaving the two
   is safe. Scheduled for deletion once the arena path has survived a
   release. *)
let route_reference ?bounds t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then invalid_arg "Router.route: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route: occupancy grid mismatch";
  t.generation <- t.generation + 1;
  Qec_util.Heap.clear t.open_list;
  let expansions = ref 0 in
  let usable v = Occupancy.is_free occ v && in_bounds t.grid bounds v in
  let goals =
    Array.to_list (Grid.cell_corners t.grid dst_cell) |> List.filter usable
  in
  let result =
  if goals = [] then None
  else begin
    let is_goal = Array.make 4 (-1) in
    List.iteri (fun i v -> is_goal.(i) <- v) goals;
    let goal v = Array.exists (( = ) v) is_goal in
    let heuristic v =
      List.fold_left
        (fun acc g -> min acc (Grid.vertex_distance t.grid v g))
        max_int goals
    in
    let push v g =
      fresh t v;
      if g < t.gscore.(v) then begin
        t.gscore.(v) <- g;
        Qec_util.Heap.push t.open_list ~priority:(g + heuristic v) v
      end
    in
    Array.iter
      (fun v -> if usable v then push v 0)
      (Grid.cell_corners t.grid src_cell);
    let rec search () =
      match Qec_util.Heap.pop_min t.open_list with
      | None -> None
      | Some v ->
        fresh t v;
        if t.closed.(v) then search ()
        else if goal v then Some v
        else begin
          t.closed.(v) <- true;
          incr expansions;
          let g' = t.gscore.(v) + 1 in
          List.iter
            (fun nb ->
              if usable nb then begin
                fresh t nb;
                if (not t.closed.(nb)) && g' < t.gscore.(nb) then begin
                  t.gscore.(nb) <- g';
                  t.came_from.(nb) <- v;
                  Qec_util.Heap.push t.open_list ~priority:(g' + heuristic nb)
                    nb
                end
              end)
            (Grid.vertex_neighbors t.grid v);
          search ()
        end
    in
    match search () with
    | None -> None
    | Some reached ->
      let rec walk v acc =
        if t.came_from.(v) = -1 then v :: acc else walk t.came_from.(v) (v :: acc)
      in
      Some (Path.of_vertices t.grid (walk reached []))
  end
  in
  if Tel.enabled () then begin
    Tel.count "router.routes";
    Tel.count ~by:!expansions "router.expansions";
    match result with
    | Some p -> Tel.sample "router.path_length" (float_of_int (Path.length p))
    | None -> Tel.count "router.route_failures"
  end;
  result

(* Dead-region labels live in sessions. Labels are numbered in stamping
   order. A session belongs to one occupancy epoch and holds the labels
   from [session_start] on: stamping under any other epoch starts a new
   session at the next label, which drops all earlier labels at once. (Per-vertex epoch
   stamps alone are not enough: when two occupancies share the router,
   one's stamps would erase some of the other's labels, and an erased
   vertex would pass for never labelled.)

   [certified_dead] is true when every (usable source, usable goal) pair
   is certified disconnected by the current session's labels: the two
   carry different labels and at least one is labelled (an unlabelled
   vertex is its own label). Soundness: within one epoch vertices are only
   claimed, so components only shrink. If two vertices are connected now,
   they were connected when either was last labelled; that failed search
   closed the whole component, so both got its label and no later label
   in the session reached only one of them. *)
let label t v =
  let l = t.region.(v) in
  if l >= t.session_start then l else -1

let certified_dead t ~epoch =
  let dead = ref (t.n_srcs > 0 && t.session_epoch = epoch) in
  for i = 0 to t.n_srcs - 1 do
    let ls = label t t.src_ids.(i) in
    for j = 0 to t.n_goals - 1 do
      if ls = label t t.goal_ids.(j) then dead := false
    done
  done;
  !dead

(* [route]'s open list. Edges cost 1 and h is the Manhattan distance to
   the nearest usable goal corner, which moves by at most 1 per step, so
   h is consistent: a vertex pushed while the vertex of priority f
   closes gets a priority in [f, f + 2], and pops never decrease. The
   source corners of one cell are within 2 steps of each other, so their
   priorities also lie within 2 of the smallest. Every queued priority
   therefore lies in [ring_cur, ring_cur + 2]: bucket [ring_base] holds
   priority [ring_cur], the next bucket round the ring [ring_cur + 1], the
   one after [ring_cur + 2]. Each bucket is FIFO, so pops come out in
   (priority, push order), the order of a binary heap with FIFO ties. A
   push outside the window raises rather than misorder. *)
let push t f v =
  let d = f - t.ring_cur in
  if d < 0 || d > 2 then
    invalid_arg "Router.route: priority outside the open list's window";
  let b = t.ring_base + d in
  let b = if b >= 3 then b - 3 else b in
  let s = t.ring_tail.(b) in
  t.ring.(b).(s) <- v;
  t.ring_tail.(b) <- s + 1;
  t.queued <- t.queued + 1

(* The oldest vertex of the smallest priority, or -1 when empty. A bucket
   the cursor steps over is drained and next fills with the priority 3
   above; its slots are never reused within a search, so none holds more
   than the search's pushes. *)
let pop t =
  if t.queued = 0 then -1
  else begin
    let b = ref t.ring_base in
    while t.ring_head.(!b) = t.ring_tail.(!b) do
      b := if !b = 2 then 0 else !b + 1;
      t.ring_cur <- t.ring_cur + 1
    done;
    let b = !b in
    t.ring_base <- b;
    let s = t.ring_head.(b) in
    t.ring_head.(b) <- s + 1;
    t.queued <- t.queued - 1;
    t.ring.(b).(s)
  end

(* Distance from (x, y) to the nearest usable goal corner. *)
let heuristic t x y =
  let best = ref max_int in
  for i = 0 to t.n_goals - 1 do
    let d = abs (x - t.goal_x.(i)) + abs (y - t.goal_y.(i)) in
    if d < !best then best := d
  done;
  !best

(* Relax neighbour [nb] at ([x], [y]) from the closing vertex [v]; a
   vertex not yet seen by this search is stamped here and improves. *)
let relax t claimed v g' nb x y =
  if Bytes.get claimed nb = '\000' then
    if t.gen.(nb) <> t.generation then begin
      t.gen.(nb) <- t.generation;
      t.closed.(nb) <- false;
      t.gscore.(nb) <- g';
      t.came_from.(nb) <- v;
      push t (g' + heuristic t x y) nb
    end
    else if (not t.closed.(nb)) && g' < t.gscore.(nb) then begin
      t.gscore.(nb) <- g';
      t.came_from.(nb) <- v;
      push t (g' + heuristic t x y) nb
    end

(* The usable corners of the cell whose top-left corner is ([cx], [cy]):
   free, and inside the inclusive vertex ranges. Written to [ids] in
   [Grid.cell_corners] order; returns how many. *)
let usable_corners t claimed ~bx0 ~bx1 ~by0 ~by1 cx cy ids =
  let n = ref 0 in
  for k = 0 to 3 do
    let x = cx + (k land 1) and y = cy + (k lsr 1) in
    let v = (y * t.vside) + x in
    if
      Bytes.get claimed v = '\000'
      && bx0 <= x && x <= bx1 && by0 <= y && y <= by1
    then begin
      ids.(!n) <- v;
      incr n
    end
  done;
  !n

let rec walk came_from v acc =
  if came_from.(v) = -1 then v :: acc else walk came_from came_from.(v) (v :: acc)

(* Arena A*: same search as [route_reference] — multi-source multi-target,
   FIFO tie-breaks, identical expansion order — but an expansion stays in
   this module and touches only flat arrays. The library is compiled with
   [-opaque] in dune's default profile, so any call to another module is
   out of line; the loop therefore reads the occupancy's byte map
   ([Occupancy.claimed_map]) with [Bytes.get] instead of calling
   [Occupancy.is_free], keeps its open list in the ring above instead of
   a queue module, and computes corners and distances itself. Goals are
   marked with the search's generation (a one-load goal test), and
   neighbours are enumerated by index arithmetic (no list). The only
   allocation on a successful route is the returned path.

   Open list. The ring pops in (priority, push order) for every push the
   search makes, as argued at [push]. A search pushes at most 4n + 4
   times: a vertex is pushed only when one of its at most 4 neighbours
   closes and improves its g, plus at most 4 sources.

   Coordinates. [vx]/[vy] map a vertex to its column and row, so the
   loop never divides: it reads the popped vertex's coordinates once and
   derives each neighbour's. The bounds are inclusive vertex ranges
   clamped to the grid, so [y > by0], [x > bx0], [x < bx1] and [y < by1]
   reject exactly the neighbours that fall off the grid or out of the
   box — the ones the reference's [usable] rejects besides occupied ones.

   Fail fast: an unbounded search that fails has closed exactly the
   free components of its usable sources, none of which holds a usable
   goal. Its closed vertices (recorded on [closed_stack] as they close)
   get a fresh region label in the epoch's session, and a later
   query that [certified_dead] proves disconnected returns [None] without
   expanding anything. *)
let route ?bounds t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then invalid_arg "Router.route: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route: occupancy grid mismatch";
  let vside = t.vside and vx = t.vx and vy = t.vy in
  let l = vside - 1 in
  if src_cell < 0 || src_cell >= l * l || dst_cell < 0 || dst_cell >= l * l
  then invalid_arg "Router.route: cell out of range";
  t.generation <- t.generation + 1;
  let generation = t.generation in
  let claimed = Occupancy.claimed_map occ in
  (* Bounds as inclusive vertex-coordinate ranges within the grid. *)
  let bx0, bx1, by0, by1 =
    match bounds with
    | None -> (0, vside - 1, 0, vside - 1)
    | Some (b : Bbox.t) ->
      ( Int.max b.x0 0,
        Int.min (b.x1 + 1) (vside - 1),
        Int.max b.y0 0,
        Int.min (b.y1 + 1) (vside - 1) )
  in
  let expansions = ref 0 in
  t.n_goals <-
    usable_corners t claimed ~bx0 ~bx1 ~by0 ~by1 (dst_cell mod l)
      (dst_cell / l) t.goal_ids;
  for i = 0 to t.n_goals - 1 do
    let v = t.goal_ids.(i) in
    t.goal_mark.(v) <- generation;
    t.goal_x.(i) <- vx.(v);
    t.goal_y.(i) <- vy.(v)
  done;
  t.n_srcs <-
    usable_corners t claimed ~bx0 ~bx1 ~by0 ~by1 (src_cell mod l)
      (src_cell / l) t.src_ids;
  let epoch = Occupancy.epoch occ in
  let dead = t.n_goals > 0 && certified_dead t ~epoch in
  let result =
    if t.n_goals = 0 || dead then None
    else begin
      (* The ring starts empty with its cursor at the smallest source
         priority. Source corners are distinct, so each is pushed. *)
      let hmin = ref max_int in
      for i = 0 to t.n_srcs - 1 do
        let v = t.src_ids.(i) in
        hmin := Int.min !hmin (heuristic t vx.(v) vy.(v))
      done;
      for b = 0 to 2 do
        t.ring_head.(b) <- 0;
        t.ring_tail.(b) <- 0
      done;
      t.queued <- 0;
      t.ring_base <- 0;
      t.ring_cur <- !hmin;
      for i = 0 to t.n_srcs - 1 do
        let v = t.src_ids.(i) in
        t.gen.(v) <- generation;
        t.closed.(v) <- false;
        t.gscore.(v) <- 0;
        t.came_from.(v) <- -1;
        push t (heuristic t vx.(v) vy.(v)) v
      done;
      let closed = t.closed and gscore = t.gscore in
      t.n_closed <- 0;
      let reached = ref (-1) in
      let continue = ref true in
      while !continue do
        let v = pop t in
        (* A queued vertex was stamped by this search before its push, so
           its scratch entries are current. *)
        if v < 0 then continue := false
        else if not closed.(v) then begin
          if t.goal_mark.(v) = generation then begin
            reached := v;
            continue := false
          end
          else begin
            closed.(v) <- true;
            t.closed_stack.(t.n_closed) <- v;
            t.n_closed <- t.n_closed + 1;
            incr expansions;
            let g' = gscore.(v) + 1 in
            let x = vx.(v) and y = vy.(v) in
            (* Ascending vertex-id order, exactly the reference's
               neighbour list: y-1, x-1, x+1, y+1. *)
            if y > by0 then relax t claimed v g' (v - vside) x (y - 1);
            if x > bx0 then relax t claimed v g' (v - 1) (x - 1) y;
            if x < bx1 then relax t claimed v g' (v + 1) (x + 1) y;
            if y < by1 then relax t claimed v g' (v + vside) x (y + 1)
          end
        end
      done;
      if !reached < 0 then begin
        if bounds = None then begin
          if t.session_epoch <> epoch then begin
            t.session_start <- t.next_region;
            t.session_epoch <- epoch
          end;
          let label = t.next_region in
          t.next_region <- label + 1;
          for i = 0 to t.n_closed - 1 do
            t.region.(t.closed_stack.(i)) <- label
          done
        end;
        None
      end
      else Some (Path.of_vertices t.grid (walk t.came_from !reached []))
    end
  in
  if Tel.enabled () then begin
    Tel.count "router.routes";
    Tel.count ~by:!expansions "router.expansions";
    match result with
    | Some p -> Tel.sample "router.path_length" (float_of_int (Path.length p))
    | None ->
      Tel.count "router.route_failures";
      Tel.count ~by:!expansions "router.failed_expansions";
      if dead then Tel.count "router.dead_region_hits"
  end;
  result

let route_and_reserve ?bounds t occ ~src_cell ~dst_cell =
  match route ?bounds t occ ~src_cell ~dst_cell with
  | None -> None
  | Some p ->
    Occupancy.reserve_path occ p;
    Some p

(* [line acc first last step]: the vertex ids first, first + step, ...,
   last, in front of [acc]. *)
let rec line acc first last step =
  if last = first then first :: acc
  else line (last :: acc) first (last - step) step

(* Free vertices from [v] on, [step] apart, counting at most [cap]. *)
let free_run claimed v step cap =
  let k = ref 0 in
  while !k < cap && Bytes.get claimed (v + (!k * step)) = '\000' do
    incr k
  done;
  !k

(* Is a dimension-ordered leg free? The leg is the [need] vertices from
   corner vertex [v], at coordinate [c] on the leg's axis, toward the
   other cell, whose top-left coordinate on that axis is [o]; an odd
   memo [slot] walks down the axis ([-step]). The corner's free run in
   that direction is counted once per call of [route_dimension_ordered],
   in [slot], capped at the farther of the other cell's two corner lines:
   no leg from this corner in that direction is longer, and the run never
   leaves the grid. *)
let leg_free t claimed slot v c o step need =
  let r = t.l_runs.(slot) in
  let r =
    if r >= 0 then r
    else begin
      let r =
        if slot land 1 = 1 then free_run claimed v (-step) (c - o + 1)
        else free_run claimed v step (o + 2 - c)
      in
      t.l_runs.(slot) <- r;
      r
    end
  in
  r >= need

(* Dimension-ordered routing without candidate lists. Corner k of a cell
   is its top-left vertex plus (k land 1) columns and (k lsr 1) rows, the
   order of [Grid.cell_corners]; pair = source corner * 4 + target corner.
   Bend 0 runs along the source row first (also the straight and
   single-vertex cases), bend 1 along the source column first, which
   exists only when the corners share neither row nor column. Candidates
   are visited by length, then pair, then bend: each length from the
   shortest to the longest of the 16 pair lengths, the pairs of that
   length in pair order, the order a stable sort by length gives. A
   candidate is free iff its first leg (source corner to the bend) and
   its second (target corner back to the bend) are, so each test is two
   lookups of memoised corner runs ([leg_free]): memo slots 0-15 hold the
   source corners', 16-31 the target corners', 4 per corner (x up, x
   down, y up, y down). Only the winner is built. *)
let route_dimension_ordered t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then
    invalid_arg "Router.route_dimension_ordered: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route_dimension_ordered: occupancy grid mismatch";
  let claimed = Occupancy.claimed_map occ in
  let vside = t.vside and l = t.vside - 1 and len = t.l_len in
  (* The cells' top-left coordinates; the only divisions of the call. *)
  let sx = src_cell mod l and sy = src_cell / l
  and tx = dst_cell mod l and ty = dst_cell / l in
  Array.fill t.l_runs 0 32 (-1);
  let shortest = ref max_int and longest = ref 0 in
  for pair = 0 to 15 do
    let i = pair lsr 2 and j = pair land 3 in
    let n =
      abs (tx + (j land 1) - sx - (i land 1))
      + abs (ty + (j lsr 1) - sy - (i lsr 1))
      + 1
    in
    len.(pair) <- n;
    if n < !shortest then shortest := n;
    if n > !longest then longest := n
  done;
  (* The first free candidate of length [n], as pair * 2 + bend, or -1. *)
  let rec at_length n pair =
    if pair > 15 then -1
    else if len.(pair) <> n then at_length n (pair + 1)
    else begin
      let i = pair lsr 2 and j = pair land 3 in
      let ax = sx + (i land 1) and ay = sy + (i lsr 1)
      and bx = tx + (j land 1) and by = ty + (j lsr 1) in
      let a = (ay * vside) + ax and b = (by * vside) + bx in
      let dx = bx - ax and dy = by - ay in
      let nx = abs dx + 1 and ny = abs dy + 1 in
      if
        leg_free t claimed ((i * 4) + Bool.to_int (dx < 0)) a ax tx 1 nx
        && leg_free t claimed
             (16 + (j * 4) + 2 + Bool.to_int (dy >= 0))
             b by sy vside ny
      then pair * 2
      else if
        dx <> 0 && dy <> 0
        && leg_free t claimed ((i * 4) + 2 + Bool.to_int (dy < 0)) a ay ty vside ny
        && leg_free t claimed (16 + (j * 4) + Bool.to_int (dx >= 0)) b bx sx 1 nx
      then (pair * 2) + 1
      else at_length n (pair + 1)
    end
  in
  let rec first n =
    if n > !longest then -1
    else match at_length n 0 with -1 -> first (n + 1) | c -> c
  in
  let result =
    match first !shortest with
    | -1 -> None
    | c ->
      let pair = c lsr 1 in
      let i = pair lsr 2 and j = pair land 3 in
      let ax = sx + (i land 1) and ay = sy + (i lsr 1)
      and bx = tx + (j land 1) and by = ty + (j lsr 1) in
      let a = (ay * vside) + ax and b = (by * vside) + bx in
      let stx = if bx >= ax then 1 else -1
      and sty = if by >= ay then vside else -vside in
      let bend, s1, s2 =
        if c land 1 = 0 then ((ay * vside) + bx, stx, sty)
        else ((by * vside) + ax, sty, stx)
      in
      let second = if bend = b then [] else line [] (bend + s2) b s2 in
      Some (Path.of_vertices t.grid (line second a bend s1))
  in
  if Tel.enabled () then begin
    Tel.count "router.dim_ordered_routes";
    match result with
    | Some p -> Tel.sample "router.path_length" (float_of_int (Path.length p))
    | None -> Tel.count "router.dim_ordered_failures"
  end;
  result

let route_dimension_ordered_and_reserve t occ ~src_cell ~dst_cell =
  match route_dimension_ordered t occ ~src_cell ~dst_cell with
  | None -> None
  | Some p ->
    Occupancy.reserve_path occ p;
    Some p
