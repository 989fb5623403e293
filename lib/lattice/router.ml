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
  pq : Qec_util.Heap.Int_pq.t; (* arena implementation's open list *)
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
  l_keys : int array; (* dimension-ordered candidates, sorted by length *)
  l_cands : int array;
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
    (* Sizing argued at [route]: f < n + 2 vside, at most 4n + 4 pushes. *)
    pq =
      Qec_util.Heap.Int_pq.create
        ~max_priority:(n + (2 * vside))
        ~capacity:((4 * n) + 4);
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
    l_keys = Array.make 32 0;
    l_cands = Array.make 32 0;
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
let certified_dead t ~epoch =
  let label v =
    let l = t.region.(v) in
    if l >= t.session_start then l else -1
  in
  let dead = ref (t.n_srcs > 0 && t.session_epoch = epoch) in
  for i = 0 to t.n_srcs - 1 do
    let ls = label t.src_ids.(i) in
    for j = 0 to t.n_goals - 1 do
      let lg = label t.goal_ids.(j) in
      if ls = lg then dead := false
    done
  done;
  !dead

(* Arena A*: same search as [route_reference] — multi-source multi-target,
   FIFO tie-breaks, identical expansion order — but the inner loop touches
   only preallocated flat arrays: corners live in fixed 4-slot arrays,
   goals are marked with the search's generation (a one-load goal test),
   neighbours are enumerated by index arithmetic (no list), and the open
   list is a FIFO bucket queue (no node allocation, O(1) push and pop).
   The only allocation on a successful route is the returned path.

   Open list. [Heap.Int_pq] pops in exactly the reference heap's
   (priority, push order) order for any push sequence, so swapping one
   for the other changes no pop. It is sized once from the grid: every
   priority is f = g + h with g < n (a tentative path is a simple path
   through closed vertices) and h <= 2 (vside - 1), so f < n + 2 vside;
   and a vertex is pushed only when one of its at most 4 neighbours
   closes and improves its g, plus at most 4 sources, so a search pushes
   at most 4n + 4 times.

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
  t.generation <- t.generation + 1;
  let pq = t.pq in
  Qec_util.Heap.Int_pq.clear pq;
  let vside = t.vside and vx = t.vx and vy = t.vy in
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
  let usable v =
    Occupancy.is_free occ v
    &&
    let x = vx.(v) and y = vy.(v) in
    bx0 <= x && x <= bx1 && by0 <= y && y <= by1
  in
  let expansions = ref 0 in
  t.n_goals <- 0;
  Array.iter
    (fun v ->
      if usable v then begin
        t.goal_mark.(v) <- t.generation;
        t.goal_ids.(t.n_goals) <- v;
        t.goal_x.(t.n_goals) <- vx.(v);
        t.goal_y.(t.n_goals) <- vy.(v);
        t.n_goals <- t.n_goals + 1
      end)
    (Grid.cell_corners t.grid dst_cell);
  t.n_srcs <- 0;
  Array.iter
    (fun v ->
      if usable v then begin
        t.src_ids.(t.n_srcs) <- v;
        t.n_srcs <- t.n_srcs + 1
      end)
    (Grid.cell_corners t.grid src_cell);
  let epoch = Occupancy.epoch occ in
  let dead = t.n_goals > 0 && certified_dead t ~epoch in
  let result =
    if t.n_goals = 0 || dead then None
    else begin
      let heuristic x y =
        let best = ref max_int in
        for i = 0 to t.n_goals - 1 do
          let d = abs (x - t.goal_x.(i)) + abs (y - t.goal_y.(i)) in
          if d < !best then best := d
        done;
        !best
      in
      for i = 0 to t.n_srcs - 1 do
        let v = t.src_ids.(i) in
        fresh t v;
        if t.gscore.(v) > 0 then begin
          t.gscore.(v) <- 0;
          Qec_util.Heap.Int_pq.push pq ~priority:(heuristic vx.(v) vy.(v)) v
        end
      done;
      let generation = t.generation and gen = t.gen and gscore = t.gscore
      and came_from = t.came_from and closed = t.closed in
      (* Relax neighbour [nb] at ([x], [y]) from the closing vertex [v]; a
         vertex not yet seen by this search is [fresh] and improves. *)
      let relax v g' nb x y =
        if Occupancy.is_free occ nb then
          if gen.(nb) <> generation then begin
            gen.(nb) <- generation;
            closed.(nb) <- false;
            gscore.(nb) <- g';
            came_from.(nb) <- v;
            Qec_util.Heap.Int_pq.push pq ~priority:(g' + heuristic x y) nb
          end
          else if (not closed.(nb)) && g' < gscore.(nb) then begin
            gscore.(nb) <- g';
            came_from.(nb) <- v;
            Qec_util.Heap.Int_pq.push pq ~priority:(g' + heuristic x y) nb
          end
      in
      t.n_closed <- 0;
      let reached = ref (-1) in
      let continue = ref true in
      while !continue do
        let v = Qec_util.Heap.Int_pq.pop_min pq in
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
            if y > by0 then relax v g' (v - vside) x (y - 1);
            if x > bx0 then relax v g' (v - 1) (x - 1) y;
            if x < bx1 then relax v g' (v + 1) (x + 1) y;
            if y < by1 then relax v g' (v + vside) x (y + 1)
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
      else begin
        let rec walk v acc =
          if t.came_from.(v) = -1 then v :: acc
          else walk t.came_from.(v) (v :: acc)
        in
        Some (Path.of_vertices t.grid (walk !reached []))
      end
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

let rec line_free occ first last step =
  Occupancy.is_free occ first
  && (first = last || line_free occ (first + step) last step)

(* Dimension-ordered routing without candidate lists. Corner k of a cell
   is its base vertex plus (k land 1) columns and (k lsr 1) rows, the
   order of [Grid.cell_corners]. A candidate is encoded as
   (pair * 2 + bend): pair = source corner * 4 + target corner, bend 0
   runs along the source row first (also the straight and single-vertex
   cases), bend 1 along the source column first. The candidates of the
   16 corner pairs are inserted in pair order into [l_keys]/[l_cands],
   insertion-sorted by path length; equal lengths keep insertion order,
   so the first free candidate is the one a stable sort would pick. Only
   the winner is built. *)
let route_dimension_ordered t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then
    invalid_arg "Router.route_dimension_ordered: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route_dimension_ordered: occupancy grid mismatch";
  let vside = t.vside and vx = t.vx and vy = t.vy and l = t.vside - 1 in
  (* The top-left corners; the only divisions of the call. *)
  let src0 = (src_cell / l * vside) + (src_cell mod l)
  and dst0 = (dst_cell / l * vside) + (dst_cell mod l) in
  let corner base k = base + (k land 1) + ((k lsr 1) * vside) in
  let n = ref 0 in
  let add key cand =
    let p = ref !n in
    while !p > 0 && t.l_keys.(!p - 1) > key do
      t.l_keys.(!p) <- t.l_keys.(!p - 1);
      t.l_cands.(!p) <- t.l_cands.(!p - 1);
      decr p
    done;
    t.l_keys.(!p) <- key;
    t.l_cands.(!p) <- cand;
    incr n
  in
  for i = 0 to 3 do
    let a = corner src0 i in
    for j = 0 to 3 do
      let b = corner dst0 j in
      let pair = (i * 4) + j in
      let dx = vx.(b) - vx.(a) and dy = vy.(b) - vy.(a) in
      let len = abs dx + abs dy + 1 in
      add len (pair * 2);
      if dx <> 0 && dy <> 0 then add len ((pair * 2) + 1)
    done
  done;
  (* Geometry of candidate [c]: its endpoints, bend vertex, and the steps
     of its first and second legs. *)
  let geometry c =
    let pair = c lsr 1 in
    let a = corner src0 (pair lsr 2) and b = corner dst0 (pair land 3) in
    let ax = vx.(a) and ay = vy.(a) and bx = vx.(b) and by = vy.(b) in
    let sx = if bx >= ax then 1 else -1
    and sy = if by >= ay then vside else -vside in
    if c land 1 = 0 then (a, (ay * vside) + bx, b, sx, sy)
    else (a, (by * vside) + ax, b, sy, sx)
  in
  let free c =
    let a, bend, b, s1, s2 = geometry c in
    line_free occ a bend s1 && line_free occ bend b s2
  in
  let rec first k =
    if k >= !n then -1
    else if free t.l_cands.(k) then t.l_cands.(k)
    else first (k + 1)
  in
  let result =
    match first 0 with
    | -1 -> None
    | c ->
      let a, bend, b, s1, s2 = geometry c in
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
