(* Tests for A* and dimension-ordered routing. *)

module Grid = Qec_lattice.Grid
module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Bbox = Qec_lattice.Bbox

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let grid = Grid.create 6
let router = Router.create grid
let cell x y = Grid.cell_id grid ~x ~y
let vid x y = Grid.vertex_id grid ~x ~y

let fresh_occ () = Occupancy.create grid

let test_route_exists_empty () =
  let occ = fresh_occ () in
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 5) with
  | None -> Alcotest.fail "no path on empty grid"
  | Some p ->
    check_bool "connects" true
      (Path.connects_cells grid p (cell 0 0) (cell 5 5));
    (* shortest: best corners are (1,1) and (5,5): distance 8, 9 vertices *)
    check_int "shortest" 9 (Path.length p)

let test_route_adjacent_cells () =
  let occ = fresh_occ () in
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 1 0) with
  | None -> Alcotest.fail "no path between neighbors"
  | Some p -> check_int "single shared corner" 1 (Path.length p)

let test_route_same_cell_invalid () =
  let occ = fresh_occ () in
  check_bool "same cell" true
    (match Router.route router occ ~src_cell:3 ~dst_cell:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let wall occ x_at =
  (* occupy the whole vertical channel column x = x_at *)
  for y = 0 to Grid.side grid do
    let p = Path.of_vertices grid [ vid x_at y ] in
    Occupancy.reserve_path occ p
  done

let test_route_detours () =
  let occ = fresh_occ () in
  (* wall column 3, leaving a hole at the bottom (y = 6) *)
  for y = 0 to 5 do
    Occupancy.reserve_path occ (Path.of_vertices grid [ vid 3 y ])
  done;
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 0) with
  | None -> Alcotest.fail "should detour through the hole"
  | Some p ->
    check_bool "uses the hole" true (Path.mem p (vid 3 6));
    check_bool "valid path" true
      (Path.connects_cells grid p (cell 0 0) (cell 5 0))

let test_route_blocked () =
  let occ = fresh_occ () in
  wall occ 3;
  check_bool "disconnected" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 0) = None)

let test_route_blocked_corners () =
  let occ = fresh_occ () in
  (* occupy all four corners of the target cell *)
  Array.iter
    (fun v -> Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
    (Grid.cell_corners grid (cell 4 4));
  check_bool "no free corner" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 4 4) = None)

let test_route_and_reserve () =
  let occ = fresh_occ () in
  (match Router.route_and_reserve router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> Alcotest.fail "route failed"
  | Some p ->
    List.iter
      (fun v -> check_bool "reserved" false (Occupancy.is_free occ v))
      (Path.vertices p));
  (* a second identical route must pick different vertices or fail *)
  match Router.route_and_reserve router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> ()
  | Some p2 ->
    check_int "occupancy consistent"
      (Occupancy.occupied_count occ)
      (Occupancy.occupied_count occ);
    check_bool "valid" true (Path.connects_cells grid p2 (cell 0 0) (cell 2 0))

let test_route_bounds () =
  let occ = fresh_occ () in
  let bounds = Bbox.of_cells (0, 0) (2, 0) in
  (match Router.route ~bounds router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> Alcotest.fail "in-bounds route failed"
  | Some p -> check_bool "stays inside" true (Path.within_bbox grid bounds p));
  (* Block the in-bounds corridor with two plugs: (2,0) stops the y=0 row,
     (1,1) stops the y=1 row. Bounded search must fail; the unbounded one
     detours below through y=2. *)
  Occupancy.reserve_path occ (Path.of_vertices grid [ vid 2 0 ]);
  Occupancy.reserve_path occ (Path.of_vertices grid [ vid 1 1 ]);
  check_bool "bounded fails" true
    (Router.route ~bounds router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0)
    = None);
  check_bool "unbounded detours" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) <> None)

let test_dimension_ordered_straight () =
  let occ = fresh_occ () in
  match
    Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
      ~dst_cell:(cell 3 0)
  with
  | None -> Alcotest.fail "no L route"
  | Some p ->
    check_bool "connects" true (Path.connects_cells grid p (cell 0 0) (cell 3 0));
    (* straight line: min corners (1,y) to (3,y): 3 vertices *)
    check_int "straight" 3 (Path.length p)

let test_dimension_ordered_bend () =
  let occ = fresh_occ () in
  match
    Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
      ~dst_cell:(cell 3 3)
  with
  | None -> Alcotest.fail "no L route"
  | Some p ->
    (* one bend: length = manhattan + 1 = (3-1)+(3-1)+1 = 5 *)
    check_int "L length" 5 (Path.length p)

let test_dimension_ordered_stalls () =
  let occ = fresh_occ () in
  (* Block both bend corridors between (0,0) and (2,2) but leave a detour:
     dimension-ordered must fail where A* succeeds. *)
  for i = 0 to 6 do
    if i <> 6 then Occupancy.reserve_path occ (Path.of_vertices grid [ vid 2 i ]);
    if i <> 0 && i <> 2 && i <> 6 then
      Occupancy.reserve_path occ (Path.of_vertices grid [ vid i 2 ])
  done;
  (* ensure target corners reachable: cells (0,0) and (4,4) *)
  let l = Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
            ~dst_cell:(cell 4 4) in
  let a = Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 4 4) in
  check_bool "L stalls" true (l = None);
  check_bool "A* detours" true (a <> None)

let prop_route_valid =
  QCheck.Test.make ~name:"A* paths are valid corner-to-corner paths" ~count:200
    QCheck.(quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
    (fun (x1, y1, x2, y2) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      match
        Router.route router occ ~src_cell:(cell x1 y1) ~dst_cell:(cell x2 y2)
      with
      | None -> false (* empty grid must always route *)
      | Some p ->
        Path.connects_cells grid p (cell x1 y1) (cell x2 y2)
        && Path.length p
           >= Grid.cell_to_cell_vertex_distance grid (cell x1 y1) (cell x2 y2)
              + 1
           - 1)

let prop_route_shortest_on_empty =
  QCheck.Test.make ~name:"A* is shortest on the empty grid" ~count:200
    QCheck.(quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
    (fun (x1, y1, x2, y2) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      match
        Router.route router occ ~src_cell:(cell x1 y1) ~dst_cell:(cell x2 y2)
      with
      | None -> false
      | Some p ->
        Path.length p
        = Grid.cell_to_cell_vertex_distance grid (cell x1 y1) (cell x2 y2) + 1)

let prop_reserved_paths_disjoint =
  QCheck.Test.make ~name:"successively reserved paths are vertex-disjoint"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 2 8)
              (pair (pair (int_bound 5) (int_bound 5))
                 (pair (int_bound 5) (int_bound 5))))
    (fun pairs ->
      let occ = fresh_occ () in
      let paths =
        List.filter_map
          (fun ((x1, y1), (x2, y2)) ->
            if (x1, y1) = (x2, y2) then None
            else
              Router.route_and_reserve router occ ~src_cell:(cell x1 y1)
                ~dst_cell:(cell x2 y2))
          pairs
      in
      let rec all_disjoint = function
        | [] -> true
        | p :: rest ->
          List.for_all (fun q -> Path.disjoint p q) rest && all_disjoint rest
      in
      all_disjoint paths)

(* Differential: the arena A* must be byte-identical to the pre-rewrite
   reference — same Some/None outcome and the same vertex sequence, since
   both must expand in the same order under FIFO tie-breaking. *)

let verts = function None -> None | Some p -> Some (Path.vertices p)

let test_differential_fixtures () =
  let queries occ =
    List.iter
      (fun (src, dst, bounds) ->
        Alcotest.(check (option (list int)))
          "arena = reference"
          (verts (Router.route_reference ?bounds router occ ~src_cell:src ~dst_cell:dst))
          (verts (Router.route ?bounds router occ ~src_cell:src ~dst_cell:dst)))
      [
        (cell 0 0, cell 5 5, None);
        (cell 0 0, cell 1 0, None);
        (cell 2 3, cell 3 2, None);
        (cell 0 0, cell 2 0, Some (Bbox.of_cells (0, 0) (2, 0)));
        (cell 0 0, cell 4 4, Some (Bbox.of_cells (0, 0) (3, 3)));
      ]
  in
  queries (fresh_occ ());
  (* congested fixture: the detour wall from test_route_detours *)
  let occ = fresh_occ () in
  for y = 0 to 5 do
    Occupancy.reserve_path occ (Path.of_vertices grid [ vid 3 y ])
  done;
  queries occ;
  (* fully blocked *)
  let occ = fresh_occ () in
  wall occ 3;
  queries occ

(* Fixed cases for the arena's fast paths, each compared with the
   reference: goal squares with some corners taken (the heuristic must
   skip the taken ones), cells whose shared corners are both source and
   goal, and bounded searches that cut the goal square or the source's
   corners. *)
let agree_on occ queries =
  List.iter
    (fun (src, dst, bounds) ->
      Alcotest.(check (option (list int)))
        (Printf.sprintf "arena = reference, %d -> %d%s" src dst
           (if bounds = None then "" else " (bounded)"))
        (verts
           (Router.route_reference ?bounds router occ ~src_cell:src
              ~dst_cell:dst))
        (verts (Router.route ?bounds router occ ~src_cell:src ~dst_cell:dst)))
    queries

let test_partial_goal_squares () =
  let goal = cell 3 2 in
  let corners = Grid.cell_corners grid goal in
  let sources = [ cell 0 0; cell 5 5; cell 0 5; cell 5 0; cell 3 4; cell 1 2 ] in
  (* every proper non-empty subset of the four corners: 1, 2 or 3 taken *)
  for mask = 1 to 14 do
    let occ = fresh_occ () in
    Array.iteri
      (fun k v ->
        if mask land (1 lsl k) <> 0 then
          Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
      corners;
    (* a partial wall, so some paths detour *)
    Occupancy.reserve_path occ
      (Path.of_vertices grid [ vid 1 4; vid 2 4; vid 3 4 ]);
    agree_on occ (List.map (fun s -> (s, goal, None)) sources)
  done

let test_shared_corners () =
  (* Every cell against each of its 8 neighbours: side neighbours share
     two corners, diagonal ones one; either way a shared corner is a
     source and a goal at once. Also with each shared corner taken. *)
  let pairs =
    List.concat_map
      (fun (x, y) ->
        List.filter_map
          (fun (dx, dy) ->
            let x' = x + dx and y' = y + dy in
            if (dx, dy) = (0, 0) || x' < 0 || y' < 0 || x' > 5 || y' > 5
            then None
            else Some (cell x y, cell x' y'))
          [ (-1, -1); (0, -1); (1, -1); (-1, 0); (1, 0); (-1, 1); (0, 1); (1, 1) ])
      [ (0, 0); (2, 3); (5, 5); (4, 1) ]
  in
  agree_on (fresh_occ ()) (List.map (fun (a, b) -> (a, b, None)) pairs);
  List.iter
    (fun (a, b) ->
      let ca = Grid.cell_corners grid a and cb = Grid.cell_corners grid b in
      Array.iter
        (fun v ->
          if Array.mem v cb then begin
            let occ = fresh_occ () in
            Occupancy.reserve_path occ (Path.of_vertices grid [ v ]);
            agree_on occ [ (a, b, None); (b, a, None) ]
          end)
        ca)
    pairs

let test_bounded_fast_paths () =
  let occ = fresh_occ () in
  Occupancy.reserve_path occ (Path.of_vertices grid [ vid 2 1; vid 2 2 ]);
  agree_on occ
    [
      (* the box holds both cells: all corners usable *)
      (cell 0 0, cell 4 3, Some (Bbox.of_cells (0, 0) (4, 3)));
      (* the box stops one column short of the goal cell: only its left
         corners are in the footprint *)
      (cell 0 0, cell 4 3, Some (Bbox.of_cells (0, 0) (3, 3)));
      (* ... one row short: only its top corners *)
      (cell 0 0, cell 4 3, Some (Bbox.of_cells (0, 0) (4, 2)));
      (* ... both: one goal corner *)
      (cell 0 0, cell 4 3, Some (Bbox.of_cells (0, 0) (3, 2)));
      (* the box cuts the source cell instead *)
      (cell 0 0, cell 4 3, Some (Bbox.of_cells (1, 1) (4, 3)));
      (* boxes past the grid's edge are clamped *)
      (cell 5 5, cell 2 1, Some (Bbox.of_cells (1, 0) (7, 7)));
      (* a box that reaches no goal corner *)
      (cell 0 0, cell 5 5, Some (Bbox.of_cells (0, 0) (2, 2)));
      (* a box around adjacent cells *)
      (cell 2 2, cell 3 2, Some (Bbox.of_cells (2, 2) (3, 2)));
    ]

let prop_route_matches_reference =
  QCheck.Test.make
    ~name:"arena A* = reference A* (random occupancy, random bounds)"
    ~count:500
    QCheck.(
      triple
        (quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
        (list_of_size (Gen.int_range 0 20) (int_bound 48))
        (option
           (quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))))
    (fun ((x1, y1, x2, y2), blocked, bounds) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      List.iter
        (fun v -> if Occupancy.is_free occ v then
            Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
        blocked;
      let bounds =
        Option.map
          (fun (bx1, by1, bx2, by2) ->
            Bbox.of_cells (min bx1 bx2, min by1 by2) (max bx1 bx2, max by1 by2))
          bounds
      in
      let src_cell = cell x1 y1 and dst_cell = cell x2 y2 in
      verts (Router.route ?bounds router occ ~src_cell ~dst_cell)
      = verts (Router.route_reference ?bounds router occ ~src_cell ~dst_cell))

(* Dead-region certificates. [route] labels the region an unbounded
   search closed when it fails, and answers later queries the labels prove
   disconnected without expanding. The labels are only valid within one
   occupancy epoch; these tests drive the epoch through reserve, release,
   clear and a second occupancy on the same router, and require [route]
   to agree with [route_reference] after every step. *)

module Tel = Qec_telemetry.Telemetry
module Collector = Qec_telemetry.Collector

let with_counters f =
  let c = Collector.create () in
  Tel.with_sink (Collector.sink c) f;
  c

(* Differential at paper scale: side-24..32 lattices (QFT-400 runs on
   side 20) with 30-45% of the vertices blocked, so routes are long, many
   fail and dead-region labels are used. Each case reserves a sequence of
   routes, some bounded, comparing [route] with [route_reference] before
   every reservation. *)
let prop_route_matches_reference_large =
  QCheck.Test.make
    ~name:"arena A* = reference A* (side 24-32, 30-45% blocked)" ~count:60
    QCheck.(
      make
        ~print:(fun (side, pct, seed) ->
          Printf.sprintf "side %d, %d%% blocked, seed %d" side pct seed)
        Gen.(triple (int_range 24 32) (int_range 30 45) (int_bound 1_000_000)))
    (fun (side, pct, seed) ->
      let g = Grid.create side in
      let r = Router.create g in
      let occ = Occupancy.create g in
      let rng = Random.State.make [| seed |] in
      for v = 0 to Grid.num_vertices g - 1 do
        if Random.State.int rng 100 < pct then
          Occupancy.reserve_path occ (Path.of_vertices g [ v ])
      done;
      let cells = Grid.num_cells g in
      List.for_all
        (fun _ ->
          let src_cell = Random.State.int rng cells in
          let dst_cell =
            (src_cell + 1 + Random.State.int rng (cells - 1)) mod cells
          in
          let bounds =
            if Random.State.bool rng then None
            else
              let c () = Random.State.int rng side in
              Some (Bbox.of_cells (c (), c ()) (c (), c ()))
          in
          let expect =
            verts (Router.route_reference ?bounds r occ ~src_cell ~dst_cell)
          in
          verts (Router.route_and_reserve ?bounds r occ ~src_cell ~dst_cell)
          = expect)
        (List.init 12 Fun.id))

(* A serpentine maze on the QFT-400 lattice: every odd channel row is a
   wall with one gap, alternating right and left, so the only path from
   the top-left cell to the bottom-right one runs every free row end to
   end. Its f-scores climb to the path length and every free vertex is
   pushed, towards the open list's sizing (f < n + 2 vside, at most
   4n + 4 pushes); the queue's bounds checks would raise if the sizing
   were short. *)
let test_serpentine_maze () =
  let side = 20 in
  let g = Grid.create side in
  let r = Router.create g in
  let occ = Occupancy.create g in
  let free = ref 0 in
  for y = 0 to side do
    for x = 0 to side do
      let gap = if y / 2 mod 2 = 0 then side else 0 in
      if y mod 2 = 1 && x <> gap then
        Occupancy.reserve_path occ
          (Path.of_vertices g [ Grid.vertex_id g ~x ~y ])
      else incr free
    done
  done;
  let src_cell = Grid.cell_id g ~x:0 ~y:0
  and dst_cell = Grid.cell_id g ~x:(side - 1) ~y:(side - 1) in
  let c =
    with_counters (fun () ->
        let got = Router.route r occ ~src_cell ~dst_cell in
        Alcotest.(check (option (list int)))
          "arena = reference"
          (verts (Router.route_reference r occ ~src_cell ~dst_cell))
          (verts got);
        match got with
        | None -> Alcotest.fail "the maze has a path"
        | Some p ->
          (* all free vertices but the first row's (0,0) and the last
             row's (20,20) *)
          check_int "path visits the maze" (!free - 2) (Path.length p))
  in
  check_bool "searches close most of the maze" true
    (Collector.counter c "router.expansions" >= 2 * (!free - 3));
  (* Closing the last gap disconnects the goal: the failed search closes
     the whole maze, and a repeat is certified without expanding. *)
  Occupancy.reserve_path occ
    (Path.of_vertices g [ Grid.vertex_id g ~x:0 ~y:(side - 1) ]);
  let c =
    with_counters (fun () ->
        check_bool "fails" true (Router.route r occ ~src_cell ~dst_cell = None);
        check_bool "fails again" true
          (Router.route r occ ~src_cell ~dst_cell = None))
  in
  check_int "one certified failure" 1
    (Collector.counter c "router.dead_region_hits");
  check_int "expanded once" (!free - 1 - (side + 1))
    (Collector.counter c "router.expansions")

let test_dead_region_then_release () =
  let occ = fresh_occ () in
  (* A wall along channel column 3 cuts the lattice in two. *)
  let wall = Path.of_vertices grid (List.init 7 (fun y -> vid 3 y)) in
  Occupancy.reserve_path occ wall;
  let query () =
    Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 0)
  in
  let c =
    with_counters (fun () ->
        check_bool "first search fails" true (query () = None);
        check_bool "second query fails" true (query () = None);
        check_bool "reference agrees" true
          (Router.route_reference router occ ~src_cell:(cell 0 0)
             ~dst_cell:(cell 5 0)
          = None))
  in
  check_int "one certified query" 1 (Collector.counter c "router.dead_region_hits");
  check_int "routes" 3 (Collector.counter c "router.routes");
  check_int "failures" 3 (Collector.counter c "router.route_failures");
  (* The first search closes the 3 x 7 source half; the certified query
     expands nothing; the reference repeats the full search (and keeps
     no failed-expansion count). *)
  check_int "expansions" 42 (Collector.counter c "router.expansions");
  check_int "failed expansions" 21
    (Collector.counter c "router.failed_expansions");
  (* Releasing the wall starts a new epoch: the same query now routes. *)
  Occupancy.release_path occ wall;
  check_bool "routes after release" true (query () <> None);
  (* Clearing also drops the labels. *)
  Occupancy.reserve_path occ wall;
  check_bool "fails again" true (query () = None);
  Occupancy.clear occ;
  check_bool "routes after clear" true (query () <> None)

let test_dead_region_not_shared () =
  (* Two occupancies share the router. [a] is cut by channel column 3,
     [b] by channel row 3. Each fails one query, so each labels a half of
     the lattice; [b]'s labels cover the top-left quarter that [a] had
     labelled. [a] then fails once more from the right half, labelling
     it. [a]'s left half is still connected top to bottom, so its next
     query must route: neither [b]'s stamps nor [a]'s labels from before
     [b] stamped may count. *)
  let a = fresh_occ () and b = fresh_occ () in
  wall a 3;
  Occupancy.reserve_path b
    (Path.of_vertices grid (List.init 7 (fun x -> vid x 3)));
  let q occ src dst = Router.route router occ ~src_cell:src ~dst_cell:dst in
  check_bool "a: left to right fails" true (q a (cell 0 0) (cell 5 0) = None);
  check_bool "b: top to bottom fails" true (q b (cell 0 0) (cell 0 5) = None);
  check_bool "a: right to left fails" true (q a (cell 5 0) (cell 0 0) = None);
  let top_to_bottom = q a (cell 0 0) (cell 0 5) in
  check_bool "a: top to bottom routes" true (top_to_bottom <> None);
  check_bool "a: agrees with reference" true
    (verts top_to_bottom
    = verts
        (Router.route_reference router a ~src_cell:(cell 0 0)
           ~dst_cell:(cell 0 5)));
  check_bool "b: still fails" true (q b (cell 0 0) (cell 0 5) = None)

type op =
  | Reserve of int * int * int * bool  (** occupancy, src, dst, bounded *)
  | Release of int * int  (** occupancy, which held path *)
  | Clear of int
  | Probe of int * int * int  (** occupancy, src, dst; no reservation *)

let op_gen =
  QCheck.Gen.(
    let occ = int_bound 1 and c = int_bound 35 in
    frequency
      [
        (6, map (fun (o, a, b, bd) -> Reserve (o, a, b, bd)) (quad occ c c bool));
        (2, map2 (fun o k -> Release (o, k)) occ (int_bound 9));
        (1, map (fun o -> Clear o) occ);
        (4, map3 (fun o a b -> Probe (o, a, b)) occ c c);
      ])

let print_op = function
  | Reserve (o, a, b, bd) -> Printf.sprintf "Reserve(%d,%d,%d,%b)" o a b bd
  | Release (o, k) -> Printf.sprintf "Release(%d,%d)" o k
  | Clear o -> Printf.sprintf "Clear %d" o
  | Probe (o, a, b) -> Printf.sprintf "Probe(%d,%d,%d)" o a b

(* Bounds for a bounded reservation: the two cells' box, as the stack
   finder's LLG confinement would pass it. *)
let cell_box a b =
  let (ax, ay) = Grid.cell_xy grid a and (bx, by) = Grid.cell_xy grid b in
  Bbox.of_cells (ax, ay) (bx, by)

let prop_ops_match_reference =
  QCheck.Test.make
    ~name:"arena A* = reference A* across reserve/release/clear/shared router"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 24) (int_bound 48))
        (make ~print:(Print.list print_op)
           Gen.(list_size (int_range 1 60) op_gen)))
    (fun (blocked, ops) ->
      let occs = [| fresh_occ (); fresh_occ () |] in
      let held = [| []; [] |] in
      List.iter
        (fun v ->
          if Occupancy.is_free occs.(0) v then
            Occupancy.reserve_path occs.(0) (Path.of_vertices grid [ v ]))
        blocked;
      (* Probe a fixed set of far queries after every step as well, so
         labels from one step are exercised by the next. *)
      let probes = [ (0, 35); (5, 30); (2, 33); (12, 17) ] in
      let agree o src dst bounds =
        verts (Router.route ?bounds router occs.(o) ~src_cell:src ~dst_cell:dst)
        = verts
            (Router.route_reference ?bounds router occs.(o) ~src_cell:src
               ~dst_cell:dst)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Reserve (o, a, b, bd) when a <> b ->
              let bounds = if bd then Some (cell_box a b) else None in
              let expect =
                verts
                  (Router.route_reference ?bounds router occs.(o) ~src_cell:a
                     ~dst_cell:b)
              in
              let got =
                Router.route_and_reserve ?bounds router occs.(o) ~src_cell:a
                  ~dst_cell:b
              in
              Option.iter (fun p -> held.(o) <- p :: held.(o)) got;
              verts got = expect
            | Reserve _ | Probe _ -> (
              match op with
              | Probe (o, a, b) when a <> b -> agree o a b None
              | _ -> true)
            | Release (o, k) ->
              (match held.(o) with
              | [] -> ()
              | ps ->
                let p = List.nth ps (k mod List.length ps) in
                Occupancy.release_path occs.(o) p;
                held.(o) <- List.filter (fun q -> q != p) ps);
              true
            | Clear o ->
              Occupancy.clear occs.(o);
              held.(o) <- [];
              true
          in
          ok
          && List.for_all
               (fun (src, dst) -> agree 0 src dst None && agree 1 src dst None)
               probes)
        ops)

(* Dimension-ordered routes against the list-building specification:
   for every (source corner, target corner) pair in corner order, the
   x-first then the y-first single-bend staircase (one candidate when the
   corners share a row or column), stable-sorted by length; the first
   candidate whose vertices are all free wins. *)
let dimension_ordered_spec ?(g = grid) occ src dst =
  let vid x y = Grid.vertex_id g ~x ~y in
  let line (x1, y1) (x2, y2) =
    if x1 = x2 then
      let s = if y2 >= y1 then 1 else -1 in
      List.init (abs (y2 - y1) + 1) (fun i -> vid x1 (y1 + (i * s)))
    else
      let s = if x2 >= x1 then 1 else -1 in
      List.init (abs (x2 - x1) + 1) (fun i -> vid (x1 + (i * s)) y1)
  in
  let candidates a b =
    let (ax, ay) as pa = Grid.vertex_xy g a
    and (bx, by) as pb = Grid.vertex_xy g b in
    if a = b then [ [ a ] ]
    else if ax = bx || ay = by then [ line pa pb ]
    else
      [ line pa (bx, ay) @ List.tl (line (bx, ay) pb);
        line pa (ax, by) @ List.tl (line (ax, by) pb) ]
  in
  let all =
    List.concat_map
      (fun a ->
        List.concat_map (candidates a)
          (Array.to_list (Grid.cell_corners g dst)))
      (Array.to_list (Grid.cell_corners g src))
  in
  List.stable_sort (fun p q -> compare (List.length p) (List.length q)) all
  |> List.find_opt (List.for_all (Occupancy.is_free occ))

let prop_dimension_ordered_spec =
  QCheck.Test.make ~name:"dimension-ordered route = list specification"
    ~count:500
    QCheck.(
      triple (int_bound 35) (int_bound 35)
        (list_of_size (Gen.int_range 0 30) (int_bound 48)))
    (fun (src, dst, blocked) ->
      QCheck.assume (src <> dst);
      let occ = fresh_occ () in
      List.iter
        (fun v ->
          if Occupancy.is_free occ v then
            Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
        blocked;
      verts (Router.route_dimension_ordered router occ ~src_cell:src ~dst_cell:dst)
      = dimension_ordered_spec occ src dst)

(* The same specification on a 12x12 lattice, biased toward the cases
   where the router's free-run caps and step signs matter: cells on the
   lattice's edges; target in the source's row or column, or within one
   cell of it, so that dx or dy lies in {-1, 0, 1} for some corner pairs
   and its sign differs between pairs; and blocking up to 80% of the
   vertices. *)
let big_grid = Grid.create 12
let big_router = Router.create big_grid

let biased_dimension_case =
  let open QCheck.Gen in
  let last = Grid.side big_grid - 1 in
  let coord =
    frequency [ (1, return 0); (1, return last); (3, int_bound last) ]
  in
  let near c = map (fun d -> max 0 (min last (c + d))) (int_range (-1) 1) in
  let* sx = coord and* sy = coord in
  let* tx, ty =
    frequency
      [
        (2, pair coord coord);
        (2, map (fun y -> (sx, y)) coord);
        (2, map (fun x -> (x, sy)) coord);
        (3, pair (near sx) (near sy));
        (2, pair (near sx) coord);
        (2, pair coord (near sy));
      ]
  in
  let* density = oneofl [ 0.; 0.1; 0.3; 0.5; 0.8 ] in
  let+ rolls =
    list_repeat (Grid.num_vertices big_grid) (float_bound_exclusive 1.)
  in
  let blocked =
    List.concat (List.mapi (fun v r -> if r < density then [ v ] else []) rolls)
  in
  ( Grid.cell_id big_grid ~x:sx ~y:sy,
    Grid.cell_id big_grid ~x:tx ~y:ty,
    blocked )

let prop_dimension_ordered_spec_biased =
  QCheck.Test.make
    ~name:"dimension-ordered route = list specification (12x12, biased)"
    ~count:1500
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list int))
       biased_dimension_case)
    (fun (src, dst, blocked) ->
      QCheck.assume (src <> dst);
      let occ = Occupancy.create big_grid in
      List.iter
        (fun v -> Occupancy.reserve_path occ (Path.of_vertices big_grid [ v ]))
        blocked;
      verts
        (Router.route_dimension_ordered big_router occ ~src_cell:src
           ~dst_cell:dst)
      = dimension_ordered_spec ~g:big_grid occ src dst)

let () =
  Alcotest.run "router"
    [
      ( "astar",
        [
          Alcotest.test_case "empty grid" `Quick test_route_exists_empty;
          Alcotest.test_case "adjacent cells" `Quick test_route_adjacent_cells;
          Alcotest.test_case "same cell" `Quick test_route_same_cell_invalid;
          Alcotest.test_case "detours" `Quick test_route_detours;
          Alcotest.test_case "blocked" `Quick test_route_blocked;
          Alcotest.test_case "blocked corners" `Quick test_route_blocked_corners;
          Alcotest.test_case "reserve" `Quick test_route_and_reserve;
          Alcotest.test_case "bounds" `Quick test_route_bounds;
          QCheck_alcotest.to_alcotest prop_route_valid;
          QCheck_alcotest.to_alcotest prop_route_shortest_on_empty;
          QCheck_alcotest.to_alcotest prop_reserved_paths_disjoint;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fixtures: arena = reference" `Quick
            test_differential_fixtures;
          Alcotest.test_case "goal squares with 1-3 corners taken" `Quick
            test_partial_goal_squares;
          Alcotest.test_case "shared source and goal corners" `Quick
            test_shared_corners;
          Alcotest.test_case "bounded searches" `Quick test_bounded_fast_paths;
          QCheck_alcotest.to_alcotest prop_route_matches_reference;
          QCheck_alcotest.to_alcotest prop_ops_match_reference;
          QCheck_alcotest.to_alcotest prop_route_matches_reference_large;
          Alcotest.test_case "serpentine maze" `Quick test_serpentine_maze;
        ] );
      ( "dead regions",
        [
          Alcotest.test_case "certified, then released" `Quick
            test_dead_region_then_release;
          Alcotest.test_case "not shared across occupancies" `Quick
            test_dead_region_not_shared;
        ] );
      ( "dimension ordered",
        [
          Alcotest.test_case "straight" `Quick test_dimension_ordered_straight;
          Alcotest.test_case "bend" `Quick test_dimension_ordered_bend;
          Alcotest.test_case "stalls where A* detours" `Quick test_dimension_ordered_stalls;
          QCheck_alcotest.to_alcotest prop_dimension_ordered_spec;
          QCheck_alcotest.to_alcotest prop_dimension_ordered_spec_biased;
        ] );
    ]
