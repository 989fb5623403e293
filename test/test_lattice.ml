(* Tests for grid geometry, bounding boxes, paths, occupancy, placement. *)

module Grid = Qec_lattice.Grid
module Bbox = Qec_lattice.Bbox
module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Placement = Qec_lattice.Placement

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Grid                                                                 *)

let test_grid_sizes () =
  let g = Grid.create 4 in
  check_int "side" 4 (Grid.side g);
  check_int "cells" 16 (Grid.num_cells g);
  check_int "vertices" 25 (Grid.num_vertices g)

let test_grid_vertex_ids () =
  let g = Grid.create 3 in
  check_int "origin" 0 (Grid.vertex_id g ~x:0 ~y:0);
  check_int "last" 15 (Grid.vertex_id g ~x:3 ~y:3);
  Alcotest.(check (pair int int)) "roundtrip" (2, 1)
    (Grid.vertex_xy g (Grid.vertex_id g ~x:2 ~y:1))

let test_grid_cell_corners () =
  let g = Grid.create 3 in
  let c = Grid.cell_id g ~x:1 ~y:1 in
  Alcotest.(check (list int))
    "corners"
    [ Grid.vertex_id g ~x:1 ~y:1; Grid.vertex_id g ~x:2 ~y:1;
      Grid.vertex_id g ~x:1 ~y:2; Grid.vertex_id g ~x:2 ~y:2 ]
    (Array.to_list (Grid.cell_corners g c))

let test_grid_neighbors () =
  let g = Grid.create 2 in
  (* corner vertex has 2 neighbors, center has 4 *)
  check_int "corner" 2 (List.length (Grid.vertex_neighbors g 0));
  let center = Grid.vertex_id g ~x:1 ~y:1 in
  check_int "center" 4 (List.length (Grid.vertex_neighbors g center));
  (* neighbors are symmetric *)
  List.iter
    (fun v ->
      List.iter
        (fun nb ->
          check_bool "symmetric" true
            (List.mem v (Grid.vertex_neighbors g nb)))
        (Grid.vertex_neighbors g v))
    (List.init (Grid.num_vertices g) (fun i -> i))

let test_grid_distances () =
  let g = Grid.create 4 in
  let a = Grid.vertex_id g ~x:0 ~y:0 and b = Grid.vertex_id g ~x:3 ~y:2 in
  check_int "vertex manhattan" 5 (Grid.vertex_distance g a b);
  let ca = Grid.cell_id g ~x:0 ~y:0 and cb = Grid.cell_id g ~x:2 ~y:2 in
  check_int "cell manhattan" 4 (Grid.cell_distance g ca cb);
  (* corner-to-corner min distance is cell distance minus the spans *)
  check_int "corner distance" 2 (Grid.cell_to_cell_vertex_distance g ca cb);
  (* adjacent cells share corners: distance 0 *)
  let cc = Grid.cell_id g ~x:1 ~y:0 in
  check_int "adjacent" 0 (Grid.cell_to_cell_vertex_distance g ca cc)

let test_grid_bounds () =
  let g = Grid.create 2 in
  check_bool "vertex oob" true
    (match Grid.vertex_id g ~x:3 ~y:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "cell oob" true
    (match Grid.cell_id g ~x:2 ~y:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "create 0" true
    (match Grid.create 0 with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Bbox                                                                 *)

let test_bbox_construction () =
  let b = Bbox.of_cells (3, 1) (0, 2) in
  check_int "x0" 0 b.Bbox.x0;
  check_int "x1" 3 b.Bbox.x1;
  check_int "width" 4 (Bbox.width b);
  check_int "height" 2 (Bbox.height b);
  check_int "area" 8 (Bbox.area b)

let test_bbox_invalid () =
  check_bool "inverted" true
    (match Bbox.make ~x0:2 ~y0:0 ~x1:1 ~y1:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bbox_of_points_join () =
  let b = Bbox.of_points [ (1, 1); (4, 0); (2, 3) ] in
  check_int "x1" 4 b.Bbox.x1;
  check_int "y1" 3 b.Bbox.y1;
  let j = Bbox.join b (Bbox.of_cells (0, 0) (0, 0)) in
  check_int "joined x0" 0 j.Bbox.x0

let test_bbox_intersections () =
  let a = Bbox.of_cells (0, 0) (2, 2) in
  let b = Bbox.of_cells (2, 2) (4, 4) in
  let c = Bbox.of_cells (3, 3) (4, 4) in
  let d = Bbox.of_cells (4, 0) (5, 1) in
  check_bool "share cell" true (Bbox.intersects a b);
  check_bool "disjoint cells" false (Bbox.intersects a c);
  (* a spans cells 0-2; c starts at 3: they share the channel column x=3 *)
  check_bool "vertex touching" true (Bbox.touches_or_intersects a c);
  check_bool "far apart" false (Bbox.touches_or_intersects a d)

let test_bbox_nesting () =
  let outer = Bbox.of_cells (0, 0) (5, 5) in
  let inner = Bbox.of_cells (2, 2) (3, 3) in
  let touching = Bbox.of_cells (0, 2) (3, 3) in
  check_bool "contains" true (Bbox.contains outer inner);
  check_bool "strict" true (Bbox.strictly_nests ~outer ~inner);
  check_bool "not strict on boundary" false
    (Bbox.strictly_nests ~outer ~inner:touching);
  check_bool "contains on boundary" true (Bbox.contains outer touching);
  check_bool "point" true (Bbox.contains_point outer (5, 0));
  check_bool "point out" false (Bbox.contains_point inner (5, 0))

(* ------------------------------------------------------------------ *)
(* Path                                                                 *)

let grid5 = Grid.create 5

let vid x y = Grid.vertex_id grid5 ~x ~y

let test_path_valid () =
  let p = Path.of_vertices grid5 [ vid 0 0; vid 1 0; vid 1 1; vid 2 1 ] in
  check_int "length" 4 (Path.length p);
  check_int "source" (vid 0 0) (Path.source p);
  check_int "target" (vid 2 1) (Path.target p);
  check_bool "mem" true (Path.mem p (vid 1 1));
  check_bool "not mem" false (Path.mem p (vid 3 3))

let test_path_single_vertex () =
  let p = Path.of_vertices grid5 [ vid 2 2 ] in
  check_int "length 1" 1 (Path.length p);
  check_int "src=tgt" (Path.source p) (Path.target p)

let test_path_invalid () =
  check_bool "empty" true
    (match Path.of_vertices grid5 [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "not adjacent" true
    (match Path.of_vertices grid5 [ vid 0 0; vid 2 0 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "repeat" true
    (match Path.of_vertices grid5 [ vid 0 0; vid 1 0; vid 0 0 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Steps of +-1 across a row end and steps past the grid's top or bottom
   differ by an adjacent-looking amount, but are not grid edges. *)
let test_path_wrap_and_range () =
  let rejects verts =
    match Path.of_vertices grid5 verts with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "row end to next row start" true (rejects [ vid 5 0; vid 0 1 ]);
  check_bool "row start to previous row end" true (rejects [ vid 0 1; vid 5 0 ]);
  check_bool "wrap late in a path" true
    (rejects [ vid 3 2; vid 4 2; vid 5 2; vid 0 3 ]);
  check_bool "below the last row" true (rejects [ vid 2 5; vid 2 5 + 6 ]);
  check_bool "above the first row" true (rejects [ vid 2 0; vid 2 0 - 6 ]);
  check_bool "first vertex off the grid" true (rejects [ 36; 30 ]);
  check_bool "negative first vertex" true (rejects [ -1; 0 ]);
  check_bool "single vertex off the grid" true (rejects [ 36 ]);
  check_int "row edges are fine" 4
    (Path.length (Path.of_vertices grid5 [ vid 4 0; vid 5 0; vid 5 1; vid 4 1 ]))

let test_path_invalid_long () =
  (* A walk around cell (1,1) that returns to its start: every step is
     adjacent, the repeat is four steps apart. *)
  check_bool "loop" true
    (match
       Path.of_vertices grid5
         [ vid 1 1; vid 2 1; vid 2 2; vid 1 2; vid 1 1; vid 0 1 ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "gap late in a long path" true
    (match
       Path.of_vertices grid5 [ vid 0 0; vid 1 0; vid 2 0; vid 3 0; vid 3 2 ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Random walks on the 6 x 6 vertex grid: [of_vertices] accepts a walk
   exactly when no vertex repeats, and then [mem]/[length]/[disjoint]
   agree with the plain list. *)
let prop_path_random_walks =
  QCheck.Test.make ~name:"of_vertices accepts exactly the repeat-free walks"
    ~count:500
    QCheck.(
      triple (int_bound 35) (list_of_size (Gen.int_range 0 14) (int_bound 3))
        (int_bound 35))
    (fun (start, steps, probe) ->
      let step v d =
        let x = v mod 6 and y = v / 6 in
        match d with
        | 0 when y > 0 -> v - 6
        | 1 when x > 0 -> v - 1
        | 2 when x < 5 -> v + 1
        | 3 when y < 5 -> v + 6
        | _ -> v + (if x < 5 then 1 else -1)
      in
      let walk =
        List.rev
          (List.fold_left (fun acc d -> step (List.hd acc) d :: acc) [ start ]
             steps)
      in
      let distinct = List.length (List.sort_uniq compare walk) = List.length walk in
      match Path.of_vertices grid5 walk with
      | exception Invalid_argument _ -> not distinct
      | p ->
        let single = Path.of_vertices grid5 [ probe ] in
        distinct
        && Path.length p = List.length walk
        && Path.mem p probe = List.mem probe walk
        && Path.disjoint p single = not (List.mem probe walk))

let test_path_disjoint () =
  let p1 = Path.of_vertices grid5 [ vid 0 0; vid 1 0 ] in
  let p2 = Path.of_vertices grid5 [ vid 0 1; vid 1 1 ] in
  let p3 = Path.of_vertices grid5 [ vid 1 0; vid 1 1 ] in
  check_bool "disjoint" true (Path.disjoint p1 p2);
  check_bool "overlap p1" false (Path.disjoint p1 p3);
  check_bool "overlap p2" false (Path.disjoint p2 p3)

let test_path_connects_cells () =
  let c00 = Grid.cell_id grid5 ~x:0 ~y:0 and c22 = Grid.cell_id grid5 ~x:2 ~y:2 in
  let p = Path.of_vertices grid5 [ vid 1 1; vid 2 1; vid 2 2 ] in
  check_bool "connects" true (Path.connects_cells grid5 p c00 c22);
  check_bool "reversed" true (Path.connects_cells grid5 p c22 c00);
  let c44 = Grid.cell_id grid5 ~x:4 ~y:4 in
  check_bool "wrong cells" false (Path.connects_cells grid5 p c00 c44)

let test_path_within_bbox () =
  let box = Bbox.of_cells (0, 0) (1, 1) in
  let inside = Path.of_vertices grid5 [ vid 0 0; vid 1 0; vid 2 0 ] in
  let outside = Path.of_vertices grid5 [ vid 2 0; vid 3 0 ] in
  check_bool "inside" true (Path.within_bbox grid5 box inside);
  check_bool "outside" false (Path.within_bbox grid5 box outside)

(* ------------------------------------------------------------------ *)
(* Occupancy                                                            *)

(* [occupied_count], [utilization] and [snapshot] against the vertices
   the test itself has claimed. *)
let check_accounting msg occ claimed =
  check_int (msg ^ ": count") (List.length claimed) (Occupancy.occupied_count occ);
  Alcotest.(check (float 1e-9))
    (msg ^ ": utilization")
    (float_of_int (List.length claimed) /. 36.)
    (Occupancy.utilization occ);
  Alcotest.(check (list int))
    (msg ^ ": snapshot")
    (List.sort compare claimed)
    (Qec_util.Bitset.to_list (Occupancy.snapshot occ));
  for v = 0 to 35 do
    check_bool (Printf.sprintf "%s: v%d free" msg v)
      (not (List.mem v claimed))
      (Occupancy.is_free occ v)
  done

let test_occupancy () =
  let occ = Occupancy.create grid5 in
  check_accounting "fresh" occ [];
  let p = Path.of_vertices grid5 [ vid 0 0; vid 1 0 ] in
  Occupancy.reserve_path occ p;
  check_accounting "reserved" occ [ vid 0 0; vid 1 0 ];
  check_bool "double reserve" true
    (match Occupancy.reserve_path occ p with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let q = Path.of_vertices grid5 [ vid 5 5; vid 5 4; vid 4 4 ] in
  Occupancy.reserve_path occ q;
  check_accounting "two paths" occ [ vid 0 0; vid 1 0; vid 5 5; vid 5 4; vid 4 4 ];
  (* a path that overlaps a claimed vertex is rejected whole *)
  check_bool "overlap rejected" true
    (match
       Occupancy.reserve_path occ (Path.of_vertices grid5 [ vid 2 0; vid 1 0 ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_accounting "after rejected reserve" occ
    [ vid 0 0; vid 1 0; vid 5 5; vid 5 4; vid 4 4 ];
  Occupancy.release_path occ p;
  check_accounting "released" occ [ vid 5 5; vid 5 4; vid 4 4 ];
  check_bool "double release" true
    (match Occupancy.release_path occ p with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_accounting "after rejected release" occ [ vid 5 5; vid 5 4; vid 4 4 ];
  Occupancy.reserve_path occ p;
  Occupancy.clear occ;
  check_accounting "cleared" occ [];
  (* the snapshot is a copy: later claims do not show in it *)
  let before = Occupancy.snapshot occ in
  Occupancy.reserve_path occ q;
  check_int "snapshot is a copy" 0 (Qec_util.Bitset.cardinal before);
  check_accounting "reserved after clear" occ [ vid 5 5; vid 5 4; vid 4 4 ]

(* ------------------------------------------------------------------ *)
(* Placement                                                            *)

let test_placement_basic () =
  let p = Placement.identity grid5 ~num_qubits:10 in
  check_int "qubits" 10 (Placement.num_qubits p);
  check_int "cell of 3" 3 (Placement.cell_of_qubit p 3);
  Alcotest.(check (option int)) "qubit of 3" (Some 3) (Placement.qubit_of_cell p 3);
  Alcotest.(check (option int)) "empty cell" None (Placement.qubit_of_cell p 20)

let test_placement_swap_move () =
  let p = Placement.identity grid5 ~num_qubits:4 in
  Placement.swap_qubits p 0 3;
  check_int "0 at 3" 3 (Placement.cell_of_qubit p 0);
  check_int "3 at 0" 0 (Placement.cell_of_qubit p 3);
  Alcotest.(check (option int)) "cell 0 holds q3" (Some 3) (Placement.qubit_of_cell p 0);
  Placement.move_qubit p ~qubit:1 ~cell:10;
  check_int "moved" 10 (Placement.cell_of_qubit p 1);
  Alcotest.(check (option int)) "old cell empty" None (Placement.qubit_of_cell p 1);
  check_bool "move to occupied" true
    (match Placement.move_qubit p ~qubit:2 ~cell:10 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_placement_invalid () =
  check_bool "duplicate" true
    (match Placement.create grid5 ~num_qubits:2 ~cells:[| 1; 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "too many" true
    (match Placement.create (Grid.create 2) ~num_qubits:5 ~cells:[| 0; 1; 2; 3; 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_placement_snake () =
  let g = Grid.create 3 in
  let p = Placement.of_order g [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  (* consecutive qubits in the order are in adjacent cells *)
  for q = 0 to 7 do
    check_int
      (Printf.sprintf "q%d adjacent to q%d" q (q + 1))
      1
      (Placement.distance p q (q + 1))
  done

let test_placement_of_order_permuted () =
  let g = Grid.create 2 in
  let p = Placement.of_order g [ 2; 0; 3; 1 ] in
  (* q2 first in snake order -> cell 0 *)
  check_int "q2 at cell 0" 0 (Placement.cell_of_qubit p 2);
  check_int "q0 second" 1 (Placement.cell_of_qubit p 0)

let test_placement_random_valid () =
  let rng = Qec_util.Rng.create 3 in
  let p = Placement.random rng grid5 ~num_qubits:20 in
  let cells = Placement.to_array p in
  check_int "distinct cells" 20
    (List.length (List.sort_uniq compare (Array.to_list cells)))

let test_placement_bbox () =
  let p = Placement.identity grid5 ~num_qubits:25 in
  (* qubit 0 at (0,0), qubit 12 at (2,2) on the 5-wide grid *)
  let b = Placement.cx_bbox p 0 12 in
  check_int "x0" 0 b.Bbox.x0;
  check_int "x1" 2 b.Bbox.x1;
  check_int "y1" 2 b.Bbox.y1

let test_placement_copy_equal () =
  let p = Placement.identity grid5 ~num_qubits:5 in
  let q = Placement.copy p in
  check_bool "equal" true (Placement.equal p q);
  Placement.swap_qubits q 0 1;
  check_bool "diverged" false (Placement.equal p q);
  check_int "original intact" 0 (Placement.cell_of_qubit p 0)

(* The cached coordinates: after every swap and move, on placements built
   by create, of_order and random, qubit_cell_xy, distance and cx_bbox
   equal their definitions through Grid.cell_xy, and so do xs/ys.
   Mutating a copy leaves the original's coordinates as they were. *)
let coords_agree p =
  let g = Placement.grid p in
  let n = Placement.num_qubits p in
  let cell = Placement.cell_of_qubit p in
  let xy q = Grid.cell_xy g (cell q) in
  let ok = ref true in
  for a = 0 to n - 1 do
    ok :=
      !ok
      && Placement.qubit_cell_xy p a = xy a
      && ((Placement.xs p).(a), (Placement.ys p).(a)) = xy a;
    for b = 0 to n - 1 do
      ok :=
        !ok
        && Placement.distance p a b = Grid.cell_distance g (cell a) (cell b)
        && Placement.cx_bbox p a b = Bbox.of_cells (xy a) (xy b)
    done
  done;
  !ok

(* Op (k, i, j): k = 0 swaps qubits i and j (mod n); k = 1 moves qubit i
   to the j-th empty cell, when there is one. *)
let apply_op p (k, i, j) =
  let n = Placement.num_qubits p in
  let cells = Grid.num_cells (Placement.grid p) in
  if k = 0 then Placement.swap_qubits p (i mod n) (j mod n)
  else
    let empty =
      List.filter
        (fun c -> Placement.qubit_of_cell p c = None)
        (List.init cells Fun.id)
    in
    if empty <> [] then
      Placement.move_qubit p ~qubit:(i mod n)
        ~cell:(List.nth empty (j mod List.length empty))

let placement_ops_gen =
  QCheck.Gen.(
    let* kind = int_bound 2 in
    let* side = int_range 1 6 in
    let* n = int_range 1 (side * side) in
    let* seed = int_bound 10_000 in
    let op = triple (int_bound 1) (int_bound 99) (int_bound 99) in
    let* ops = list_size (int_range 0 20) op in
    let* copy_ops = list_size (int_range 1 8) op in
    return (kind, side, n, seed, ops, copy_ops))

let build_placement (kind, side, n, seed, _, _) =
  let grid = Grid.create side in
  let rng = Qec_util.Rng.create seed in
  match kind with
  | 0 ->
    let cells =
      Qec_util.Rng.sample_without_replacement rng n (Grid.num_cells grid)
    in
    Placement.create grid ~num_qubits:n ~cells:(Array.of_list cells)
  | 1 ->
    let order = Qec_util.Rng.sample_without_replacement rng n n in
    Placement.of_order grid order
  | _ -> Placement.random rng grid ~num_qubits:n

let prop_placement_coords =
  QCheck.Test.make ~name:"cached coordinates follow swaps, moves and copies"
    ~count:200
    (QCheck.make
       ~print:(fun (kind, side, n, seed, ops, copy_ops) ->
         Printf.sprintf "kind %d side %d n %d seed %d, %d ops, %d copy ops"
           kind side n seed (List.length ops) (List.length copy_ops))
       placement_ops_gen)
    (fun ((_, _, _, _, ops, copy_ops) as case) ->
      let p = build_placement case in
      let steps_ok =
        coords_agree p
        && List.for_all
             (fun op ->
               apply_op p op;
               coords_agree p)
             ops
      in
      let snapshot q =
        List.init (Placement.num_qubits q) (Placement.qubit_cell_xy q)
      in
      let before = snapshot p in
      let c = Placement.copy p in
      List.iter (apply_op c) copy_ops;
      steps_ok && coords_agree c && coords_agree p && snapshot p = before)

let () =
  Alcotest.run "lattice"
    [
      ( "grid",
        [
          Alcotest.test_case "sizes" `Quick test_grid_sizes;
          Alcotest.test_case "vertex ids" `Quick test_grid_vertex_ids;
          Alcotest.test_case "cell corners" `Quick test_grid_cell_corners;
          Alcotest.test_case "neighbors" `Quick test_grid_neighbors;
          Alcotest.test_case "distances" `Quick test_grid_distances;
          Alcotest.test_case "bounds" `Quick test_grid_bounds;
        ] );
      ( "bbox",
        [
          Alcotest.test_case "construction" `Quick test_bbox_construction;
          Alcotest.test_case "invalid" `Quick test_bbox_invalid;
          Alcotest.test_case "points/join" `Quick test_bbox_of_points_join;
          Alcotest.test_case "intersections" `Quick test_bbox_intersections;
          Alcotest.test_case "nesting" `Quick test_bbox_nesting;
        ] );
      ( "path",
        [
          Alcotest.test_case "valid" `Quick test_path_valid;
          Alcotest.test_case "single vertex" `Quick test_path_single_vertex;
          Alcotest.test_case "invalid" `Quick test_path_invalid;
          Alcotest.test_case "wrap and range" `Quick test_path_wrap_and_range;
          Alcotest.test_case "invalid long" `Quick test_path_invalid_long;
          QCheck_alcotest.to_alcotest prop_path_random_walks;
          Alcotest.test_case "disjoint" `Quick test_path_disjoint;
          Alcotest.test_case "connects cells" `Quick test_path_connects_cells;
          Alcotest.test_case "within bbox" `Quick test_path_within_bbox;
        ] );
      ("occupancy", [ Alcotest.test_case "lifecycle" `Quick test_occupancy ]);
      ( "placement",
        [
          Alcotest.test_case "basic" `Quick test_placement_basic;
          Alcotest.test_case "swap/move" `Quick test_placement_swap_move;
          Alcotest.test_case "invalid" `Quick test_placement_invalid;
          Alcotest.test_case "snake" `Quick test_placement_snake;
          Alcotest.test_case "of_order permuted" `Quick test_placement_of_order_permuted;
          Alcotest.test_case "random" `Quick test_placement_random_valid;
          Alcotest.test_case "bbox" `Quick test_placement_bbox;
          Alcotest.test_case "copy/equal" `Quick test_placement_copy_equal;
          QCheck_alcotest.to_alcotest prop_placement_coords;
        ] );
    ]
