(* Tests for the CX interference graph. *)

module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Task = Autobraid.Task
module I = Autobraid.Interference

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let placement_at l coords =
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(Array.length cells) ~cells

let tasks n = List.init n (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 })

(* three gates: 0 and 1 overlap, 2 is far away *)
let sample () =
  let p = placement_at 10 [ (0, 0); (2, 2); (1, 1); (3, 3); (8, 8); (9, 9) ] in
  (p, I.build p (tasks 3))

let test_build () =
  let _, ig = sample () in
  check_int "nodes" 3 (I.node_count ig);
  check_int "original" 3 (I.original_count ig);
  check_int "deg 0" 1 (I.degree ig 0);
  check_int "deg 1" 1 (I.degree ig 1);
  check_int "deg 2" 0 (I.degree ig 2);
  check_int "max degree" 1 (I.max_degree ig)

let test_neighbors () =
  let _, ig = sample () in
  Alcotest.(check (list int))
    "nbrs of 0" [ 1 ]
    (List.map (fun t -> t.Task.id) (I.neighbors ig 0));
  Alcotest.(check (list int))
    "nbrs of 2" []
    (List.map (fun t -> t.Task.id) (I.neighbors ig 2))

let test_max_degree_nodes () =
  let _, ig = sample () in
  Alcotest.(check (list int))
    "max nodes" [ 0; 1 ]
    (List.map (fun t -> t.Task.id) (I.max_degree_nodes ig))

let test_remove () =
  let _, ig = sample () in
  I.remove ig 0;
  check_int "nodes after" 2 (I.node_count ig);
  check_int "original unchanged" 3 (I.original_count ig);
  check_int "degree updated" 0 (I.degree ig 1);
  check_bool "mem removed" false (I.mem ig 0);
  check_bool "raises on absent" true
    (match I.degree ig 0 with exception Not_found -> true | _ -> false)

let test_empty () =
  let p = placement_at 4 [ (0, 0) ] in
  let ig = I.build p [] in
  check_int "empty nodes" 0 (I.node_count ig);
  check_int "max degree" 0 (I.max_degree ig);
  Alcotest.(check (list int)) "no max nodes" []
    (List.map (fun t -> t.Task.id) (I.max_degree_nodes ig))

let test_clique () =
  (* four mutually overlapping gates -> K4 *)
  let p =
    placement_at 10
      [ (0, 0); (3, 3); (1, 1); (4, 4); (2, 2); (5, 5); (0, 3); (3, 0) ]
  in
  let ig = I.build p (tasks 4) in
  check_int "max degree" 3 (I.max_degree ig);
  List.iter (fun i -> check_int "deg" 3 (I.degree ig i)) [ 0; 1; 2; 3 ];
  I.remove ig 3;
  List.iter (fun i -> check_int "deg after" 2 (I.degree ig i)) [ 0; 1; 2 ]

let prop_degrees_symmetric =
  QCheck.Test.make ~name:"edge degrees consistent" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 10)
              (pair (pair (int_bound 7) (int_bound 7))
                 (pair (int_bound 7) (int_bound 7))))
    (fun coords ->
      let flat = List.concat_map (fun ((a, b), (c, d)) -> [ (a, b); (c, d) ]) coords in
      let distinct = List.sort_uniq compare flat in
      QCheck.assume (List.length distinct = List.length flat);
      let p = placement_at 8 flat in
      let k = List.length coords in
      let ig = I.build p (tasks k) in
      (* sum of degrees is even, and each neighbor listing is mutual *)
      let sum =
        List.fold_left (fun acc i -> acc + I.degree ig i) 0
          (List.init k (fun i -> i))
      in
      sum mod 2 = 0
      && List.for_all
           (fun i ->
             List.for_all
               (fun t ->
                 List.exists (fun u -> u.Task.id = i) (I.neighbors ig t.Task.id))
               (I.neighbors ig i))
           (List.init k (fun i -> i)))

(* Differential: the packed bit-word graph must expose byte-identical
   observable state to the Legacy hashtable-of-sets oracle — after build
   and after every removal, in every query. *)

let ids ts = List.map (fun t -> t.Task.id) ts

let check_same_state msg ig lg =
  let present = ids (I.Legacy.nodes lg) in
  Alcotest.(check int) (msg ^ ": node_count") (I.Legacy.node_count lg)
    (I.node_count ig);
  Alcotest.(check int) (msg ^ ": original") (I.Legacy.original_count lg)
    (I.original_count ig);
  Alcotest.(check (list int)) (msg ^ ": nodes") present (ids (I.nodes ig));
  Alcotest.(check int) (msg ^ ": max_degree") (I.Legacy.max_degree lg)
    (I.max_degree ig);
  Alcotest.(check (list int))
    (msg ^ ": max_degree_nodes")
    (ids (I.Legacy.max_degree_nodes lg))
    (ids (I.max_degree_nodes ig));
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "%s: degree %d" msg i)
        (I.Legacy.degree lg i) (I.degree ig i);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: neighbors %d" msg i)
        (ids (I.Legacy.neighbors lg i))
        (ids (I.neighbors ig i)))
    present

let test_differential_removals () =
  let p =
    placement_at 10
      [ (0, 0); (3, 3); (1, 1); (4, 4); (2, 2); (5, 5); (0, 3); (3, 0);
        (8, 8); (9, 9) ]
  in
  let ts = tasks 5 in
  let ig = I.build p ts and lg = I.Legacy.build p ts in
  check_same_state "after build" ig lg;
  (* peel in max-degree order, exactly like the stack finder *)
  let rec peel () =
    match I.Legacy.max_degree_nodes lg with
    | [] -> ()
    | t :: _ ->
      I.remove ig t.Task.id;
      I.Legacy.remove lg t.Task.id;
      check_same_state (Printf.sprintf "after remove %d" t.Task.id) ig lg;
      peel ()
  in
  peel ()

let prop_matches_legacy =
  QCheck.Test.make ~name:"packed graph = legacy graph under removals"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10)
           (pair (pair (int_bound 7) (int_bound 7))
              (pair (int_bound 7) (int_bound 7))))
        (list_of_size (Gen.int_range 0 10) (int_bound 9)))
    (fun (coords, removals) ->
      let flat =
        List.concat_map (fun ((a, b), (c, d)) -> [ (a, b); (c, d) ]) coords
      in
      let distinct = List.sort_uniq compare flat in
      QCheck.assume (List.length distinct = List.length flat);
      let p = placement_at 8 flat in
      let k = List.length coords in
      let ts = tasks k in
      let ig = I.build p ts and lg = I.Legacy.build p ts in
      let same () =
        ids (I.nodes ig) = ids (I.Legacy.nodes lg)
        && I.max_degree ig = I.Legacy.max_degree lg
        && ids (I.max_degree_nodes ig) = ids (I.Legacy.max_degree_nodes lg)
        && List.for_all
             (fun t ->
               I.degree ig t.Task.id = I.Legacy.degree lg t.Task.id
               && ids (I.neighbors ig t.Task.id)
                  = ids (I.Legacy.neighbors lg t.Task.id))
             (I.Legacy.nodes lg)
      in
      same ()
      && List.for_all
           (fun i ->
             if i < k && I.mem ig i then begin
               I.remove ig i;
               I.Legacy.remove lg i
             end;
             same ())
           removals)

(* The dense-index API over [of_boxes] (what the stack finder's peel
   uses, [max_degree_index] included) tracks the legacy graph under
   removals. Tasks are given in
   reverse id order so that a node's index is not its id. *)
let prop_index_api_matches_legacy =
  QCheck.Test.make ~name:"of_boxes + index API = legacy graph" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10)
           (pair (pair (int_bound 7) (int_bound 7))
              (pair (int_bound 7) (int_bound 7))))
        (list_of_size (Gen.int_range 0 10) (int_bound 9)))
    (fun (coords, removals) ->
      let flat =
        List.concat_map (fun ((a, b), (c, d)) -> [ (a, b); (c, d) ]) coords
      in
      let distinct = List.sort_uniq compare flat in
      QCheck.assume (List.length distinct = List.length flat);
      let p = placement_at 8 flat in
      let k = List.length coords in
      let arr = Array.of_list (List.rev (tasks k)) in
      let boxes = Array.map (Task.bbox p) arr in
      let areas = Array.map Qec_lattice.Bbox.area boxes in
      let ig = I.of_boxes arr boxes in
      let lg = I.Legacy.build p (tasks k) in
      (* The peel's pick: of the max-degree nodes (ascending by id), the
         first of the largest area. Node [j] is task [k - 1 - j]. *)
      let peel_pick () =
        match I.Legacy.max_degree_nodes lg with
        | [] -> -1
        | first :: _ as ts ->
          let area (t : Task.t) = areas.(k - 1 - t.id) in
          let best =
            List.fold_left (fun b t -> if area t > area b then t else b) first ts
          in
          k - 1 - best.id
      in
      let same () =
        I.max_degree ig = I.Legacy.max_degree lg
        && I.max_degree_index ig areas = peel_pick ()
        && Array.for_all Fun.id
             (Array.mapi
                (fun j (t : Task.t) ->
                  let present = I.Legacy.mem lg t.id in
                  I.present_at ig j = present
                  && I.degree_at ig j
                     = if present then I.Legacy.degree lg t.id else 0)
                arr)
      in
      same ()
      && List.for_all
           (fun i ->
             if i < k && I.Legacy.mem lg i then begin
               I.remove_at ig (k - 1 - i);
               I.Legacy.remove lg i
             end;
             same ())
           removals)

let () =
  Alcotest.run "interference"
    [
      ( "interference",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "max degree nodes" `Quick test_max_degree_nodes;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "clique" `Quick test_clique;
          QCheck_alcotest.to_alcotest prop_degrees_symmetric;
        ] );
      ( "differential",
        [
          Alcotest.test_case "peel sequence: packed = legacy" `Quick
            test_differential_removals;
          QCheck_alcotest.to_alcotest prop_matches_legacy;
          QCheck_alcotest.to_alcotest prop_index_api_matches_legacy;
        ] );
    ]
