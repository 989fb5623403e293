(* Tests for LLG decomposition (§3.3.1), including the Fig. 12 example. *)

module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Task = Autobraid.Task
module Llg = Autobraid.Llg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a placement that puts the listed qubits at the given cells of an
   l-wide grid; qubit ids are indices into the list. *)
let placement_at l coords =
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(Array.length cells) ~cells

let tasks n = List.init n (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 })

let test_singleton () =
  let p = placement_at 8 [ (0, 0); (1, 1) ] in
  let groups = Llg.decompose p (tasks 1) in
  check_int "one group" 1 (List.length groups);
  check_int "size 1" 1 (Llg.size (List.hd groups))

let test_disjoint_groups () =
  (* two CX gates far apart form two LLGs *)
  let p = placement_at 8 [ (0, 0); (1, 1); (6, 6); (7, 7) ] in
  let groups = Llg.decompose p (tasks 2) in
  check_int "two groups" 2 (List.length groups)

let test_overlapping_boxes_merge () =
  (* boxes [(0,0)-(2,1)] and [(2,0)-(3,1)] share the cell column x=2:
     one LLG (the paper's bounding-box intersection) *)
  let p = placement_at 8 [ (0, 0); (2, 1); (2, 0); (3, 1) ] in
  let groups = Llg.decompose p (tasks 2) in
  check_int "merged" 1 (List.length groups);
  check_int "size 2" 2 (Llg.size (List.hd groups))

let test_touching_boxes_stay_separate () =
  (* boxes [(0,0)-(1,1)] and [(2,0)-(3,1)] only share the channel between
     cell columns 1 and 2 — no cell intersection, so two LLGs *)
  let p = placement_at 8 [ (0, 0); (1, 1); (2, 0); (3, 1) ] in
  check_int "separate" 2 (List.length (Llg.decompose p (tasks 2)))

let test_gap_keeps_separate () =
  let p = placement_at 8 [ (0, 0); (1, 1); (3, 0); (4, 1) ] in
  check_int "separate" 2 (List.length (Llg.decompose p (tasks 2)))

let test_transitive_merge () =
  (* A overlaps B, B overlaps C, A and C disjoint: all one LLG *)
  let p =
    placement_at 12 [ (0, 0); (3, 3); (2, 2); (5, 5); (4, 4); (7, 7) ]
  in
  let groups = Llg.decompose p (tasks 3) in
  check_int "one chain group" 1 (List.length groups);
  check_int "size 3" 3 (Llg.size (List.hd groups))

let test_fixpoint_merge_via_joint_box () =
  (* Merging happens only through the grown joint box: A=(0,0)-(2,2) and
     B=(2,2)-(4,4) intersect at cell (2,2) and merge to (0,0)-(4,4); that
     joint box then swallows C=(4,0)-(4,1), which intersected neither A nor
     B alone. All three end up in one LLG. *)
  let p =
    placement_at 8 [ (0, 0); (2, 2); (1, 2); (1, 4); (2, 4); (3, 4) ]
  in
  (* boxes: A=(0,0)-(2,2), B=(1,2)-(1,4), C=(2,4)-(3,4). A and B intersect
     at (1,2); C intersects neither alone, but meets join(A,B)=(0,0)-(2,4)
     at cell (2,4). *)
  let groups = Llg.decompose p (tasks 3) in
  check_int "one group via fixpoint" 1 (List.length groups)

let test_partition_property () =
  let p = placement_at 10 [ (0, 0); (2, 2); (1, 1); (3, 3); (8, 8); (9, 9) ] in
  let ts = tasks 3 in
  let groups = Llg.decompose p ts in
  let members = List.concat_map (fun g -> g.Llg.members) groups in
  check_int "partition" (List.length ts) (List.length members);
  check_int "no duplicates" (List.length ts)
    (List.length
       (List.sort_uniq compare (List.map (fun t -> t.Task.id) members)))

let test_fig12_nested () =
  (* Fig. 12 LLG1: C's box encloses B's, B's encloses A's, no overlap of
     boundaries: a strictly nested LLG of size 3 *)
  let p =
    placement_at 12
      [ (4, 4); (5, 5) (* A: inner *); (3, 3); (6, 6) (* B: middle *);
        (2, 2); (7, 7) (* C: outer *) ]
  in
  let groups = Llg.decompose p (tasks 3) in
  check_int "one LLG" 1 (List.length groups);
  let g = List.hd groups in
  check_int "size 3" 3 (Llg.size g);
  check_bool "strictly nested" true (Llg.is_strictly_nested p g);
  check_bool "guaranteed (thm 2)" true (Llg.is_guaranteed p g)

let test_not_nested () =
  (* overlapping but not nested: boundaries cross *)
  let p = placement_at 12 [ (0, 0); (5, 5); (3, 0); (8, 5) ] in
  let groups = Llg.decompose p (tasks 2) in
  check_int "one group" 1 (List.length groups);
  check_bool "not strictly nested" false
    (Llg.is_strictly_nested p (List.hd groups));
  (* but still guaranteed: size 2 <= 3 (thm 1) *)
  check_bool "guaranteed (thm 1)" true (Llg.is_guaranteed p (List.hd groups))

let test_count_oversize () =
  (* four mutually overlapping gates in one clump, plus a far singleton *)
  let p =
    placement_at 16
      [ (0, 0); (3, 3); (1, 1); (4, 4); (2, 2); (5, 5); (0, 3); (3, 0);
        (14, 14); (15, 15) ]
  in
  let ts = tasks 5 in
  check_int "one oversize" 1 (Llg.count_oversize p ts);
  let groups = Llg.decompose p ts in
  check_int "two groups" 2 (List.length groups)

let test_empty () =
  let p = placement_at 4 [ (0, 0) ] in
  check_int "no tasks" 0 (List.length (Llg.decompose p []));
  check_int "no oversize" 0 (Llg.count_oversize p [])

(* Property: decompose yields a partition whose groups have pairwise
   non-touching joint bounding boxes. *)
let random_tasks_gen =
  QCheck.Gen.(
    let* k = int_range 1 12 in
    let* coords =
      list_repeat (2 * k) (pair (int_range 0 9) (int_range 0 9))
    in
    return (k, coords))

let prop_groups_non_intersecting =
  QCheck.Test.make ~name:"LLG joint boxes pairwise non-intersecting" ~count:300
    (QCheck.make random_tasks_gen) (fun (k, coords) ->
      (* distinct cells required by Placement: dedupe; skip if collision *)
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 10 coords in
      let groups = Llg.decompose p (tasks k) in
      let rec pairwise = function
        | [] -> true
        | g :: rest ->
          List.for_all
            (fun h ->
              not (Qec_lattice.Bbox.intersects g.Llg.bbox h.Llg.bbox))
            rest
          && pairwise rest
      in
      pairwise groups)

let prop_partition =
  QCheck.Test.make ~name:"LLG decomposition partitions the tasks" ~count:300
    (QCheck.make random_tasks_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 10 coords in
      let groups = Llg.decompose p (tasks k) in
      let ids =
        List.concat_map
          (fun g -> List.map (fun t -> t.Task.id) g.Llg.members)
          groups
      in
      List.sort compare ids = List.init k (fun i -> i))

(* Differential: the partition kernel must equal the finest partition
   with pairwise non-intersecting joint boxes, computed here the slow way
   (merge any intersecting pair of groups until none is left), with
   members, boxes and group order unchanged. Tasks sit on distinct cells
   drawn from a shuffled 12x12 grid, up to 30 gates, so merges chain
   through grown joint boxes. *)
let distinct_tasks_gen =
  QCheck.Gen.(
    let* k = int_range 0 30 in
    let* cells = shuffle_l (List.init 144 Fun.id) in
    return
      (List.filteri (fun i _ -> i < 2 * k) cells
      |> List.map (fun c -> (c mod 12, c / 12))))

let reference_groups p ts =
  let box ms =
    List.map (Task.bbox p) ms |> function
    | b :: rest -> List.fold_left Qec_lattice.Bbox.join b rest
    | [] -> assert false
  in
  let rec fix groups =
    let rec find_pair = function
      | [] -> None
      | g :: rest -> (
        match
          List.find_opt
            (fun h -> Qec_lattice.Bbox.intersects (box g) (box h))
            rest
        with
        | Some h -> Some (g, h)
        | None -> find_pair rest)
    in
    match find_pair groups with
    | None -> groups
    | Some (g, h) ->
      fix ((g @ h) :: List.filter (fun x -> x != g && x != h) groups)
  in
  fix (List.map (fun t -> [ t ]) ts)
  |> List.map (fun ms ->
         let ms = List.sort (fun (a : Task.t) b -> compare a.id b.id) ms in
         (List.map (fun (t : Task.t) -> t.id) ms, box ms))
  |> List.sort compare

let prop_matches_reference =
  QCheck.Test.make ~name:"LLG flat fixpoint = finest stable partition"
    ~count:300 (QCheck.make distinct_tasks_gen) (fun coords ->
      let k = List.length coords / 2 in
      let p = placement_at 12 coords in
      let ts = tasks k in
      let groups = Llg.decompose p ts in
      let got =
        List.map
          (fun g -> (List.map (fun (t : Task.t) -> t.id) g.Llg.members, g.Llg.bbox))
          groups
      in
      got = reference_groups p ts
      && Llg.count_oversize p ts
         = List.length (List.filter (fun g -> Llg.size g > 3) groups))

(* The kernel at the scale of QFT-400's sampled layers: up to 200 tasks
   drawn on a 20x20 grid. First come up to two nests of four concentric
   boxes, each on a free 8x8 square whose other cells then stay free
   (Theorem 2's case). Then two draws in three are short boxes anywhere,
   as an annealed placement makes them. The rest are drawn against an
   earlier task's box, the latest one half the time so that merges
   chain: its other diagonal (a coincident box), a box one column or row
   past its edge or one cell past its corner (touching, no shared cell),
   a box grown from its far corner cell (one shared cell: the next link
   of a chain), or the box one cell around it. A task whose cells are
   taken gets three more draws, and is dropped after that. *)
let crowded_tasks_gen : (int * int) list QCheck.Gen.t =
 fun st ->
  let l = 20 in
  let used = Array.make (l * l) false in
  let free (x, y) =
    x >= 0 && y >= 0 && x < l && y < l && not used.((y * l) + x)
  in
  let take (x, y) = used.((y * l) + x) <- true in
  let placed = ref [] and coords = ref [] in
  let try_pair a b =
    a <> b && free a && free b
    && begin
         take a;
         take b;
         placed := (a, b) :: !placed;
         coords := b :: a :: !coords;
         true
       end
  in
  let int = Random.State.int st in
  let draw () =
    let x = int l and y = int l in
    let short () =
      match int 4 with
      | 0 -> try_pair (x, y) (x + int 7 - 3, y + int 7 - 3)
      | 1 -> try_pair (x, y) (x + 1, y + 1)
      | 2 -> try_pair (x, y) (x, y + 1)
      | _ -> try_pair (x, y) (x + 1, y)
    in
    match (!placed, int 3) with
    | [], _ | _, (0 | 1) -> short ()
    | latest :: _, _ -> (
      let (ax, ay), (bx, by) =
        if int 2 = 0 then latest
        else List.nth !placed (int (List.length !placed))
      in
      let x0 = min ax bx and x1 = max ax bx in
      let y0 = min ay by and y1 = max ay by in
      let w = 1 + int 2 and h = 1 + int 2 in
      match int 6 with
      | 0 -> try_pair (ax, by) (bx, ay)
      | 1 -> try_pair (x1 + 1, y0) (x1 + w, y1)
      | 2 -> try_pair (x0, y1 + 1) (x1, y1 + h)
      | 3 -> try_pair (x1 + 1, y1 + 1) (x1 + w, y1 + h)
      | 4 -> try_pair (x1, y1 + h) (x1 + w, y1)
      | _ -> try_pair (x0 - 1, y0 - 1) (x1 + 1, y1 + 1))
  in
  for _ = 1 to int 3 do
    let x = 3 + int (l - 7) and y = 3 + int (l - 7) in
    let square = List.init 64 (fun i -> (x - 3 + (i mod 8), y - 3 + (i / 8))) in
    if List.for_all free square then begin
      List.iter
        (fun k -> ignore (try_pair (x - k, y - k) (x + 1 + k, y + 1 + k)))
        [ 0; 1; 2; 3 ];
      List.iter take square
    end
  done;
  for _ = 1 to int 201 - List.length !placed do
    ignore (draw () || draw () || draw () || draw ())
  done;
  List.rev !coords

(* Theorem 1 or 2, from the member boxes alone. *)
let guaranteed boxes =
  List.length boxes <= 3
  ||
  let rec chain = function
    | a :: (b :: _ as rest) ->
      Qec_lattice.Bbox.strictly_nests ~outer:a ~inner:b && chain rest
    | _ -> true
  in
  chain
    (List.sort
       (fun a b -> compare (Qec_lattice.Bbox.area b) (Qec_lattice.Bbox.area a))
       boxes)

(* On crowded layers, every entry point of the one kernel against the
   reference: decompose's groups and boxes, both counts, each
   confinement entry (the reference group's box when Theorem 1 or 2
   holds, else None), and the members iter_oversize_members visits, in
   decompose's order. *)
let prop_crowded_matches_reference =
  QCheck.Test.make ~name:"LLG kernel = reference on crowded 20x20 layers"
    ~count:150
    (QCheck.make
       ~print:(fun cs -> Printf.sprintf "%d tasks" (List.length cs / 2))
       crowded_tasks_gen)
    (fun coords ->
      let k = List.length coords / 2 in
      let p = placement_at 20 coords in
      let ts = tasks k in
      let reference = reference_groups p ts in
      let oversize =
        List.length
          (List.filter (fun (ids, _) -> List.length ids > 3) reference)
      in
      let got =
        List.map
          (fun g ->
            (List.map (fun (t : Task.t) -> t.id) g.Llg.members, g.Llg.bbox))
          (Llg.decompose p ts)
      in
      let boxes = Array.of_list (List.map (Task.bbox p) ts) in
      let expected_confinement = Array.make k None in
      List.iter
        (fun (ids, box) ->
          if guaranteed (List.map (fun i -> boxes.(i)) ids) then
            List.iter (fun i -> expected_confinement.(i) <- Some box) ids)
        reference;
      let members = ref [] in
      Llg.iter_oversize_members p (Array.of_list ts) (fun t ->
          members := t.Task.id :: !members);
      got = reference
      && Llg.count_oversize p ts = oversize
      && Llg.count_oversize_array p (Array.of_list ts) = oversize
      && Llg.confinement boxes = expected_confinement
      && List.rev !members
         = List.concat_map
             (fun (ids, _) -> if List.length ids > 3 then ids else [])
             reference)

let () =
  Alcotest.run "llg"
    [
      ( "decompose",
        [
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "disjoint" `Quick test_disjoint_groups;
          Alcotest.test_case "overlap merge" `Quick test_overlapping_boxes_merge;
          Alcotest.test_case "touching separate" `Quick test_touching_boxes_stay_separate;
          Alcotest.test_case "gap separates" `Quick test_gap_keeps_separate;
          Alcotest.test_case "transitive merge" `Quick test_transitive_merge;
          Alcotest.test_case "fixpoint" `Quick test_fixpoint_merge_via_joint_box;
          Alcotest.test_case "partition" `Quick test_partition_property;
          Alcotest.test_case "empty" `Quick test_empty;
          QCheck_alcotest.to_alcotest prop_groups_non_intersecting;
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_crowded_matches_reference;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "fig 12 nested" `Quick test_fig12_nested;
          Alcotest.test_case "not nested" `Quick test_not_nested;
          Alcotest.test_case "count oversize" `Quick test_count_oversize;
        ] );
    ]
