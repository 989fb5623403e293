(* Tests for the stack-based path finder, including the paper's Fig. 8
   scenario and the Theorem 1/2 guarantees. *)

module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Path = Qec_lattice.Path
module Task = Autobraid.Task
module SF = Autobraid.Stack_finder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let placement_at l coords =
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(Array.length cells) ~cells

let tasks n = List.init n (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 })

let run_finder placement ts =
  let grid = Placement.grid placement in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  (SF.find router occ placement ts, occ)

let all_disjoint paths =
  let rec go = function
    | [] -> true
    | p :: rest -> List.for_all (Path.disjoint p) rest && go rest
  in
  go (List.map snd paths)

let paths_connect placement routed =
  List.for_all
    (fun ((t : Task.t), p) ->
      let ca, cb = Task.cells placement t in
      Path.connects_cells (Placement.grid placement) p ca cb)
    routed

let test_single_gate () =
  let p = placement_at 6 [ (0, 0); (5, 5) ] in
  let outcome, _ = run_finder p (tasks 1) in
  check_int "routed" 1 (List.length outcome.SF.routed);
  Alcotest.(check (float 1e-9)) "ratio" 1.0 outcome.SF.ratio

let test_empty_round () =
  let p = placement_at 4 [ (0, 0) ] in
  let outcome, _ = run_finder p [] in
  check_int "nothing" 0 (List.length outcome.SF.routed);
  Alcotest.(check (float 1e-9)) "ratio 1 by convention" 1.0 outcome.SF.ratio

(* Fig. 8: five CX gates A..E on one row of a wide lattice. In the bad
   greedy order (A, B, E first) the lattice splits and C, D starve; the
   stack-based finder must schedule all five simultaneously. Layout (on a
   9x3 grid): A spans columns 0-8 on row 1 (the long gate), B..E are short
   gates nested under it. *)
let test_fig8_all_five () =
  let p =
    placement_at 9
      [
        (0, 1); (8, 1) (* A: widest, degree-4 *);
        (1, 0); (2, 2) (* B *);
        (3, 0); (4, 2) (* C *);
        (5, 0); (6, 2) (* D *);
        (7, 0); (8, 2) (* E *);
      ]
  in
  let outcome, _ = run_finder p (tasks 5) in
  check_int "all five scheduled" 5 (List.length outcome.SF.routed);
  check_bool "disjoint" true (all_disjoint outcome.SF.routed);
  check_bool "endpoints" true (paths_connect p outcome.SF.routed)

(* The stack must defer the most-interfering gate: A (above) interferes
   with all of B..E, so it is pushed and routed last. *)
let test_stack_defers_max_degree () =
  let p =
    placement_at 9
      [
        (0, 1); (8, 1);
        (1, 0); (2, 2);
        (3, 0); (4, 2);
        (5, 0); (6, 2);
        (7, 0); (8, 2);
      ]
  in
  let outcome, _ = run_finder p (tasks 5) in
  match List.rev outcome.SF.routed with
  | (last, _) :: _ -> check_int "A routed last" 0 last.Task.id
  | [] -> Alcotest.fail "nothing routed"

let test_theorem2_nested () =
  (* strictly nested chain of 4 gates: all must route *)
  let p =
    placement_at 10
      [ (4, 4); (5, 5); (3, 3); (6, 6); (2, 2); (7, 7); (1, 1); (8, 8) ]
  in
  let outcome, _ = run_finder p (tasks 4) in
  check_int "all nested scheduled" 4 (List.length outcome.SF.routed)

let test_reservations_match_occupancy () =
  let p = placement_at 8 [ (0, 0); (3, 3); (1, 1); (4, 4); (6, 6); (7, 7) ] in
  let outcome, occ = run_finder p (tasks 3) in
  let total =
    List.fold_left (fun acc (_, pth) -> acc + Path.length pth) 0 outcome.SF.routed
  in
  check_int "occupancy = sum of path lengths" total (Occupancy.occupied_count occ)

let test_ratio () =
  (* a tiny 2x2 grid with 2 crossing gates: at most one can route; ratio 0.5 *)
  let p = placement_at 2 [ (0, 0); (1, 1); (1, 0); (0, 1) ] in
  let outcome, _ = run_finder p (tasks 2) in
  check_bool "at least one" true (List.length outcome.SF.routed >= 1);
  check_bool "ratio consistent" true
    (outcome.SF.ratio
    = float_of_int (List.length outcome.SF.routed) /. 2.);
  check_int "failed + routed = total" 2
    (List.length outcome.SF.routed + List.length outcome.SF.failed)

let test_route_in_order_respects_order () =
  let p = placement_at 8 [ (0, 0); (1, 1); (6, 6); (7, 7) ] in
  let grid = Placement.grid p in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let ts = tasks 2 in
  let routed, failed = SF.route_in_order router occ p (List.rev ts) in
  check_int "both" 2 (List.length routed);
  check_int "no failures" 0 (List.length failed);
  (* first routed is the first in the given order (task 1) *)
  check_int "order respected" 1 (fst (List.hd routed)).Task.id

(* Theorem 1 (qcheck): any LLG of <= 3 gates schedules fully on an
   otherwise empty lattice, for arbitrary placements. *)
let theorem1_gen =
  QCheck.Gen.(
    let* k = int_range 1 3 in
    let* coords = list_repeat (2 * k) (pair (int_range 0 7) (int_range 0 7)) in
    return (k, coords))

let prop_theorem1 =
  QCheck.Test.make ~name:"theorem 1: <=3 concurrent gates always schedule"
    ~count:500 (QCheck.make theorem1_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let outcome, _ = run_finder p (tasks k) in
      List.length outcome.SF.routed = k)

(* Theorem 2 (qcheck): strictly nested chains always schedule fully. *)
let nested_gen =
  QCheck.Gen.(
    let* k = int_range 1 4 in
    (* gate i spans (i,i)-(2k+1-i, 2k+1-i): strictly nested rings *)
    return
      (List.init k (fun i -> ((i, i), ((2 * k) + 1 - i, (2 * k) + 1 - i)))))

let prop_theorem2 =
  QCheck.Test.make ~name:"theorem 2: strictly nested chains schedule fully"
    ~count:100 (QCheck.make nested_gen) (fun spans ->
      let coords = List.concat_map (fun (a, b) -> [ a; b ]) spans in
      let p = placement_at 10 coords in
      let k = List.length spans in
      let outcome, _ = run_finder p (tasks k) in
      List.length outcome.SF.routed = k)

(* Safety: whatever is routed is pairwise disjoint and connects the right
   cells, for arbitrary task sets. *)
let any_gen =
  QCheck.Gen.(
    let* k = int_range 1 14 in
    let* coords = list_repeat (2 * k) (pair (int_range 0 7) (int_range 0 7)) in
    return (k, coords))

let prop_routed_paths_safe =
  QCheck.Test.make ~name:"routed paths are disjoint and well-connected"
    ~count:300 (QCheck.make any_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let outcome, _ = run_finder p (tasks k) in
      all_disjoint outcome.SF.routed
      && paths_connect p outcome.SF.routed
      && List.length outcome.SF.routed >= 1)

(* The retry pass never schedules fewer gates than the first attempt. *)
let prop_retry_no_worse =
  QCheck.Test.make ~name:"failed-first retry is never worse" ~count:200
    (QCheck.make any_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let grid = Placement.grid p in
      let router = Router.create grid in
      let occ1 = Occupancy.create grid in
      let with_retry = SF.find ~retry:true router occ1 p (tasks k) in
      let occ2 = Occupancy.create grid in
      let without = SF.find ~retry:false router occ2 p (tasks k) in
      List.length with_retry.SF.routed >= List.length without.SF.routed)

(* The failed-first retry stops once its failures reach the first
   pass's count. Against an in-test copy of the retry run to the end,
   [find] must return the same outcome and leave the same occupancy, and
   search exactly up to the cutoff: one route per task in the first pass
   (no confinement, so no fallbacks), then the retry's tasks up to and
   including the one whose failure reaches the count. A random set of
   foreign reservations makes retries common and must survive the
   rollback. *)
let find_unbounded router occ placement tasks =
  let order = SF.planned_order placement tasks in
  let routed, failed = SF.route_in_order router occ placement order in
  if failed = [] then (routed, failed, List.length order)
  else begin
    List.iter (fun (_, p) -> Occupancy.release_path occ p) routed;
    let retry_order = failed @ List.map fst routed in
    let routed', failed' = SF.route_in_order router occ placement retry_order in
    (* the searches a retry that stops at the cutoff makes *)
    let cutoff =
      let rec count i n_failed = function
        | [] -> i
        | (t : Task.t) :: rest ->
          let n_failed =
            if List.exists (fun (u : Task.t) -> u.id = t.id) failed' then
              n_failed + 1
            else n_failed
          in
          if n_failed >= List.length failed then i + 1
          else count (i + 1) n_failed rest
      in
      count 0 0 retry_order
    in
    let searches = List.length order + cutoff in
    if List.length routed' > List.length routed then (routed', failed', searches)
    else begin
      List.iter (fun (_, p) -> Occupancy.release_path occ p) routed';
      List.iter (fun (_, p) -> Occupancy.reserve_path occ p) routed;
      (routed, failed, searches)
    end
  end

let prop_retry_cutoff_exact =
  QCheck.Test.make ~name:"retry with cutoff = retry run to the end" ~count:300
    (QCheck.make
       QCheck.Gen.(pair any_gen (list_size (int_range 0 25) (int_bound 80))))
    (fun ((k, coords), blocked) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let grid = Placement.grid p in
      let router = Router.create grid in
      let occupancy () =
        let occ = Occupancy.create grid in
        List.iter
          (fun v ->
            if Occupancy.is_free occ v then
              Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
          blocked;
        occ
      in
      let occ1 = occupancy () and occ2 = occupancy () in
      let ts = tasks k in
      let c = Qec_telemetry.Collector.create () in
      let got =
        Qec_telemetry.Telemetry.with_sink (Qec_telemetry.Collector.sink c)
          (fun () -> SF.find router occ1 p ts)
      in
      let routed, failed, searches = find_unbounded router occ2 p ts in
      let ids = List.map (fun (t : Task.t) -> t.id) in
      let paths = List.map (fun ((t : Task.t), q) -> (t.id, Path.vertices q)) in
      paths got.SF.routed = paths routed
      && ids got.SF.failed = ids failed
      && Qec_util.Bitset.to_list (Occupancy.snapshot occ1)
         = Qec_util.Bitset.to_list (Occupancy.snapshot occ2)
      && Qec_telemetry.Collector.counter c "router.routes" = searches)

(* Differential: the precomputed-area planned_order must emit exactly the
   ordering of the pre-rewrite reference (which re-derives every box
   inside the comparators), with and without a lookahead priority. *)

let test_planned_order_matches_reference () =
  let p =
    placement_at 9
      [
        (0, 1); (8, 1);
        (1, 0); (2, 2);
        (3, 0); (4, 2);
        (5, 0); (6, 2);
        (7, 0); (8, 2);
      ]
  in
  let ts = tasks 5 in
  let ids o = List.map (fun t -> t.Task.id) o in
  Alcotest.(check (list int))
    "fig8 order" (ids (SF.planned_order_reference p ts))
    (ids (SF.planned_order p ts));
  let priority_of (t : Task.t) = t.Task.id mod 3 in
  Alcotest.(check (list int))
    "fig8 order with lookahead"
    (ids (SF.planned_order_reference ~priority_of p ts))
    (ids (SF.planned_order ~priority_of p ts))

let prop_planned_order_matches_reference =
  QCheck.Test.make ~name:"planned_order = reference (random rounds)"
    ~count:300 (QCheck.make any_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let ts = tasks k in
      let ids o = List.map (fun t -> t.Task.id) o in
      let priority_of (t : Task.t) = t.Task.id mod 3 in
      ids (SF.planned_order p ts) = ids (SF.planned_order_reference p ts)
      && ids (SF.planned_order ~priority_of p ts)
         = ids (SF.planned_order_reference ~priority_of p ts))

(* Rounds of 1-3 tasks take the plan's short path: no interference graph,
   just the (priority, area, id) sort. The input order is reversed in
   half the cases so the id tie-break is exercised. *)
let small_round_gen =
  QCheck.Gen.(
    let* k = int_range 1 3 in
    let* coords = list_repeat (2 * k) (pair (int_range 0 7) (int_range 0 7)) in
    let* reversed = bool in
    return (k, coords, reversed))

let round_tasks k reversed = if reversed then List.rev (tasks k) else tasks k

(* [Llg.confinement] of the round's boxes, keyed by task id as
   [Llg.decompose] + [Llg.is_guaranteed] would give it. *)
let confinement_agrees p ts =
  let boxes = Array.of_list (List.map (Task.bbox p) ts) in
  let got = Array.to_list (Autobraid.Llg.confinement boxes) in
  let expect (t : Task.t) =
    List.find_map
      (fun (g : Autobraid.Llg.group) ->
        if List.exists (fun (m : Task.t) -> m.id = t.id) g.members then
          Some
            (if Autobraid.Llg.is_guaranteed p g then Some g.Autobraid.Llg.bbox
             else None)
        else None)
      (Autobraid.Llg.decompose p ts)
    |> Option.get
  in
  got = List.map expect ts

let prop_small_rounds_match_reference =
  QCheck.Test.make ~name:"1-3 task rounds: order and confinement"
    ~count:500 (QCheck.make small_round_gen) (fun (k, coords, reversed) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let ts = round_tasks k reversed in
      let ids o = List.map (fun t -> t.Task.id) o in
      let priority_of (t : Task.t) = t.Task.id mod 2 in
      ids (SF.planned_order p ts) = ids (SF.planned_order_reference p ts)
      && ids (SF.planned_order ~priority_of p ts)
         = ids (SF.planned_order_reference ~priority_of p ts)
      && confinement_agrees p ts
      && Array.for_all Option.is_some
           (Autobraid.Llg.confinement
              (Array.of_list (List.map (Task.bbox p) ts))))

let prop_confinement_matches_decompose =
  QCheck.Test.make ~name:"confinement = decompose (random rounds)"
    ~count:300 (QCheck.make any_gen) (fun (k, coords) ->
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      confinement_agrees (placement_at 8 coords) (tasks k))

(* Four pairwise-intersecting boxes (a K4, every degree 3): the smallest
   round that peels. Tasks 2 and 3 span the whole lattice; the tie goes
   to the lower id, so 2 is pushed and routed last. *)
let test_four_tasks_peel () =
  let p =
    placement_at 9
      [ (0, 4); (8, 4); (4, 0); (4, 8); (0, 0); (8, 8); (0, 8); (8, 0) ]
  in
  let ts = tasks 4 in
  let ids o = List.map (fun t -> t.Task.id) o in
  Alcotest.(check (list int)) "reference" [ 0; 1; 3; 2 ]
    (ids (SF.planned_order_reference p ts));
  Alcotest.(check (list int)) "planned" [ 0; 1; 3; 2 ]
    (ids (SF.planned_order p ts))

let () =
  Alcotest.run "stack_finder"
    [
      ( "examples",
        [
          Alcotest.test_case "single gate" `Quick test_single_gate;
          Alcotest.test_case "empty round" `Quick test_empty_round;
          Alcotest.test_case "fig 8: all five" `Quick test_fig8_all_five;
          Alcotest.test_case "stack defers max degree" `Quick test_stack_defers_max_degree;
          Alcotest.test_case "theorem 2 nested" `Quick test_theorem2_nested;
          Alcotest.test_case "occupancy accounting" `Quick test_reservations_match_occupancy;
          Alcotest.test_case "ratio" `Quick test_ratio;
          Alcotest.test_case "route_in_order" `Quick test_route_in_order_respects_order;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_theorem1;
          QCheck_alcotest.to_alcotest prop_theorem2;
          QCheck_alcotest.to_alcotest prop_routed_paths_safe;
          QCheck_alcotest.to_alcotest prop_retry_no_worse;
          QCheck_alcotest.to_alcotest prop_retry_cutoff_exact;
        ] );
      ( "differential",
        [
          Alcotest.test_case "planned_order = reference" `Quick
            test_planned_order_matches_reference;
          QCheck_alcotest.to_alcotest prop_planned_order_matches_reference;
          QCheck_alcotest.to_alcotest prop_small_rounds_match_reference;
          QCheck_alcotest.to_alcotest prop_confinement_matches_decompose;
          Alcotest.test_case "4 tasks peel" `Quick test_four_tasks_peel;
        ] );
    ]
