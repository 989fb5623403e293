(* Tests for braiding-path compaction. *)

module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Path = Qec_lattice.Path
module Task = Autobraid.Task
module SF = Autobraid.Stack_finder
module Comp = Autobraid.Compaction
module S = Autobraid.Scheduler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let placement_at l coords =
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(Array.length cells) ~cells

let tasks n = List.init n (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 })

let setup placement ts =
  let grid = Placement.grid placement in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let outcome = SF.find router occ placement ts in
  (router, occ, outcome)

let all_disjoint routed =
  let rec go = function
    | [] -> true
    | (_, p) :: rest -> List.for_all (fun (_, q) -> Path.disjoint p q) rest && go rest
  in
  go routed

let endpoints_ok placement routed =
  List.for_all
    (fun ((t : Task.t), p) ->
      let ca, cb = Task.cells placement t in
      Path.connects_cells (Placement.grid placement) p ca cb)
    routed

let test_never_longer () =
  let p = placement_at 8 [ (0, 0); (3, 3); (1, 1); (4, 4); (2, 0); (6, 2) ] in
  let router, occ, outcome = setup p (tasks 3) in
  let before = Comp.total_vertices outcome.SF.routed in
  let routed = Comp.compact router occ p outcome.SF.routed in
  check_bool "not longer" true (Comp.total_vertices routed <= before);
  check_bool "disjoint" true (all_disjoint routed);
  check_bool "endpoints" true (endpoints_ok p routed)

let test_shortens_forced_detour () =
  (* route the long gate first so it detours around nothing, then force a
     detour by routing short gates, then compaction should shorten once the
     short paths settle. Construct: a detoured path exists after the stack
     finder's ordering; verify compaction finds the direct corridor. *)
  let p = placement_at 9 [ (0, 4); (8, 4); (3, 3); (4, 3); (3, 5); (4, 5) ] in
  let router, occ, outcome = setup p (tasks 3) in
  let before = Comp.total_vertices outcome.SF.routed in
  let routed = Comp.compact router occ p outcome.SF.routed in
  let after = Comp.total_vertices routed in
  check_bool "no growth" true (after <= before);
  check_int "same gates" (List.length outcome.SF.routed) (List.length routed)

let test_occupancy_consistent () =
  let p = placement_at 8 [ (0, 0); (5, 5); (1, 0); (0, 1); (7, 7); (6, 6) ] in
  let router, occ, outcome = setup p (tasks 3) in
  let routed = Comp.compact router occ p outcome.SF.routed in
  check_int "occupancy = sum of lengths" (Comp.total_vertices routed)
    (Occupancy.occupied_count occ)

let test_single_vertex_paths_untouched () =
  (* adjacent cells already share a corner: nothing to compact *)
  let p = placement_at 4 [ (0, 0); (1, 0) ] in
  let router, occ, outcome = setup p (tasks 1) in
  let routed = Comp.compact router occ p outcome.SF.routed in
  check_int "still one vertex" 1 (Comp.total_vertices routed)

let test_scheduler_compaction_option () =
  let timing = Qec_surface.Timing.make ~d:33 () in
  let c = Qec_benchmarks.Qft.circuit 25 in
  let off = S.run ~options:{ S.default_options with variant = S.Sp } timing c in
  let on =
    S.run
      ~options:{ S.default_options with variant = S.Sp; compaction = true }
      timing c
  in
  (* compaction can only help or match the round count *)
  check_bool "no slower" true (on.S.total_cycles <= off.S.total_cycles);
  check_bool "uses fewer vertices on average" true
    (on.S.avg_utilization <= off.S.avg_utilization +. 1e-9)

let test_traced_compaction_validates () =
  let timing = Qec_surface.Timing.make ~d:33 () in
  let options = { S.default_options with compaction = true } in
  let _, trace = S.run_traced ~options timing (Qec_benchmarks.Qft.circuit 16) in
  Certified.expect_clean trace

let prop_compaction_safe =
  QCheck.Test.make ~name:"compaction keeps rounds valid" ~count:200
    QCheck.(pair (int_range 1 8)
              (list_of_size (Gen.return 16) (pair (int_bound 7) (int_bound 7))))
    (fun (k, coords) ->
      let coords = List.filteri (fun i _ -> i < 2 * k) coords in
      QCheck.assume (List.length coords = 2 * k);
      let distinct = List.sort_uniq compare coords in
      QCheck.assume (List.length distinct = 2 * k);
      let p = placement_at 8 coords in
      let router, occ, outcome = setup p (tasks k) in
      let before = Comp.total_vertices outcome.SF.routed in
      let routed = Comp.compact router occ p outcome.SF.routed in
      all_disjoint routed && endpoints_ok p routed
      && Comp.total_vertices routed <= before
      && List.length routed = List.length outcome.SF.routed)

let () =
  Alcotest.run "compaction"
    [
      ( "compaction",
        [
          Alcotest.test_case "never longer" `Quick test_never_longer;
          Alcotest.test_case "forced detour" `Quick test_shortens_forced_detour;
          Alcotest.test_case "occupancy" `Quick test_occupancy_consistent;
          Alcotest.test_case "single vertex" `Quick test_single_vertex_paths_untouched;
          Alcotest.test_case "scheduler option" `Quick test_scheduler_compaction_option;
          Alcotest.test_case "traced validates" `Quick test_traced_compaction_validates;
          QCheck_alcotest.to_alcotest prop_compaction_safe;
        ] );
    ]
