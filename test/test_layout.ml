(* Tests for initial placement and the dynamic layout optimizer, including
   the paper's Fig. 9 / Fig. 15 crossing-pairs bottleneck. *)

module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Task = Autobraid.Task
module SF = Autobraid.Stack_finder
module LO = Autobraid.Layout_opt
module IL = Autobraid.Initial_layout
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module Col = Qec_telemetry.Collector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let placement_at l coords =
  let grid = Grid.create l in
  let cells =
    Array.of_list (List.map (fun (x, y) -> Grid.cell_id grid ~x ~y) coords)
  in
  Placement.create grid ~num_qubits:(Array.length cells) ~cells

let tasks n = List.init n (fun i -> { Task.id = i; q1 = 2 * i; q2 = (2 * i) + 1 })

(* Fig. 9(a): four CX pairs on the boundary of the lattice, every straight
   line separating every other pair. On an l x l grid: pairs connect
   opposite boundary midpoints through the center, rotated. *)
let fig9_coords l =
  let m = l / 2 in
  [
    (0, m - 1); (l - 1, m) (* horizontal-ish *);
    (m, 0); (m - 1, l - 1) (* vertical-ish *);
    (0, m + 1); (l - 1, m + 1 - l + l - 2 - m + m) (* placeholder below *);
  ]

let test_fig9_unroutable () =
  (* concrete 6x6 instance of the Fig. 9 pattern: four pairs crossing at
     the center, all eight qubits on the boundary *)
  ignore fig9_coords;
  let p =
    placement_at 6
      [
        (0, 2); (5, 3) (* A0 *);
        (2, 5); (3, 0) (* A1 *);
        (0, 3); (5, 2) (* A2 *);
        (2, 0); (3, 5) (* A3 *);
      ]
  in
  let grid = Placement.grid p in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let outcome = SF.find router occ p (tasks 4) in
  check_bool "at most 3 of 4 route" true
    (List.length outcome.SF.routed <= 3);
  check_bool "at least 1 routes" true (List.length outcome.SF.routed >= 1)

let test_fig9_swaps_rescue () =
  let p =
    placement_at 6
      [
        (0, 2); (5, 3);
        (2, 5); (3, 0);
        (0, 3); (5, 2);
        (2, 0); (3, 5);
      ]
  in
  let grid = Placement.grid p in
  let router = Router.create grid in
  let occ = Occupancy.create grid in
  let outcome = SF.find router occ p (tasks 4) in
  check_bool "something failed" true (outcome.SF.failed <> []);
  (* plan over the whole concurrent front, as the scheduler does *)
  let swaps = LO.plan LO.Greedy router p ~pending:(tasks 4) ~phase:0 in
  check_bool "planned at least one swap" true (swaps <> []);
  LO.apply p swaps;
  let occ2 = Occupancy.create grid in
  let outcome2 = SF.find router occ2 p (tasks 4) in
  check_bool "improved after swap layer" true
    (List.length outcome2.SF.routed > List.length outcome.SF.routed)

let test_plan_disjoint_pairs () =
  let p =
    placement_at 6
      [
        (0, 2); (5, 3);
        (2, 5); (3, 0);
        (0, 3); (5, 2);
        (2, 0); (3, 5);
      ]
  in
  let router = Router.create (Placement.grid p) in
  let swaps = LO.plan LO.Greedy router p ~pending:(tasks 4) ~phase:0 in
  let qubits = List.concat_map (fun (a, b) -> [ a; b ]) swaps in
  check_int "pairwise disjoint qubits" (List.length qubits)
    (List.length (List.sort_uniq compare qubits))

let test_apply () =
  let p = placement_at 4 [ (0, 0); (1, 0); (2, 0); (3, 0) ] in
  let c0 = Placement.cell_of_qubit p 0 and c2 = Placement.cell_of_qubit p 2 in
  LO.apply p [ (0, 2) ];
  check_int "q0 moved" c2 (Placement.cell_of_qubit p 0);
  check_int "q2 moved" c0 (Placement.cell_of_qubit p 2)

let test_total_distance () =
  let p = placement_at 4 [ (0, 0); (3, 0); (0, 1); (0, 2) ] in
  check_int "sum" 4 (LO.total_distance p (tasks 2))

let test_odd_even_reduces_distance () =
  (* one pending gate between the snake's endpoints, idle qubits between:
     odd-even transposition must walk the operands closer *)
  let p = placement_at 4 [ (0, 0); (3, 0); (1, 0); (2, 0) ] in
  let router = Router.create (Placement.grid p) in
  let pending = [ { Task.id = 0; q1 = 0; q2 = 1 } ] in
  let before = LO.total_distance p pending in
  let swaps = LO.plan LO.Odd_even router p ~pending ~phase:0 in
  let trial = Placement.copy p in
  LO.apply trial swaps;
  let after = LO.total_distance trial pending in
  check_bool "distance not increased" true (after <= before);
  check_bool "found improving swaps" true (swaps <> [] && after < before)

let test_odd_even_phase_alternates () =
  let p = placement_at 4 [ (0, 0); (3, 0); (1, 0); (2, 0) ] in
  let router = Router.create (Placement.grid p) in
  let s0 = LO.plan LO.Odd_even router p ~pending:(tasks 2) ~phase:0 in
  let s1 = LO.plan LO.Odd_even router p ~pending:(tasks 2) ~phase:1 in
  (* both parities may find swaps, but they consider different pairs *)
  check_bool "parities differ or one empty" true (s0 <> s1 || s0 = [])

let test_plan_empty_pending () =
  let p = placement_at 4 [ (0, 0); (1, 1) ] in
  let router = Router.create (Placement.grid p) in
  Alcotest.(check (list (pair int int)))
    "no pending, no swaps" []
    (LO.plan LO.Greedy router p ~pending:[] ~phase:0)

(* ------------------------------------------------------------------ *)
(* Initial layout                                                       *)

let test_initial_identity () =
  let c = Qec_benchmarks.Qft.circuit 9 in
  let g = Grid.create 3 in
  let p = IL.place ~method_:IL.Identity c g in
  check_int "q0 at cell 0" 0 (Placement.cell_of_qubit p 0);
  check_int "q8 at cell 8" 8 (Placement.cell_of_qubit p 8)

let test_initial_partitioned_compact () =
  (* two independent cliques must land in compact, separate regions *)
  let gates =
    List.concat_map
      (fun base ->
        [ G.Cx (base, base + 1); G.Cx (base, base + 2); G.Cx (base + 1, base + 3);
          G.Cx (base + 2, base + 3) ])
      [ 0; 4 ]
  in
  let c = C.create ~num_qubits:8 gates in
  let g = Grid.create 3 in
  let p = IL.place ~method_:IL.Partitioned c g in
  let spread qs =
    List.fold_left
      (fun acc a ->
        List.fold_left (fun acc b -> max acc (Placement.distance p a b)) acc qs)
      0 qs
  in
  check_bool "clique 1 compact" true (spread [ 0; 1; 2; 3 ] <= 3);
  check_bool "clique 2 compact" true (spread [ 4; 5; 6; 7 ] <= 3)

let test_initial_chain_snake () =
  (* Ising coupling (degree 2) gets the snake embedding: all coupled pairs
     adjacent *)
  let c = Qec_benchmarks.Ising.circuit ~steps:1 16 in
  let g = Grid.create 4 in
  let p = IL.place ~method_:IL.Partitioned c g in
  let k = Qec_circuit.Coupling.of_circuit c in
  List.iter
    (fun (a, b, _) ->
      check_int (Printf.sprintf "pair %d-%d adjacent" a b) 1
        (Placement.distance p a b))
    (Qec_circuit.Coupling.edges k)

let test_annealed_no_worse_census () =
  let c = Qec_benchmarks.Qft.circuit 16 in
  let g = Grid.create 4 in
  let before =
    IL.oversize_census c (IL.place ~seed:5 ~method_:IL.Partitioned c g)
  in
  let after =
    IL.oversize_census c (IL.place ~seed:5 ~method_:IL.Annealed c g)
  in
  check_bool "anneal does not increase oversize census" true (after <= before)

let test_census_zero_for_serial () =
  (* BV has no concurrent CX pairs at all: census must be 0 *)
  let c = Qec_benchmarks.Bv.circuit 16 in
  let g = Grid.create 4 in
  let p = IL.place ~method_:IL.Identity c g in
  check_int "no oversize LLGs" 0 (IL.oversize_census c p)

let test_place_deterministic () =
  let c = Qec_benchmarks.Qaoa.circuit 16 in
  let g = Grid.create 4 in
  let p1 = IL.place ~seed:3 ~method_:IL.Annealed c g in
  let p2 = IL.place ~seed:3 ~method_:IL.Annealed c g in
  check_bool "same seed, same layout" true (Placement.equal p1 p2)

(* fixtures/golden_anneal.txt pins the annealed placement of the circuits
   and fresh seeds the serve mix anneals, and the anneal's proposal
   counts at QFT-400: a census or bookkeeping rewrite must keep every
   accept/reject decision. Each circuit is lowered and placed on the
   scheduler's lattice for its width, as Scheduler.prepare does. *)
let anneal_fixture_path =
  List.find Sys.file_exists
    [ "../fixtures/golden_anneal.txt"; "fixtures/golden_anneal.txt" ]

let anneal_circuits =
  [ "qft50"; "qft100"; "qaoa64"; "lr32"; "im64"; "adder32"; "qpe32" ]
let anneal_seeds = [ 11; 1001; 1002; 1003 ]

let annealed ~seed name =
  let c =
    Qec_circuit.Decompose.to_scheduler_gates
      (Qec_benchmarks.Registry.build name)
  in
  let side =
    Qec_surface.Resources.lattice_side ~num_logical:(C.num_qubits c)
  in
  IL.place ~seed ~method_:IL.Annealed c (Grid.create side)

let placement_md5 p =
  Placement.to_array p |> Array.to_list |> List.map string_of_int
  |> String.concat "," |> Digest.string |> Digest.to_hex

let anneal_lines () =
  let placements =
    List.concat_map
      (fun name ->
        List.map
          (fun seed ->
            Printf.sprintf "placement %s %d %s" name seed
              (placement_md5 (annealed ~seed name)))
          anneal_seeds)
      anneal_circuits
  in
  let col = Col.create () in
  Qec_telemetry.Telemetry.with_sink (Col.sink col) (fun () ->
      ignore (annealed ~seed:11 "qft400"));
  let census =
    match Col.gauge_opt col "anneal.final_census" with
    | Some v -> int_of_float v
    | None -> -1
  in
  placements
  @ [
      Printf.sprintf
        "counts qft400 11 proposals %d accepted %d rejected %d final_census %d"
        (Col.counter col "anneal.proposals")
        (Col.counter col "anneal.accepted")
        (Col.counter col "anneal.rejected")
        census;
    ]

let test_anneal_golden () =
  let fixture =
    In_channel.with_open_text anneal_fixture_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let got = anneal_lines () in
  if got <> fixture then
    Alcotest.failf "annealed placements moved; this build computes:\n%s"
      (String.concat "\n" got)

let () =
  Alcotest.run "layout"
    [
      ( "fig9 bottleneck",
        [
          Alcotest.test_case "unroutable crossing pairs" `Quick test_fig9_unroutable;
          Alcotest.test_case "swaps rescue" `Quick test_fig9_swaps_rescue;
          Alcotest.test_case "swap pairs disjoint" `Quick test_plan_disjoint_pairs;
        ] );
      ( "layout optimizer",
        [
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "total distance" `Quick test_total_distance;
          Alcotest.test_case "odd-even reduces distance" `Quick test_odd_even_reduces_distance;
          Alcotest.test_case "odd-even phases" `Quick test_odd_even_phase_alternates;
          Alcotest.test_case "empty pending" `Quick test_plan_empty_pending;
        ] );
      ( "initial layout",
        [
          Alcotest.test_case "identity" `Quick test_initial_identity;
          Alcotest.test_case "partitioned compact" `Quick test_initial_partitioned_compact;
          Alcotest.test_case "chain snake" `Quick test_initial_chain_snake;
          Alcotest.test_case "anneal no worse" `Quick test_annealed_no_worse_census;
          Alcotest.test_case "serial census zero" `Quick test_census_zero_for_serial;
          Alcotest.test_case "deterministic" `Quick test_place_deterministic;
          Alcotest.test_case "golden anneal" `Quick test_anneal_golden;
        ] );
    ]
