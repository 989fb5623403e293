(* Tests for the graph bisection and grid embedding (METIS stand-in). *)

module Bisect = Qec_partition.Bisect
module Embed = Qec_partition.Embed
module K = Qec_circuit.Coupling
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Weighted graph on [n] qubits from [((a, b), w)] edges: [w] CX gates
   per edge, so the weight is the coupling count. *)
let graph n edges =
  List.concat_map (fun ((a, b), w) -> List.init w (fun _ -> G.Cx (a, b))) edges
  |> C.create ~num_qubits:n |> K.of_circuit |> Bisect.prepare

let rng () = Qec_util.Rng.create 7

let test_bisect_sizes () =
  let g = graph 7 [] in
  let a, b = Bisect.bisect ~rng:(rng ()) ~size_a:3 g [ 0; 1; 2; 3; 4; 5; 6 ] in
  check_int "side a" 3 (List.length a);
  check_int "side b" 4 (List.length b);
  check_int "partition" 7 (List.length (List.sort_uniq compare (a @ b)))

let test_bisect_extremes () =
  let g = graph 3 [] in
  let a, b = Bisect.bisect ~rng:(rng ()) ~size_a:0 g [ 1; 2 ] in
  check_int "empty a" 0 (List.length a);
  check_int "all b" 2 (List.length b);
  let a, b = Bisect.bisect ~rng:(rng ()) ~size_a:2 g [ 1; 2 ] in
  check_int "all a" 2 (List.length a);
  check_int "empty b" 0 (List.length b);
  check_bool "bad size" true
    (match Bisect.bisect ~rng:(rng ()) ~size_a:5 g [ 1; 2 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "node outside graph" true
    (match Bisect.bisect ~rng:(rng ()) ~size_a:1 g [ 1; 3 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bisect_keeps_cliques_together () =
  (* two 4-cliques joined by one weak edge: the cut must be the weak edge *)
  let clique base =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j then Some ((base + i, base + j), 10) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let edges = clique 0 @ clique 4 @ [ ((3, 4), 1) ] in
  let a, _b =
    Bisect.bisect ~rng:(rng ()) ~size_a:4 (graph 8 edges)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let sorted = List.sort compare a in
  check_bool "one clique per side" true
    (sorted = [ 0; 1; 2; 3 ] || sorted = [ 4; 5; 6; 7 ])

let test_cut_weight () =
  let g = graph 3 [ ((0, 1), 3); ((1, 2), 5) ] in
  check_int "cut" 3 (Bisect.cut_weight g [ 0 ] [ 1; 2 ]);
  check_int "no cut" 0 (Bisect.cut_weight g [ 0 ] [ 2 ])

let test_embed_valid_placement () =
  let c = Qec_benchmarks.Qaoa.circuit 16 in
  let grid = Grid.create 4 in
  let p = Embed.layout (K.of_circuit c) grid in
  check_int "all qubits placed" 16 (Placement.num_qubits p);
  let cells = Placement.to_array p in
  check_int "distinct cells" 16
    (List.length (List.sort_uniq compare (Array.to_list cells)))

let test_embed_partial_grid () =
  (* fewer qubits than cells *)
  let c = C.create ~num_qubits:5 G.[ Cx (0, 1); Cx (2, 3); Cx (3, 4) ] in
  let grid = Grid.create 3 in
  let p = Embed.layout (K.of_circuit c) grid in
  check_int "placed" 5 (Placement.num_qubits p)

let test_embed_too_small () =
  let c = C.create ~num_qubits:5 [] in
  check_bool "grid too small" true
    (match Embed.layout (K.of_circuit c) (Grid.create 2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_embed_locality () =
  (* strongly-coupled pairs end up close: average coupled distance should
     beat the identity layout clearly on a clustered graph *)
  let gates =
    List.concat_map
      (fun base ->
        List.init 6 (fun i -> G.Cx (base + (i mod 4), base + ((i + 1) mod 4))))
      [ 0; 4; 8; 12 ]
  in
  let c = C.create ~num_qubits:16 gates in
  let k = K.of_circuit c in
  let grid = Grid.create 4 in
  let avg_distance p =
    let total, cnt =
      List.fold_left
        (fun (acc, cnt) (a, b, w) ->
          (acc + (w * Placement.distance p a b), cnt + w))
        (0, 0) (K.edges k)
    in
    float_of_int total /. float_of_int cnt
  in
  let embedded = Embed.layout k grid in
  check_bool "coupled pairs nearby" true (avg_distance embedded <= 2.0)

let test_embed_snake_toggle () =
  let c = Qec_benchmarks.Ising.circuit ~steps:1 9 in
  let k = K.of_circuit c in
  let grid = Grid.create 3 in
  let with_snake = Embed.layout ~snake:true k grid in
  let without = Embed.layout ~snake:false k grid in
  (* snake: all coupled pairs adjacent *)
  List.iter
    (fun (a, b, _) ->
      check_int "snake adjacency" 1 (Placement.distance with_snake a b))
    (K.edges k);
  (* both are valid placements *)
  check_int "without snake still places" 9 (Placement.num_qubits without)

let test_embed_deterministic () =
  let c = Qec_benchmarks.Qaoa.circuit 16 in
  let k = K.of_circuit c in
  let grid = Grid.create 4 in
  let p1 = Embed.layout ~seed:9 k grid in
  let p2 = Embed.layout ~seed:9 k grid in
  check_bool "same seed same layout" true (Placement.equal p1 p2)

let prop_bisect_partitions =
  QCheck.Test.make ~name:"bisect always partitions exactly" ~count:200
    QCheck.(pair (int_range 1 20) (list_of_size (Gen.int_range 0 30)
                                     (pair (int_bound 19) (int_bound 19))))
    (fun (n, raw_edges) ->
      let nodes = List.init n (fun i -> i) in
      let edges =
        List.filter_map
          (fun (a, b) ->
            if a < n && b < n && a <> b then Some ((min a b, max a b), 1)
            else None)
          raw_edges
        |> List.sort_uniq compare
      in
      let size_a = n / 2 in
      let a, b = Bisect.bisect ~rng:(rng ()) ~size_a (graph n edges) nodes in
      List.length a = size_a
      && List.length b = n - size_a
      && List.sort compare (a @ b) = nodes)

(* Golden placements: fixtures/golden_placements.txt pins the digest of
   every Embed.layout the fixture names. Bisection rewrites must keep
   them byte-identical. *)
let golden_path =
  (* dune runtest runs in _build/default/test; fixtures sit next to it *)
  List.find Sys.file_exists
    [ "../fixtures/golden_placements.txt"; "fixtures/golden_placements.txt" ]

let embed_case family size =
  let c =
    match Qec_benchmarks.Registry.find_family family with
    | Some e -> e.Qec_benchmarks.Registry.sized size
    | None -> Alcotest.failf "unknown family %s" family
  in
  let lowered = Qec_circuit.Decompose.to_scheduler_gates c in
  let n = C.num_qubits lowered in
  let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:n) in
  (K.of_circuit lowered, Grid.create side)

let placement_digest ~seed ~snake (coupling, grid) =
  Embed.layout ~seed ~snake coupling grid
  |> Placement.to_array |> Array.to_list |> List.map string_of_int
  |> String.concat "," |> Digest.string |> Digest.to_hex

let test_embed_golden () =
  let lines =
    In_channel.with_open_text golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let cases = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ family; size; snake; seed; expect ] ->
        let size = int_of_string size in
        let g =
          match Hashtbl.find_opt cases (family, size) with
          | Some g -> g
          | None ->
            let g = embed_case family size in
            Hashtbl.add cases (family, size) g;
            g
        in
        let got =
          placement_digest ~seed:(int_of_string seed)
            ~snake:(snake = "snake") g
        in
        Alcotest.(check string) line expect got
      | _ -> Alcotest.failf "malformed fixture line: %s" line)
    lines;
  List.iter
    (fun (e : Qec_benchmarks.Registry.entry) ->
      check_bool (e.name ^ " in fixture") true
        (Hashtbl.fold (fun (f, _) _ acc -> acc || f = e.name) cases false))
    Qec_benchmarks.Registry.families;
  check_bool "qft400 in fixture" true (Hashtbl.mem cases ("qft", 400))

let () =
  Alcotest.run "partition"
    [
      ( "bisect",
        [
          Alcotest.test_case "sizes" `Quick test_bisect_sizes;
          Alcotest.test_case "extremes" `Quick test_bisect_extremes;
          Alcotest.test_case "cliques stay together" `Quick test_bisect_keeps_cliques_together;
          Alcotest.test_case "cut weight" `Quick test_cut_weight;
          QCheck_alcotest.to_alcotest prop_bisect_partitions;
        ] );
      ( "embed",
        [
          Alcotest.test_case "valid placement" `Quick test_embed_valid_placement;
          Alcotest.test_case "partial grid" `Quick test_embed_partial_grid;
          Alcotest.test_case "grid too small" `Quick test_embed_too_small;
          Alcotest.test_case "locality" `Quick test_embed_locality;
          Alcotest.test_case "snake toggle" `Quick test_embed_snake_toggle;
          Alcotest.test_case "deterministic" `Quick test_embed_deterministic;
          Alcotest.test_case "golden placements" `Quick test_embed_golden;
        ] );
    ]
