(* Unit and property tests for the qec_util support library. *)

module Rng = Qec_util.Rng
module Heap = Qec_util.Heap
module Bitset = Qec_util.Bitset
module Stats = Qec_util.Stats
module Tableprint = Qec_util.Tableprint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then same := false
  done;
  check_bool "streams differ" false !same

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check_bool "copies agree next" true (Rng.bits64 a = Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b *)
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check_bool "streams out of sync after divergence" false (va = vb)

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Rng.bits64 b) in
  check_bool "split streams differ" false (xs = ys)

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 13 in
  let s = Rng.sample_without_replacement rng 10 20 in
  check_int "size" 10 (List.length s);
  check_int "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> check_bool "range" true (v >= 0 && v < 20)) s

let test_sample_full () =
  let rng = Rng.create 13 in
  let s = Rng.sample_without_replacement rng 5 5 in
  Alcotest.(check (list int)) "all elements" [ 0; 1; 2; 3; 4 ]
    (List.sort compare s)

let prop_rng_choose =
  QCheck.Test.make ~name:"Rng.choose returns a member" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) int))
    (fun (seed, l) ->
      QCheck.assume (l <> []);
      let rng = Rng.create seed in
      let a = Array.of_list l in
      List.mem (Rng.choose rng a) l)

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)

let test_heap_basic () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Heap.push h ~priority:3 "c";
  Heap.push h ~priority:1 "a";
  Heap.push h ~priority:2 "b";
  check_int "length" 3 (Heap.length h);
  Alcotest.(check (option string)) "peek" (Some "a") (Heap.peek_min h);
  Alcotest.(check (option string)) "pop a" (Some "a") (Heap.pop_min h);
  Alcotest.(check (option string)) "pop b" (Some "b") (Heap.pop_min h);
  Alcotest.(check (option string)) "pop c" (Some "c") (Heap.pop_min h);
  Alcotest.(check (option string)) "pop empty" None (Heap.pop_min h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~priority:1 "first";
  Heap.push h ~priority:1 "second";
  Heap.push h ~priority:1 "third";
  Alcotest.(check (option string)) "fifo 1" (Some "first") (Heap.pop_min h);
  Alcotest.(check (option string)) "fifo 2" (Some "second") (Heap.pop_min h);
  Alcotest.(check (option string)) "fifo 3" (Some "third") (Heap.pop_min h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~priority:1 1;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Heap pops in non-decreasing priority" ~count:300
    QCheck.(list (int_bound 1000))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p p) prios;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some v -> drain (v :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_int "capacity" 100 (Bitset.capacity b);
  check_bool "63 absent" false (Bitset.mem b 63);
  Bitset.add b 63;
  Bitset.add b 0;
  Bitset.add b 99;
  check_bool "63 present" true (Bitset.mem b 63);
  check_int "cardinal" 3 (Bitset.cardinal b);
  Bitset.remove b 63;
  check_bool "63 removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 99 ] (Bitset.to_list b)

let test_bitset_out_of_range () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 10)

let test_bitset_union_inter () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 3; 4 ];
  check_int "inter" 1 (Bitset.inter_cardinal a b);
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.to_list a)

let test_bitset_clear_copy () =
  let a = Bitset.create 10 in
  Bitset.add a 5;
  let c = Bitset.copy a in
  Bitset.clear a;
  check_int "cleared" 0 (Bitset.cardinal a);
  check_bool "copy unaffected" true (Bitset.mem c 5)

let prop_bitset_model =
  QCheck.Test.make ~name:"Bitset agrees with a set model" ~count:200
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let b = Bitset.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = Hashtbl.fold (fun k () acc -> k :: acc) model [] in
      List.sort compare expected = Bitset.to_list b)

(* [iter_range] is [iter] filtered to the range, clipped to the capacity;
   ranges start and end on and off the 63-bit word boundaries. *)
let prop_bitset_iter_range =
  QCheck.Test.make ~name:"Bitset.iter_range = filtered iter" ~count:300
    QCheck.(
      triple (list (int_bound 199)) (int_range (-5) 205) (int_range (-5) 205))
    (fun (members, lo, hi) ->
      let b = Bitset.create 200 in
      List.iter (Bitset.add b) members;
      let got = ref [] in
      Bitset.iter_range (fun i -> got := i :: !got) b ~lo ~hi;
      List.rev !got
      = List.filter (fun i -> lo <= i && i <= hi) (Bitset.to_list b))

let test_bitset_iter_range_word_edges () =
  let b = Bitset.create 190 in
  List.iter (Bitset.add b) [ 0; 62; 63; 125; 126; 189 ];
  let range lo hi =
    let acc = ref [] in
    Bitset.iter_range (fun i -> acc := i :: !acc) b ~lo ~hi;
    List.rev !acc
  in
  let check = Alcotest.(check (list int)) in
  check "one word, top bit" [ 62 ] (range 62 62);
  check "across a boundary" [ 62; 63 ] (range 62 63);
  check "inner words" [ 63; 125; 126 ] (range 63 188);
  check "last bit" [ 189 ] (range 189 189);
  check "empty range" [] (range 100 99)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let check_float = Alcotest.(check (float 1e-9))

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty" 0. (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let test_stats_stddev () =
  check_float "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "known" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_minmax_percentile () =
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  check_float "min" 1. lo;
  check_float "max" 3. hi;
  check_float "p50" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
  check_float "p100" 3. (Stats.percentile 100. [ 1.; 2.; 3. ])

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.; 1.; 2.; 3. ] in
  check_int "buckets" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check_int "total" 4 (c0 + c1)

(* Regression: all-equal samples used to spread over [buckets] fabricated
   one-wide buckets; the degenerate range must collapse to one bucket. *)
let test_stats_histogram_degenerate () =
  let h = Stats.histogram ~buckets:4 [ 2.5; 2.5; 2.5 ] in
  check_int "single bucket" 1 (Array.length h);
  let lo, hi, c = h.(0) in
  check_float "lo" 2.5 lo;
  check_float "hi" 2.5 hi;
  check_int "count" 3 c

(* ------------------------------------------------------------------ *)
(* Tableprint                                                           *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Tableprint.create
      ~headers:[ ("name", Tableprint.Left); ("value", Tableprint.Right) ]
  in
  Tableprint.add_row t [ "alpha"; "1" ];
  Tableprint.add_separator t;
  Tableprint.add_row t [ "b"; "22" ];
  let s = Tableprint.render t in
  check_bool "has header" true (String.length s > 0 && String.sub s 0 1 = "|");
  check_bool "mentions alpha" true (contains_substring s "alpha")

let test_table_arity () =
  let t = Tableprint.create ~headers:[ ("a", Tableprint.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tableprint.add_row: arity mismatch")
    (fun () -> Tableprint.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Tableprint.float_cell 3.14159);
  Alcotest.(check string) "si K" "1.34K" (Tableprint.si_cell 1340.);
  Alcotest.(check string) "si M" "2.10M" (Tableprint.si_cell 2.1e6);
  Alcotest.(check string) "si plain" "512" (Tableprint.si_cell 512.)


(* ------------------------------------------------------------------ *)
(* Parallel                                                             *)

let test_parallel_matches_sequential () =
  let xs = List.init 50 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "same results" (List.map f xs)
    (Qec_util.Parallel.map_jobs ~jobs:4 f xs)

let test_parallel_preserves_order () =
  let xs = List.init 20 (fun i -> 20 - i) in
  Alcotest.(check (list int)) "order" xs
    (Qec_util.Parallel.map_jobs ~jobs:3 (fun x -> x) xs)

let test_parallel_small_inputs () =
  Alcotest.(check (list int)) "empty" []
    (Qec_util.Parallel.map_jobs (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Qec_util.Parallel.map_jobs (fun x -> x + 2) [ 5 ])

let test_parallel_exceptions_propagate () =
  check_bool "raises" true
    (match
       Qec_util.Parallel.map_jobs ~jobs:2
         (fun x -> if x = 3 then failwith "boom" else x)
         [ 1; 2; 3; 4 ]
     with
    | exception _ -> true
    | _ -> false)

let test_parallel_default_domains () =
  check_bool "at least one" true (Qec_util.Parallel.default_jobs () >= 1)

let test_queue_drains_each_item_once () =
  let q = Qec_util.Parallel.Queue.of_list [ "a"; "b"; "c" ] in
  check_int "length" 3 (Qec_util.Parallel.Queue.length q);
  Alcotest.(check (option (pair int string)))
    "first" (Some (0, "a"))
    (Qec_util.Parallel.Queue.pop q);
  check_int "remaining" 2 (Qec_util.Parallel.Queue.remaining q);
  Alcotest.(check (option (pair int string)))
    "second" (Some (1, "b"))
    (Qec_util.Parallel.Queue.pop q);
  Alcotest.(check (option (pair int string)))
    "third" (Some (2, "c"))
    (Qec_util.Parallel.Queue.pop q);
  Alcotest.(check (option (pair int string)))
    "drained" None
    (Qec_util.Parallel.Queue.pop q);
  check_int "remaining stays 0" 0 (Qec_util.Parallel.Queue.remaining q)

let test_queue_concurrent_no_duplicates () =
  let n = 1000 in
  let q = Qec_util.Parallel.Queue.of_list (List.init n (fun i -> i)) in
  let seen = Array.make n 0 in
  (* Alcotest's check is not domain-safe: workers only record, and the
     main domain asserts after the join. *)
  let mismatches = Atomic.make 0 in
  Qec_util.Parallel.run_workers ~jobs:4 (fun _id ->
      let rec loop () =
        match Qec_util.Parallel.Queue.pop q with
        | None -> ()
        | Some (idx, item) ->
          if item <> idx then Atomic.incr mismatches;
          (* each slot is written exactly once, so plain stores suffice *)
          seen.(idx) <- seen.(idx) + 1;
          loop ()
      in
      loop ());
  check_int "every index matches its item" 0 (Atomic.get mismatches);
  Array.iteri (fun i c -> check_int (Printf.sprintf "item %d once" i) 1 c) seen

let test_run_workers_ids_and_exceptions () =
  let ids = Array.make 3 (-1) in
  Qec_util.Parallel.run_workers ~jobs:3 (fun id -> ids.(id) <- id);
  Alcotest.(check (array int)) "each id runs" [| 0; 1; 2 |] ids;
  check_bool "worker exception propagates" true
    (match
       Qec_util.Parallel.run_workers ~jobs:2 (fun id ->
           if id = 1 then failwith "boom")
     with
    | exception Failure _ -> true
    | () -> false)

let test_map_jobs_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * 3) - 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs)
        (Qec_util.Parallel.map_jobs ~jobs f xs))
    [ 1; 2; 7 ]

let test_parallel_sweep_equals_sequential () =
  let timing = Qec_surface.Timing.make ~d:33 () in
  let c =
    Qec_circuit.Circuit.create ~num_qubits:9
      (List.init 20 (fun i -> Qec_circuit.Gate.Cx (i mod 9, (i + 1) mod 9))
      |> List.filter (fun g ->
             match Qec_circuit.Gate.two_qubit_operands g with
             | Some (a, b) -> a <> b
             | None -> true))
  in
  let pts = [ 0.0; 0.3; 0.6 ] in
  let seq, curve = Autobraid.Scheduler.run_best_p ~grid_points:pts timing c in
  let jobs4, curve4 =
    Autobraid.Scheduler.run_best_p ~grid_points:pts ~jobs:4 timing c
  in
  check_int "full curve" 3 (List.length curve4);
  check_int "jobs same best" seq.Autobraid.Scheduler.total_cycles
    jobs4.Autobraid.Scheduler.total_cycles;
  check_bool "jobs same curve" true
    (List.for_all2
       (fun (p1, r1) (p2, r2) ->
         p1 = p2
         && r1.Autobraid.Scheduler.total_cycles
            = r2.Autobraid.Scheduler.total_cycles)
       curve curve4)

let () =
  Alcotest.run "qec_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample distinct" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_sample_full;
          QCheck_alcotest.to_alcotest prop_rng_choose;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
          Alcotest.test_case "union/inter" `Quick test_bitset_union_inter;
          Alcotest.test_case "clear/copy" `Quick test_bitset_clear_copy;
          QCheck_alcotest.to_alcotest prop_bitset_model;
          QCheck_alcotest.to_alcotest prop_bitset_iter_range;
          Alcotest.test_case "iter_range word edges" `Quick
            test_bitset_iter_range_word_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "minmax/percentile" `Quick test_stats_minmax_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram degenerate" `Quick
            test_stats_histogram_degenerate;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "order" `Quick test_parallel_preserves_order;
          Alcotest.test_case "small inputs" `Quick test_parallel_small_inputs;
          Alcotest.test_case "exceptions" `Quick test_parallel_exceptions_propagate;
          Alcotest.test_case "default domains" `Quick test_parallel_default_domains;
          Alcotest.test_case "queue drains" `Quick test_queue_drains_each_item_once;
          Alcotest.test_case "queue concurrent" `Quick test_queue_concurrent_no_duplicates;
          Alcotest.test_case "run_workers" `Quick test_run_workers_ids_and_exceptions;
          Alcotest.test_case "map_jobs" `Quick test_map_jobs_matches_sequential;
          Alcotest.test_case "sweep equivalence" `Quick test_parallel_sweep_equals_sequential;
        ] );
      ( "tableprint",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
