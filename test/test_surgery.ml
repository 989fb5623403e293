(* Tests for the lattice-surgery backend: trace validity, cross-backend
   equivalence, the pipelining win on long-range workloads, rip-up and
   stats accounting, Merge-round trace violations, and JSON export. *)

module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module CB = Autobraid.Comm_backend
module Surgery = Qec_surgery.Surgery_scheduler
module T = Qec_surface.Timing
module St = Qec_surface.Surgery_timing
module C = Qec_circuit.Circuit
module G = Qec_circuit.Gate
module B = Qec_benchmarks

(* The backends below are built by name, so link surgery's entry. *)
let () = Surgery.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = T.make ~d:33 ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0


let acceptance_circuits =
  [ B.Qft.circuit 9; B.Bv.circuit 12; B.Qaoa.circuit 12 ]

let test_traces_validate () =
  List.iter
    (fun c ->
      let _, trace, _ = Surgery.run_traced timing c in
      Certified.expect_clean ~what:"surgery trace" trace)
    (acceptance_circuits
    @ [ B.Misc_circuits.longrange 12; B.Building_blocks.by_name "4gt11_8" ])

let test_result_consistency () =
  let result, trace, stats = Surgery.run_traced timing (B.Qft.circuit 9) in
  check_int "cycles from trace replay" (Trace.cycles timing trace)
    result.S.total_cycles;
  check_int "rounds agree" (Trace.num_rounds trace) result.S.rounds;
  check_int "no swap layers" 0 result.S.swap_layers;
  check_int "no swaps" 0 result.S.swaps_inserted;
  check_int "merge rounds in result" stats.Surgery.merge_rounds
    result.S.braid_rounds;
  check_int "rounds split into merge+local"
    (stats.Surgery.merge_rounds + stats.Surgery.local_rounds)
    result.S.rounds

let test_stats_accounting () =
  let _, trace, stats = Surgery.run_traced timing (B.Qft.circuit 9) in
  let overlapped =
    List.length
      (List.filter
         (function
           | Trace.Merge { split_overlapped; _ } -> split_overlapped
           | _ -> false)
         trace.Trace.rounds)
  in
  check_int "pipelined_splits counts overlapped rounds" overlapped
    stats.Surgery.pipelined_splits;
  check_bool "tile time positive" true (stats.Surgery.tile_time_cycles > 0);
  check_bool "mean path at least one vertex" true
    (stats.Surgery.mean_merge_path >= 1.);
  check_bool "longest path bounds mean" true
    (float_of_int stats.Surgery.longest_merge_path
    >= stats.Surgery.mean_merge_path);
  (* tile-time is Σ path_len * d, so mean * merges * d must reproduce it *)
  let merges =
    List.fold_left
      (fun acc -> function
        | Trace.Merge { merges; _ } -> acc + List.length merges
        | _ -> acc)
      0 trace.Trace.rounds
  in
  check_int "tile time = mean * merges * d"
    (int_of_float
       (Float.round (stats.Surgery.mean_merge_path *. float_of_int merges))
    * St.merge_cycles timing)
    stats.Surgery.tile_time_cycles

let test_cross_backend_same_gates () =
  List.iter
    (fun c ->
      let braid = (CB.by_name "braid").CB.run timing c in
      let surgery = (CB.by_name "surgery").CB.run timing c in
      let gb = CB.scheduled_gate_ids braid.CB.trace
      and gs = CB.scheduled_gate_ids surgery.CB.trace in
      check_int "same lowered gate count"
        braid.CB.result.S.num_gates surgery.CB.result.S.num_gates;
      check_bool "both backends schedule the same gate set" true (gb = gs);
      check_int "every gate scheduled exactly once"
        braid.CB.result.S.num_gates (List.length gs))
    acceptance_circuits

let test_surgery_beats_braid_on_longrange () =
  (* The acceptance benchmark: long-range CX fronts split under
     congestion, and surgery pipelines the splits while braiding pays
     full 2d rounds. *)
  let wins = ref 0 in
  List.iter
    (fun n ->
      let c = B.Misc_circuits.longrange n in
      let braid = (CB.by_name "braid").CB.run timing c in
      let surgery = (CB.by_name "surgery").CB.run timing c in
      let cb = braid.CB.result.S.total_cycles
      and cs = surgery.CB.result.S.total_cycles in
      check_bool
        (Printf.sprintf "surgery no worse on lr%d (%d vs %d)" n cb cs)
        true (cs <= cb);
      if cs < cb then incr wins)
    [ 16; 20; 24 ];
  check_bool "surgery strictly faster on at least one lr size" true (!wins >= 1)

let test_pipelining_toggle () =
  let c = B.Misc_circuits.longrange 16 in
  let on = Surgery.run_traced timing c in
  let off =
    Surgery.run_traced
      ~options:
        (Result.get_ok
           (CB.Options.decode Surgery.options_spec
              [ ("pipeline_splits", CB.Options.Bool false) ]))
      timing c
  in
  let _, trace_off, stats_off = off in
  check_int "no overlapped rounds when disabled" 0
    stats_off.Surgery.pipelined_splits;
  check_bool "disabled trace still valid" true (Certified.clean trace_off);
  let r_on, _, stats_on = on in
  check_bool "pipelining fires on the long-range benchmark" true
    (stats_on.Surgery.pipelined_splits > 0);
  check_bool "pipelining never slows the schedule" true
    (r_on.S.total_cycles <= (let r, _, _ = off in r).S.total_cycles)

let test_determinism () =
  let c = B.Misc_circuits.longrange 16 in
  let r1, t1, _ = Surgery.run_traced timing c in
  let r2, t2, _ = Surgery.run_traced timing c in
  check_int "same cycles" r1.S.total_cycles r2.S.total_cycles;
  check_int "same rounds" (Trace.num_rounds t1) (Trace.num_rounds t2)

(* The registry entry is run_traced itself: same record, trace and
   flattened stats. *)
let test_registry_ctor_matches_run_traced () =
  let c = B.Qft.circuit 9 in
  let o = (CB.by_name "surgery").CB.run timing c in
  let result, trace, stats = Surgery.run_traced timing c in
  check_int "identical schedules" result.S.total_cycles
    o.CB.result.S.total_cycles;
  check_bool "identical traces" true (trace = o.CB.trace);
  check_bool "flattened stats" true
    (Surgery.stats_to_assoc stats = o.CB.stats)

let test_braid_backend_matches_scheduler () =
  let c = B.Qft.circuit 9 in
  let o = (CB.by_name "braid").CB.run timing c in
  let direct = S.run timing c in
  check_int "backend wraps the scheduler unchanged" direct.S.total_cycles
    o.CB.result.S.total_cycles;
  check_bool "braid stats empty" true (o.CB.stats = [])

(* ---------------- Merge-round violations ---------------- *)

let surgery_trace c =
  let _, trace, _ = Surgery.run_traced timing c in
  trace

let overlap_last_merge rounds =
  let last =
    List.fold_left
      (fun (i, acc) r ->
        (i + 1, match r with Trace.Merge _ -> i | _ -> acc))
      (0, -1) rounds
    |> snd
  in
  List.mapi
    (fun i r ->
      match r with
      | Trace.Merge { merges; locals; _ } when i = last ->
        Trace.Merge { merges; locals; split_overlapped = true }
      | _ -> r)
    rounds

let test_overlap_on_final_round_rejected () =
  (* A lone CX schedules as a single merge round — the last one — so
     claiming its split overlaps a successor must be rejected. *)
  let trace = surgery_trace (C.create ~num_qubits:2 [ G.Cx (0, 1) ]) in
  let is_last_merge =
    match List.rev trace.Trace.rounds with
    | Trace.Merge _ :: _ -> true
    | _ -> false
  in
  check_bool "fixture ends in a merge round" true is_last_merge;
  let broken =
    {
      trace with
      Trace.rounds = overlap_last_merge trace.Trace.rounds;
    }
  in
  Certified.expect_failed Qec_verify.Invariant.Split_pipeline broken

let test_overlap_sharing_qubits_rejected () =
  (* CX(0,1) then H 0: the local round touches q0, so the merge's split
     cannot overlap it. *)
  let c = C.create ~num_qubits:2 [ G.Cx (0, 1); G.H 0 ] in
  let trace = surgery_trace c in
  let broken =
    {
      trace with
      Trace.rounds =
        List.map
          (function
            | Trace.Merge m -> Trace.Merge { m with split_overlapped = true }
            | r -> r)
          trace.Trace.rounds;
    }
  in
  Certified.expect_failed Qec_verify.Invariant.Split_pipeline broken

let test_empty_merge_round_rejected () =
  let c = C.create ~num_qubits:2 [ G.Cx (0, 1) ] in
  let trace = surgery_trace c in
  let broken =
    {
      trace with
      Trace.rounds =
        Trace.Merge { merges = []; locals = []; split_overlapped = false }
        :: trace.Trace.rounds;
    }
  in
  Certified.expect_failed Qec_verify.Invariant.Round_shape broken

let test_single_qubit_merge_rejected () =
  let c = C.create ~num_qubits:2 [ G.H 0; G.Cx (0, 1) ] in
  let trace = surgery_trace c in
  (* reschedule the H gate as a merge *)
  let broken =
    {
      trace with
      Trace.rounds =
        List.map
          (function
            | Trace.Local { gates = [ id ] } ->
              let path =
                match trace.Trace.rounds with
                | _ ->
                  (* reuse any recorded merge path *)
                  List.find_map
                    (function
                      | Trace.Merge { merges = (_, p) :: _; _ } -> Some p
                      | _ -> None)
                    trace.Trace.rounds
                  |> Option.get
              in
              Trace.Merge
                {
                  merges = [ ({ Autobraid.Task.id; q1 = 0; q2 = 1 }, path) ];
                  locals = [];
                  split_overlapped = false;
                }
            | r -> r)
          trace.Trace.rounds;
    }
  in
  Certified.expect_failed Qec_verify.Invariant.Round_shape broken

(* ---------------- export ---------------- *)

let test_backend_outcome_json () =
  let c = B.Bv.circuit 12 in
  let o = (CB.by_name "surgery").CB.run timing c in
  let json =
    Qec_report.Json.to_string
      (Qec_report.Export.backend_outcome_to_json ~max_rounds:5 timing o)
  in
  check_bool "has backend field" true (contains json "\"backend\":\"surgery\"");
  check_bool "has surgery stats" true (contains json "pipelined_splits");
  check_bool "has merge rounds" true (contains json "\"kind\":\"merge\"");
  check_bool "has exposure" true (contains json "failure_probability")

(* Property: surgery traces validate on random circuits, with and without
   pipelining. *)
let random_circuit =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* gs =
      list_size (int_range 1 50)
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* kind = int_range 0 2 in
         return (a, b, kind))
    in
    let gates =
      List.map
        (fun (a, b, kind) -> if kind = 0 || a = b then G.H a else G.Cx (a, b))
        gs
    in
    return (C.create ~num_qubits:n gates))

let prop_surgery_traces_validate =
  QCheck.Test.make ~name:"surgery traces always validate" ~count:60
    (QCheck.make random_circuit) (fun c ->
      let _, trace, _ = Surgery.run_traced timing c in
      Certified.clean trace)

let prop_backends_agree_on_gates =
  QCheck.Test.make ~name:"backends schedule identical gate sets" ~count:40
    (QCheck.make random_circuit) (fun c ->
      let braid = (CB.by_name "braid").CB.run timing c in
      let surgery = (CB.by_name "surgery").CB.run timing c in
      CB.scheduled_gate_ids braid.CB.trace
      = CB.scheduled_gate_ids surgery.CB.trace)

let () =
  Alcotest.run "surgery"
    [
      ( "scheduler",
        [
          Alcotest.test_case "traces validate" `Quick test_traces_validate;
          Alcotest.test_case "result consistency" `Quick test_result_consistency;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "registry ctor agrees with run_traced" `Quick
            test_registry_ctor_matches_run_traced;
          QCheck_alcotest.to_alcotest prop_surgery_traces_validate;
        ] );
      ( "backend",
        [
          Alcotest.test_case "same gate sets" `Quick
            test_cross_backend_same_gates;
          Alcotest.test_case "beats braid on long-range" `Quick
            test_surgery_beats_braid_on_longrange;
          Alcotest.test_case "pipelining toggle" `Quick test_pipelining_toggle;
          Alcotest.test_case "braid backend wraps scheduler" `Quick
            test_braid_backend_matches_scheduler;
          QCheck_alcotest.to_alcotest prop_backends_agree_on_gates;
        ] );
      ( "violations",
        [
          Alcotest.test_case "overlap on final round" `Quick
            test_overlap_on_final_round_rejected;
          Alcotest.test_case "overlap sharing qubits" `Quick
            test_overlap_sharing_qubits_rejected;
          Alcotest.test_case "empty merge round" `Quick
            test_empty_merge_round_rejected;
          Alcotest.test_case "single-qubit merge" `Quick
            test_single_qubit_merge_rejected;
        ] );
      ( "export",
        [ Alcotest.test_case "backend outcome json" `Quick
            test_backend_outcome_json ] );
    ]
