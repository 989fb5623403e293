(* Observability layer: Perfetto export shape, drift gating policy, and
   the repeated-run profiler's report schema. *)

module J = Qec_report.Json
module Tel = Qec_telemetry.Telemetry
module Col = Qec_telemetry.Collector
module D = Qec_obs.Drift

let events j =
  match J.member "traceEvents" j with
  | Some (J.List l) -> l
  | _ -> Alcotest.fail "trace has no traceEvents list"

let str key o =
  match J.member key o with Some (J.String s) -> s | _ -> ""

let ph = str "ph"
let name = str "name"

(* ------------------------------------------------------------------ *)
(* Perfetto                                                            *)

let trace_collector () =
  let c = Col.create () in
  let t = ref 0.0 in
  let clock () =
    let v = !t in
    t := v +. 1.0;
    v
  in
  Tel.with_sink ~clock (Col.sink c) (fun () ->
      Tel.with_span "outer" (fun () ->
          Tel.with_span "inner" (fun () -> ());
          Tel.count ~by:3 "gates";
          Tel.sample "queue_s" 0.5));
  c

let test_perfetto_events () =
  let c = trace_collector () in
  let j = Qec_obs.Perfetto.to_json c in
  (match J.member "displayTimeUnit" j with
  | Some (J.String "ms") -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  let evs = events j in
  List.iter
    (fun e ->
      match J.member "pid" e with
      | Some (J.Int 1) -> ()
      | _ -> Alcotest.fail "event not on pid 1")
    evs;
  let xs = List.filter (fun e -> ph e = "X") evs in
  Alcotest.(check (list string))
    "span events" [ "inner"; "outer" ]
    (List.sort compare (List.map name xs));
  List.iter
    (fun e ->
      if J.member "ts" e = None || J.member "dur" e = None then
        Alcotest.fail "X event missing ts/dur")
    xs;
  let main_lane =
    List.exists
      (fun e ->
        ph e = "M"
        && name e = "thread_name"
        &&
        match J.member "args" e with
        | Some args -> str "name" args = "main"
        | None -> false)
      evs
  in
  Alcotest.(check bool) "main lane labelled" true main_lane;
  let counters = List.filter (fun e -> ph e = "C") evs in
  Alcotest.(check bool) "counter track for gates" true
    (List.exists (fun e -> name e = "gates") counters);
  Alcotest.(check bool) "histogram track for queue_s" true
    (List.exists (fun e -> name e = "queue_s") counters)

let test_perfetto_round_trips () =
  let c = trace_collector () in
  match J.of_string (Qec_obs.Perfetto.to_string c) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("trace JSON does not parse: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Drift                                                               *)

let test_classify () =
  let check_some key dir band =
    match D.classify key with
    | Some (d, b) ->
      Alcotest.(check bool) (key ^ " direction") true (d = dir);
      Alcotest.(check bool) (key ^ " band") true (b = band)
    | None -> Alcotest.fail (key ^ " should be gated")
  in
  check_some "total_cycles" D.Lower_better D.Cycle;
  check_some "swaps_inserted" D.Lower_better D.Cycle;
  check_some "speedup" D.Higher_better D.Cycle;
  check_some "braid_vs_greedy_speedup" D.Higher_better D.Cycle;
  check_some "cold_s" D.Lower_better D.Wall;
  check_some "qft100_wall_s" D.Lower_better D.Wall;
  check_some "invariants_checked" D.Higher_better D.Cycle;
  check_some "mutations_killed" D.Higher_better D.Cycle;
  Alcotest.(check bool) "utilization ungated" true
    (D.classify "avg_utilization" = None);
  Alcotest.(check bool) "descriptors ungated" true (D.classify "name" = None)

(* A miniature BENCH-shaped tree exercising both bands and nesting. *)
let tree ~cycles ~speedup ~wall =
  J.Obj
    [
      ("section", J.String "mini");
      ( "circuits",
        J.List
          [
            J.Obj
              [
                ("name", J.String "c1");
                ("braid", J.Obj [ ("total_cycles", J.Int cycles) ]);
                ("speedup", J.Float speedup);
              ];
          ] );
      ("wall_s", J.Float wall);
    ]

let run_check ?(tolerance = 0.02) ?(wall_tolerance = 2.0) baseline current =
  D.check ~tolerance ~wall_tolerance ~baseline ~current

let base = tree ~cycles:100 ~speedup:2.0 ~wall:1.0

let test_drift_identical_passes () =
  let o = run_check base base in
  Alcotest.(check int) "gated metrics" 3 o.D.checked;
  Alcotest.(check bool) "passes" true (D.passed o);
  Alcotest.(check int) "no regressions" 0 (List.length o.D.regressions);
  Alcotest.(check int) "nothing missing" 0 (List.length o.D.missing)

let test_drift_cycle_regression_fails () =
  let o = run_check base (tree ~cycles:103 ~speedup:2.0 ~wall:1.0) in
  Alcotest.(check bool) "fails" false (D.passed o);
  match o.D.regressions with
  | [ f ] ->
    Alcotest.(check string) "path" "circuits[0].braid.total_cycles" f.D.path;
    Alcotest.(check bool) "cycle band" true (f.D.band = D.Cycle);
    Alcotest.(check (float 1e-9)) "ratio" 1.03 f.D.ratio
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_drift_improvement_passes () =
  let o = run_check base (tree ~cycles:90 ~speedup:2.0 ~wall:1.0) in
  Alcotest.(check bool) "passes" true (D.passed o);
  Alcotest.(check int) "one improvement" 1 (List.length o.D.improvements)

let test_drift_higher_better () =
  (* speedup dropping below baseline * (1 - tol) is a regression even
     though the number got smaller. *)
  let o = run_check base (tree ~cycles:100 ~speedup:1.9 ~wall:1.0) in
  Alcotest.(check int) "speedup drop caught" 1 (List.length o.D.regressions)

let test_drift_wall_band_loose () =
  (* wall_tolerance 2.0 allows up to 3x the baseline wall time... *)
  let o = run_check base (tree ~cycles:100 ~speedup:2.0 ~wall:2.9) in
  Alcotest.(check bool) "2.9x tolerated" true (D.passed o);
  (* ...but not past it, and the finding lands in the Wall band. *)
  let o = run_check base (tree ~cycles:100 ~speedup:2.0 ~wall:3.5) in
  match o.D.regressions with
  | [ f ] -> Alcotest.(check bool) "wall band" true (f.D.band = D.Wall)
  | l -> Alcotest.failf "expected 1 wall regression, got %d" (List.length l)

let test_drift_missing_metric_fails () =
  let gutted =
    J.Obj [ ("section", J.String "mini"); ("wall_s", J.Float 1.0) ]
  in
  let o = run_check base gutted in
  Alcotest.(check bool) "fails" false (D.passed o);
  Alcotest.(check bool) "missing paths recorded" true (o.D.missing <> [])

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)

let test_profile_report () =
  let open Qec_obs.Profile in
  let spec =
    {
      Qec_engine.Spec.default with
      circuit = "qft9";
      outputs = { trace = false; reliability = false; certificate = true };
    }
  in
  let p, _trace = run ~jobs:1 ~repeat:2 [ spec ] in
  Alcotest.(check int) "runs" 2 p.runs;
  Alcotest.(check int) "jobs_ok" 1 p.jobs_ok;
  Alcotest.(check int) "jobs_failed" 0 p.jobs_failed;
  Alcotest.(check bool) "no errors" true (p.errors = []);
  Alcotest.(check bool) "has phases" true (p.phases <> []);
  let names = List.map (fun r -> r.phase) p.phases in
  Alcotest.(check (list string)) "phases sorted" (List.sort compare names)
    names;
  let ordered s = s.min_s <= s.median_s && s.median_s <= s.p95_s in
  Alcotest.(check bool) "wall stats ordered" true (ordered p.wall);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.phase ^ " stats ordered")
        true
        (ordered r.total && ordered r.self))
    p.phases;
  let j = to_json p in
  (match J.member "schema" j with
  | Some (J.String "autobraid-profile/v1") -> ()
  | _ -> Alcotest.fail "bad schema tag");
  (match J.member "phases" j with
  | Some (J.List l) ->
    Alcotest.(check int) "json phases" (List.length p.phases) (List.length l)
  | _ -> Alcotest.fail "report has no phases list");
  (* Timers: medians across the runs, sorted by name. qft9 routes in
     every round and is certified once per run. *)
  let timers = List.map (fun r -> r.timer) p.timers in
  Alcotest.(check (list string)) "timers sorted" (List.sort compare timers)
    timers;
  let timer name =
    match List.find_opt (fun r -> r.timer = name) p.timers with
    | Some r -> r
    | None -> Alcotest.fail ("no timer " ^ name)
  in
  Alcotest.(check bool) "first pass timed" true
    ((timer "stack_finder.first_pass").calls >= 1.);
  Alcotest.(check (float 0.)) "certified once per run" 1.
    (timer "certifier.certify").calls;
  List.iter
    (fun r -> Alcotest.(check bool) (r.timer ^ " seconds") true (r.seconds >= 0.))
    p.timers;
  match J.member "timers" j with
  | Some (J.List l) ->
    Alcotest.(check int) "json timers" (List.length p.timers) (List.length l)
  | _ -> Alcotest.fail "report has no timers list"

(* Rendering a job's result record is timed as [export.job_json]. *)
let test_job_json_timer () =
  let spec = { Qec_engine.Spec.default with circuit = "qft9" } in
  let jobs = Qec_engine.Engine.run_batch ~jobs:1 [ spec ] in
  let c = Col.create () in
  Tel.with_sink (Col.sink c) (fun () ->
      ignore (Qec_engine.Engine_core.jobs_to_jsonl jobs));
  match List.find_opt (fun (n, _, _) -> n = "export.job_json") (Col.timers c) with
  | Some (_, calls, _) -> Alcotest.(check int) "one call per job" 1 calls
  | None -> Alcotest.fail "no export.job_json timer"

let () =
  Alcotest.run "obs"
    [
      ( "perfetto",
        [
          Alcotest.test_case "events" `Quick test_perfetto_events;
          Alcotest.test_case "round-trips" `Quick test_perfetto_round_trips;
        ] );
      ( "drift",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "identical passes" `Quick
            test_drift_identical_passes;
          Alcotest.test_case "cycle regression fails" `Quick
            test_drift_cycle_regression_fails;
          Alcotest.test_case "improvement passes" `Quick
            test_drift_improvement_passes;
          Alcotest.test_case "higher-better direction" `Quick
            test_drift_higher_better;
          Alcotest.test_case "wall band loose" `Quick
            test_drift_wall_band_loose;
          Alcotest.test_case "missing metric fails" `Quick
            test_drift_missing_metric_fails;
        ] );
      ( "profile",
        [
          Alcotest.test_case "report schema" `Quick test_profile_report;
          Alcotest.test_case "job json timer" `Quick test_job_json_timer;
        ] );
    ]
