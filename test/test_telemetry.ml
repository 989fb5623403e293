(* Qec_telemetry: counter/gauge/sample accumulation, span nesting and
   self-time accounting (under an injected fake clock), JSONL golden
   output, and the guarantee that instrumentation never changes scheduler
   results. *)

module Tel = Qec_telemetry.Telemetry
module Collector = Qec_telemetry.Collector
module Jsonl = Qec_telemetry.Jsonl

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* A manual clock: tests advance [now] explicitly, so span timings are
   exact and JSONL output is byte-stable. *)
let manual_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun t -> now := t)

let with_collector ?clock f =
  let c = Collector.create () in
  Tel.with_sink ?clock (Collector.sink c) f;
  c

let test_disabled_noops () =
  Alcotest.(check bool) "disabled" false (Tel.enabled ());
  (* All probes must be silent no-ops without a sink. *)
  Tel.count "x";
  Tel.gauge "x" 1.;
  Tel.sample "x" 1.;
  Tel.span_open "x";
  Tel.span_close ();
  check_int "with_span passthrough" 7 (Tel.with_span "x" (fun () -> 7));
  Tel.flush ();
  Tel.uninstall ()

let test_counters () =
  let c =
    with_collector (fun () ->
        Alcotest.(check bool) "enabled" true (Tel.enabled ());
        Tel.count "a";
        Tel.count ~by:4 "a";
        Tel.count "b";
        Tel.count ~by:0 "zero")
  in
  check_int "a" 5 (Collector.counter c "a");
  check_int "b" 1 (Collector.counter c "b");
  check_int "zero" 0 (Collector.counter c "zero");
  check_int "absent" 0 (Collector.counter c "never")

let test_gauges_and_samples () =
  let c =
    with_collector (fun () ->
        Tel.gauge "g" 1.5;
        Tel.gauge "g" 2.5;
        List.iter (Tel.sample "s") [ 1.; 2.; 3.; 4. ])
  in
  check_float "gauge last-write-wins" 2.5
    (Option.get (Collector.gauge_opt c "g"));
  let h = Option.get (Collector.histogram_opt c "s") in
  check_int "count" 4 h.Tel.count;
  check_float "sum" 10. h.Tel.sum;
  check_float "mean" 2.5 h.Tel.mean;
  check_float "min" 1. h.Tel.min_v;
  check_float "max" 4. h.Tel.max_v;
  check_float "p50" 2. h.Tel.p50;
  check_float "p95" 4. h.Tel.p95

let test_span_nesting () =
  let clock, set = manual_clock () in
  let c =
    with_collector ~clock (fun () ->
        Tel.span_open "outer";
        set 1.;
        Tel.span_open "inner";
        set 3.;
        Tel.span_close ();
        (* 2s of dead time attributed to outer's self, not inner. *)
        set 6.;
        Tel.span_close ())
  in
  match Collector.spans c with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner name" "inner" inner.Tel.span_name;
    check_int "inner depth" 1 inner.Tel.depth;
    check_float "inner start" 1. inner.Tel.start_s;
    check_float "inner total" 2. inner.Tel.total_s;
    check_float "inner self" 2. inner.Tel.self_s;
    Alcotest.(check string) "outer name" "outer" outer.Tel.span_name;
    check_int "outer depth" 0 outer.Tel.depth;
    check_float "outer total" 6. outer.Tel.total_s;
    check_float "outer self" 4. outer.Tel.self_s
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_phase_aggregation () =
  let clock, set = manual_clock () in
  let c =
    with_collector ~clock (fun () ->
        Tel.span_open "route";
        set 2.;
        Tel.span_close ();
        Tel.span_open "route";
        set 5.;
        Tel.span_close ())
  in
  match Collector.phases c with
  | [ p ] ->
    Alcotest.(check string) "phase" "route" p.Collector.phase_name;
    check_int "calls" 2 p.Collector.calls;
    check_float "total" 5. p.Collector.total_s;
    check_float "self" 5. p.Collector.self_s
  | ps -> Alcotest.failf "expected 1 phase, got %d" (List.length ps)

let test_unbalanced_close_ignored () =
  let c =
    with_collector (fun () ->
        Tel.span_close ();
        (* no open span: ignored *)
        Tel.count "after")
  in
  check_int "still records" 1 (Collector.counter c "after");
  check_int "no spans" 0 (List.length (Collector.spans c))

let test_with_span_exception () =
  let clock, set = manual_clock () in
  let c = Collector.create () in
  (try
     Tel.with_sink ~clock (Collector.sink c) (fun () ->
         Tel.with_span "raises" (fun () ->
             set 4.;
             failwith "boom"))
   with Failure _ -> ());
  match Collector.spans c with
  | [ s ] ->
    Alcotest.(check string) "span closed on raise" "raises" s.Tel.span_name;
    check_float "total" 4. s.Tel.total_s
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* [f] raises with a child span still open: the abandoned child must be
   closed first, then exactly the with_span frame — outer spans keep
   consistent self-time and the stack is not over-popped. *)
let test_with_span_abandoned_children () =
  let clock, set = manual_clock () in
  let c = Collector.create () in
  (try
     Tel.with_sink ~clock (Collector.sink c) (fun () ->
         Tel.with_span "outer" (fun () ->
             Tel.with_span "mid" (fun () ->
                 set 1.;
                 Tel.span_open "dangling";
                 set 3.;
                 failwith "boom")))
   with Failure _ -> ());
  match Collector.spans c with
  | [ dangling; mid; outer ] ->
    Alcotest.(check string) "dangling closed" "dangling" dangling.Tel.span_name;
    check_int "dangling depth" 2 dangling.Tel.depth;
    check_float "dangling total" 2. dangling.Tel.total_s;
    Alcotest.(check string) "mid closed" "mid" mid.Tel.span_name;
    check_float "mid total" 3. mid.Tel.total_s;
    check_float "mid self" 1. mid.Tel.self_s;
    Alcotest.(check string) "outer closed" "outer" outer.Tel.span_name;
    check_float "outer total" 3. outer.Tel.total_s;
    check_float "outer self" 0. outer.Tel.self_s
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

(* Nested and repeated spans: phase aggregation sums calls/total/self per
   name and orders by descending self-time. *)
let test_phase_self_time_math () =
  let clock, set = manual_clock () in
  let c =
    with_collector ~clock (fun () ->
        Tel.with_span "a" (fun () ->
            set 1.;
            Tel.with_span "b" (fun () -> set 3.);
            set 4.);
        Tel.with_span "b" (fun () -> set 6.))
  in
  match Collector.phases c with
  | [ b; a ] ->
    Alcotest.(check string) "b first (more self)" "b" b.Collector.phase_name;
    check_int "b calls" 2 b.Collector.calls;
    check_float "b total" 4. b.Collector.total_s;
    check_float "b self" 4. b.Collector.self_s;
    Alcotest.(check string) "a second" "a" a.Collector.phase_name;
    check_int "a calls" 1 a.Collector.calls;
    check_float "a total" 4. a.Collector.total_s;
    check_float "a self" 2. a.Collector.self_s
  | ps -> Alcotest.failf "expected 2 phases, got %d" (List.length ps)

(* ---------------- multi-domain merge ---------------- *)

(* Every spawned worker in run_workers reports under its own
   (domain, worker) lane; spans merge at join grouped by worker id, and
   counters sum across domains. *)
let test_worker_lanes_and_merge () =
  let c =
    with_collector ~clock:(fun () -> 0.) (fun () ->
        Qec_util.Parallel.run_workers ~jobs:3 (fun id ->
            Tel.with_span "work" (fun () -> Tel.count ~by:(id + 1) "units")))
  in
  check_int "counters sum across domains" 6 (Collector.counter c "units");
  let spans = Collector.spans c in
  check_int "one span per worker" 3 (List.length spans);
  let lanes = Collector.lanes c in
  check_int "three distinct lanes" 3 (List.length lanes);
  let workers = List.map snd lanes |> List.sort_uniq compare in
  Alcotest.(check (list int)) "worker ids" [ 0; 1; 2 ] workers;
  (* Root spans stream before the workers' buffers drain at flush, and
     worker buffers drain ordered by worker id. *)
  let span_workers = List.map (fun (s : Tel.span) -> s.Tel.worker) spans in
  Alcotest.(check (list int)) "merge order by worker id" [ 0; 1; 2 ]
    span_workers

(* Aggregate timers: calls and summed clock time per name, counted when
   the body raises too, summed across worker domains, one record per name
   at flush and none per call. *)
let test_timers () =
  check_int "disabled passthrough" 3 (Tel.timed "t" (fun () -> 3));
  let clock, set = manual_clock () in
  let advance dt = set (clock () +. dt) in
  let buf = Buffer.create 64 in
  let c = Collector.create () in
  Tel.with_sink ~clock
    (Tel.tee [ Collector.sink c; Jsonl.sink (Buffer.add_string buf) ])
    (fun () ->
      check_int "result" 7 (Tel.timed "plan" (fun () -> advance 2.; 7));
      Tel.timed "plan" (fun () -> advance 0.5);
      (try Tel.timed "plan" (fun () -> advance 1.; failwith "boom")
       with Failure _ -> ());
      Tel.timed "apply" (fun () -> advance 4.));
  Alcotest.(check (list (triple string int (float 1e-9))))
    "one aggregate per name" [ ("apply", 1, 4.); ("plan", 3, 3.5) ]
    (Collector.timers c);
  check_int "no spans" 0 (List.length (Collector.spans c));
  Alcotest.(check string) "jsonl, sorted by name"
    ({|{"type":"timer","name":"apply","calls":1,"total_s":4.0}|} ^ "\n"
   ^ {|{"type":"timer","name":"plan","calls":3,"total_s":3.5}|} ^ "\n")
    (Buffer.contents buf);
  let c =
    with_collector ~clock:(fun () -> 0.) (fun () ->
        Qec_util.Parallel.run_workers ~jobs:3 (fun id ->
            for _ = 0 to id do
              Tel.timed "work" ignore
            done))
  in
  Alcotest.(check (list (triple string int (float 0.))))
    "calls sum across domains" [ ("work", 6, 0.) ] (Collector.timers c)

(* Cross-domain gauge rule: the root's value wins, else the lowest worker
   id — deterministic regardless of which domain merged last. *)
let test_gauge_merge_deterministic () =
  let c =
    with_collector ~clock:(fun () -> 0.) (fun () ->
        Qec_util.Parallel.run_workers ~jobs:4 (fun id ->
            if id > 0 then Tel.gauge "wg" (float_of_int id);
            if id = 0 then Tel.gauge "rg" 99.))
  in
  check_float "lowest worker wins" 1. (Option.get (Collector.gauge_opt c "wg"));
  check_float "root gauge untouched" 99.
    (Option.get (Collector.gauge_opt c "rg"));
  (* Same gauge set by root AND workers: root wins. *)
  let c2 =
    with_collector ~clock:(fun () -> 0.) (fun () ->
        Qec_util.Parallel.run_workers ~jobs:3 (fun id ->
            Tel.gauge "g" (float_of_int (10 + id))))
  in
  check_float "root beats workers" 10. (Option.get (Collector.gauge_opt c2 "g"))

(* The tally alone: merge sums counters and timers, keeps the lower
   rank's gauge whatever the merge order, and folds series moments
   exactly; a windowed series keeps only its most recent samples for
   percentiles, also across a merge. *)
let test_tally_merge_and_window () =
  let module T = Tel.Tally in
  let root = T.create () and w1 = T.create ~rank:1 ()
  and w2 = T.create ~rank:2 () in
  T.count root "c";
  T.count ~by:2 w1 "c";
  T.count ~by:3 w2 "c";
  T.gauge w2 "g" 2.;
  T.gauge w1 "g" 1.;
  T.gauge root "r" 0.;
  T.gauge w1 "r" 1.;
  List.iter (T.sample w1 "s") [ 5.; 1. ];
  T.sample w2 "s" 3.;
  T.time w1 "t" 0.5;
  T.time w2 "t" 0.25;
  let pending = T.create () in
  T.merge ~into:pending w2;
  T.merge ~into:pending w1;
  T.merge ~into:root pending;
  Alcotest.(check bool)
    "merged records, sorted by kind then name" true
    (T.records root
    = [
        Tel.Counter { name = "c"; value = 6 };
        Tel.Gauge { name = "g"; value = 1. };
        Tel.Gauge { name = "r"; value = 0. };
        Tel.Histogram
          {
            hist_name = "s";
            count = 3;
            sum = 9.;
            min_v = 1.;
            max_v = 5.;
            mean = 3.;
            p50 = 3.;
            p95 = 5.;
          };
        Tel.Timer { name = "t"; calls = 2; total_s = 0.75 };
      ]);
  T.reset root;
  check_int "reset" 0 (List.length (T.records root));
  (* 100 samples past the window: 1, 2, ..., window + 100 *)
  let w = T.window and past = 100 in
  let worker = T.create ~rank:1 () in
  for i = 1 to w + past do
    T.sample worker "s" (float_of_int i)
  done;
  let hist t =
    match T.records t with
    | [ Tel.Histogram h ] -> h
    | _ -> Alcotest.fail "expected one histogram"
  in
  (* nearest rank over the newest window, past + 1 .. past + w *)
  let p50 = float_of_int (past + (w / 2))
  and p95 = float_of_int (past + int_of_float (Float.ceil (0.95 *. float_of_int w))) in
  let n = w + past in
  let h = hist worker in
  check_int "window" 16384 w;
  check_int "count exact" n h.Tel.count;
  check_float "sum exact" (float_of_int (n * (n + 1) / 2)) h.Tel.sum;
  check_float "min exact" 1. h.Tel.min_v;
  check_float "max exact" (float_of_int n) h.Tel.max_v;
  check_float "p50 over the newest window" p50 h.Tel.p50;
  check_float "p95 over the newest window" p95 h.Tel.p95;
  (* a worker merge appends the worker's kept samples after the root's
     own, so the root's older sample leaves the window *)
  let into = T.create () in
  T.sample into "s" 0.;
  T.merge ~into worker;
  let h = hist into in
  check_int "merged count exact" (n + 1) h.Tel.count;
  check_float "merged sum exact" (float_of_int (n * (n + 1) / 2)) h.Tel.sum;
  check_float "merged min exact" 0. h.Tel.min_v;
  check_float "merged max exact" (float_of_int n) h.Tel.max_v;
  check_float "merged p50 over the newest window" p50 h.Tel.p50;
  check_float "merged p95 over the newest window" p95 h.Tel.p95

(* Aggregate telemetry of a map_jobs run is identical for any worker
   count >= 2 under a constant clock (jobs=1 short-circuits to List.map
   with no pool, hence no pool telemetry). *)
let test_merge_determinism_across_jobs () =
  let xs = List.init 12 Fun.id in
  let run jobs =
    let c = Collector.create () in
    Tel.with_sink
      ~clock:(fun () -> 0.)
      (Collector.sink c)
      (fun () ->
        let ys = Qec_util.Parallel.map_jobs ~jobs (fun x -> x * x) xs in
        Alcotest.(check (list int))
          "results in order"
          (List.map (fun x -> x * x) xs)
          ys);
    c
  in
  let view c =
    ( ( Collector.counters c,
        List.map
          (fun p ->
            (p.Collector.phase_name, p.Collector.calls, p.Collector.total_s))
          (Collector.phases c) ),
      ( List.length (Collector.spans c),
        (Option.get (Collector.histogram_opt c "parallel.job_s")).Tel.count ) )
  in
  let v2 = view (run 2) and v4 = view (run 4) in
  let pp =
    Alcotest.(
      pair
        (pair (list (pair string int))
           (list (triple string int (float 1e-9))))
        (pair int int))
  in
  Alcotest.check pp "jobs=2 and jobs=4 aggregates agree" v2 v4;
  let (counters, _), (span_count, job_samples) = v2 in
  check_int "every item sampled" 12 job_samples;
  check_int "every item spanned" 12 span_count;
  check_int "parallel.jobs counter" 12
    (Option.value ~default:0 (List.assoc_opt "parallel.jobs" counters))

let test_jsonl_golden () =
  let clock, set = manual_clock () in
  let buf = Buffer.create 256 in
  Tel.with_sink ~clock
    (Jsonl.sink (Buffer.add_string buf))
    (fun () ->
      Tel.count "alpha";
      Tel.count ~by:2 "alpha";
      Tel.gauge "beta" 0.5;
      Tel.sample "gamma" 1.;
      Tel.sample "gamma" 3.;
      Tel.span_open "outer";
      set 1.;
      Tel.span_open "inner";
      set 3.;
      Tel.span_close ();
      set 6.;
      Tel.span_close ());
  (* The test runs on the process's main domain (id 0), worker 0; floats
     use the shared shortest-round-trip printer ("2.0", not "2"). *)
  let expected =
    String.concat "\n"
      [
        {|{"type":"span","name":"inner","depth":1,"domain":0,"worker":0,"start_s":1.0,"total_s":2.0,"self_s":2.0}|};
        {|{"type":"span","name":"outer","depth":0,"domain":0,"worker":0,"start_s":0.0,"total_s":6.0,"self_s":4.0}|};
        {|{"type":"counter","name":"alpha","value":3}|};
        {|{"type":"gauge","name":"beta","value":0.5}|};
        {|{"type":"histogram","name":"gamma","count":2,"sum":4.0,"min":1.0,"max":3.0,"mean":2.0,"p50":1.0,"p95":3.0}|};
        "";
      ]
  in
  Alcotest.(check string) "golden JSONL" expected (Buffer.contents buf)

let test_jsonl_escaping () =
  let line =
    Jsonl.line (Tel.Counter { name = "we\"ird\\name\n"; value = 1 })
  in
  Alcotest.(check string) "escaped"
    {|{"type":"counter","name":"we\"ird\\name\n","value":1}|} line

let test_tee_and_null () =
  let c1 = Collector.create () and c2 = Collector.create () in
  Tel.with_sink
    (Tel.tee [ Collector.sink c1; Tel.null; Collector.sink c2 ])
    (fun () -> Tel.count "x");
  check_int "first sink" 1 (Collector.counter c1 "x");
  check_int "second sink" 1 (Collector.counter c2 "x")

let test_nested_with_sink () =
  let outer = Collector.create () in
  let inner = Collector.create () in
  Tel.with_sink (Collector.sink outer) (fun () ->
      Tel.count "before";
      Tel.with_sink (Collector.sink inner) (fun () -> Tel.count "during");
      Tel.count "after");
  check_int "inner got during" 1 (Collector.counter inner "during");
  check_int "inner only during" 0 (Collector.counter inner "before");
  check_int "outer before" 1 (Collector.counter outer "before");
  check_int "outer after" 1 (Collector.counter outer "after")

(* Enabling telemetry must not perturb scheduling: same circuit, same
   seed, bit-identical result with and without a sink. *)
let test_scheduler_determinism () =
  let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
  let circuit = Qec_benchmarks.Qft.circuit 50 in
  let bare = Autobraid.Scheduler.run timing circuit in
  let c = Collector.create () in
  let instrumented =
    Tel.with_sink (Collector.sink c) (fun () ->
        Autobraid.Scheduler.run timing circuit)
  in
  check_int "total_cycles" bare.Autobraid.Scheduler.total_cycles
    instrumented.Autobraid.Scheduler.total_cycles;
  check_int "swaps_inserted" bare.Autobraid.Scheduler.swaps_inserted
    instrumented.Autobraid.Scheduler.swaps_inserted;
  check_int "rounds" bare.Autobraid.Scheduler.rounds
    instrumented.Autobraid.Scheduler.rounds;
  check_int "braid_rounds" bare.Autobraid.Scheduler.braid_rounds
    instrumented.Autobraid.Scheduler.braid_rounds;
  (* And the pipeline actually reported: one span per phase, counters. *)
  let phase_names =
    List.map (fun p -> p.Collector.phase_name) (Collector.phases c)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %s present" name)
        true
        (List.mem name phase_names))
    [ "scheduler.run"; "initial_layout"; "embed"; "layout_optimization";
      "routing_rounds" ];
  check_int "braid rounds counter" bare.Autobraid.Scheduler.braid_rounds
    (Collector.counter c "scheduler.braid_rounds");
  Alcotest.(check bool)
    "router instrumented" true
    (Collector.counter c "router.expansions" > 0)

let test_export_json () =
  let clock, set = manual_clock () in
  let c =
    with_collector ~clock (fun () ->
        Tel.count "hits";
        Tel.sample "len" 2.;
        Tel.span_open "phase";
        set 1.;
        Tel.span_close ())
  in
  let json = Qec_report.Json.to_string (Qec_report.Export.telemetry_to_json c) in
  let has needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub json i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
        (has needle))
    [ {|"counters"|}; {|"hits":1|}; {|"histograms"|}; {|"spans"|};
      {|"phases"|}; {|"phase"|} ]

let () =
  Alcotest.run "telemetry"
    [
      ( "frontend",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_noops;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges and samples" `Quick
            test_gauges_and_samples;
          Alcotest.test_case "span nesting self/total" `Quick
            test_span_nesting;
          Alcotest.test_case "phase aggregation" `Quick test_phase_aggregation;
          Alcotest.test_case "unbalanced close" `Quick
            test_unbalanced_close_ignored;
          Alcotest.test_case "with_span on exception" `Quick
            test_with_span_exception;
          Alcotest.test_case "with_span abandoned children" `Quick
            test_with_span_abandoned_children;
          Alcotest.test_case "phase self-time math" `Quick
            test_phase_self_time_math;
          Alcotest.test_case "nested with_sink" `Quick test_nested_with_sink;
        ] );
      ( "domains",
        [
          Alcotest.test_case "worker lanes and merge" `Quick
            test_worker_lanes_and_merge;
          Alcotest.test_case "timers" `Quick test_timers;
          Alcotest.test_case "gauge merge deterministic" `Quick
            test_gauge_merge_deterministic;
          Alcotest.test_case "merge determinism across jobs" `Quick
            test_merge_determinism_across_jobs;
          Alcotest.test_case "tally merge and window" `Quick
            test_tally_merge_and_window;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
          Alcotest.test_case "tee and null" `Quick test_tee_and_null;
          Alcotest.test_case "export json" `Quick test_export_json;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "scheduler determinism (qft50)" `Quick
            test_scheduler_determinism;
        ] );
    ]
