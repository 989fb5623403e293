module Tel = Qec_telemetry.Telemetry
module Col = Qec_telemetry.Collector
module Stats = Qec_util.Stats
module TP = Qec_util.Tableprint
module Json = Qec_report.Json

type stats = { min_s : float; median_s : float; p95_s : float }

type phase_row = {
  phase : string;
  calls : int;
  total : stats;
  self : stats;
}

type timer_row = { timer : string; calls : float; seconds : float }

type t = {
  runs : int;
  jobs : int;
  specs : int;
  jobs_ok : int;
  jobs_failed : int;
  errors : (int * string * string) list;
  wall : stats;
  phases : phase_row list;
  timers : timer_row list;
}

let stats_of = function
  | [] -> { min_s = 0.; median_s = 0.; p95_s = 0. }
  | xs ->
    let min_s, _ = Stats.min_max xs in
    {
      min_s;
      median_s = Stats.percentile 50. xs;
      p95_s = Stats.percentile 95. xs;
    }

(* The failed jobs of one run as (index, circuit, engine message). *)
let failures jobs =
  List.filter_map
    (fun (j : Qec_engine.Engine_core.job) ->
      match j.outcome with
      | Ok _ -> None
      | Error e -> Some (j.index, j.spec.circuit, e.message))
    jobs

let run ?jobs ~repeat specs =
  let repeat = max 1 repeat in
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Qec_util.Parallel.default_jobs ()
  in
  let measured =
    List.init repeat (fun _ ->
        let c = Col.create () in
        let t0 = Unix.gettimeofday () in
        let failed =
          failures
            (Tel.with_sink (Col.sink c) (fun () ->
                 Qec_engine.Engine.run_batch ~jobs specs))
        in
        (Unix.gettimeofday () -. t0, c, failed))
  in
  let walls = List.map (fun (w, _, _) -> w) measured in
  let collectors = List.map (fun (_, c, _) -> c) measured in
  let _, _, errors = List.nth measured (repeat - 1) in
  let per_run = List.map Col.phases collectors in
  (* Union of phase names across runs, each with per-run total/self series
     (a phase absent from a run simply contributes no sample). *)
  let names =
    List.concat_map (List.map (fun p -> p.Col.phase_name)) per_run
    |> List.sort_uniq compare
  in
  let phases =
    List.map
      (fun name ->
        let hits =
          List.filter_map
            (fun ps -> List.find_opt (fun p -> p.Col.phase_name = name) ps)
            per_run
        in
        {
          phase = name;
          calls =
            List.fold_left (fun acc p -> max acc p.Col.calls) 0 hits;
          total = stats_of (List.map (fun p -> p.Col.total_s) hits);
          self = stats_of (List.map (fun p -> p.Col.self_s) hits);
        })
      names
  in
  (* Timers: per name, the median over runs of its calls and summed
     seconds (a run that never hit the timer contributes no sample). *)
  let per_run_timers = List.map Col.timers collectors in
  let timers =
    List.concat_map (List.map (fun (name, _, _) -> name)) per_run_timers
    |> List.sort_uniq compare
    |> List.map (fun name ->
           let hits =
             List.filter_map
               (List.find_opt (fun (n, _, _) -> n = name))
               per_run_timers
           in
           {
             timer = name;
             calls =
               Stats.percentile 50.
                 (List.map (fun (_, c, _) -> float_of_int c) hits);
             seconds = Stats.percentile 50. (List.map (fun (_, _, s) -> s) hits);
           })
  in
  let last = List.nth collectors (repeat - 1) in
  ( {
      runs = repeat;
      jobs;
      specs = List.length specs;
      jobs_ok = Col.counter last "engine.jobs_ok";
      jobs_failed = Col.counter last "engine.jobs_failed";
      errors;
      wall = stats_of walls;
      phases;
      timers;
    },
    last )

let stats_json s =
  Json.Obj
    [
      ("min_s", Json.Float s.min_s);
      ("median_s", Json.Float s.median_s);
      ("p95_s", Json.Float s.p95_s);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "autobraid-profile/v1");
      ("runs", Json.Int t.runs);
      ("jobs", Json.Int t.jobs);
      ("specs", Json.Int t.specs);
      ("jobs_ok", Json.Int t.jobs_ok);
      ("jobs_failed", Json.Int t.jobs_failed);
      ("wall_s", stats_json t.wall);
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.String p.phase);
                   ("calls", Json.Int p.calls);
                   ("total_s", stats_json p.total);
                   ("self_s", stats_json p.self);
                 ])
             t.phases) );
      ( "timers",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.timer);
                   ("calls_median", Json.Float r.calls);
                   ("seconds_median", Json.Float r.seconds);
                 ])
             t.timers) );
    ]

let print t =
  Printf.printf "%d run%s x %d spec%s on %d worker%s: wall %.4f s median \
                 (min %.4f, p95 %.4f); %d ok, %d failed\n\n"
    t.runs
    (if t.runs = 1 then "" else "s")
    t.specs
    (if t.specs = 1 then "" else "s")
    t.jobs
    (if t.jobs = 1 then "" else "s")
    t.wall.median_s t.wall.min_s t.wall.p95_s t.jobs_ok t.jobs_failed;
  let tbl =
    TP.create
      ~headers:
        [
          ("phase", TP.Left);
          ("calls", TP.Right);
          ("total med (s)", TP.Right);
          ("total p95 (s)", TP.Right);
          ("self med (s)", TP.Right);
          ("self p95 (s)", TP.Right);
        ]
  in
  let by_self =
    List.sort (fun a b -> compare b.self.median_s a.self.median_s) t.phases
  in
  List.iter
    (fun p ->
      TP.add_row tbl
        [
          p.phase;
          string_of_int p.calls;
          Printf.sprintf "%.4f" p.total.median_s;
          Printf.sprintf "%.4f" p.total.p95_s;
          Printf.sprintf "%.4f" p.self.median_s;
          Printf.sprintf "%.4f" p.self.p95_s;
        ])
    by_self;
  TP.print tbl;
  if t.timers <> [] then begin
    print_newline ();
    let tbl =
      TP.create
        ~headers:
          [
            ("timer", TP.Left);
            ("calls med", TP.Right);
            ("seconds med", TP.Right);
          ]
    in
    List.iter
      (fun r ->
        TP.add_row tbl
          [ r.timer; Printf.sprintf "%g" r.calls; Printf.sprintf "%.6f" r.seconds ])
      t.timers;
    TP.print tbl
  end
