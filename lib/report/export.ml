module S = Autobraid.Scheduler
module Trace = Autobraid.Trace
module Task = Autobraid.Task

let result_to_json (r : S.result) =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("num_qubits", Json.Int r.num_qubits);
      ("num_gates", Json.Int r.num_gates);
      ("num_two_qubit", Json.Int r.num_two_qubit);
      ("lattice_side", Json.Int r.lattice_side);
      ("total_cycles", Json.Int r.total_cycles);
      ("rounds", Json.Int r.rounds);
      ("braid_rounds", Json.Int r.braid_rounds);
      ("swap_layers", Json.Int r.swap_layers);
      ("swaps_inserted", Json.Int r.swaps_inserted);
      ("critical_path_cycles", Json.Int r.critical_path_cycles);
      ("avg_utilization", Json.Float r.avg_utilization);
      ("peak_utilization", Json.Float r.peak_utilization);
      ("compile_time_s", Json.Float r.compile_time_s);
    ]

let results_to_json labelled =
  Json.Obj (List.map (fun (label, r) -> (label, result_to_json r)) labelled)

let round_to_json (round : Trace.round) =
  match round with
  | Trace.Local { gates } ->
    Json.Obj
      [
        ("kind", Json.String "local");
        ("gates", Json.List (List.map (fun g -> Json.Int g) gates));
      ]
  | Trace.Braid { braids; locals } ->
    Json.Obj
      [
        ("kind", Json.String "braid");
        ( "braids",
          Json.List
            (List.map
               (fun ((t : Task.t), path) ->
                 Json.Obj
                   [
                     ("gate", Json.Int t.id);
                     ("q1", Json.Int t.q1);
                     ("q2", Json.Int t.q2);
                     ("path_vertices", Json.Int (Qec_lattice.Path.length path));
                   ])
               braids) );
        ("locals", Json.List (List.map (fun g -> Json.Int g) locals));
      ]
  | Trace.Swap_layer { swaps } ->
    Json.Obj
      [
        ("kind", Json.String "swap_layer");
        ( "swaps",
          Json.List
            (List.map
               (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
               swaps) );
      ]
  | Trace.Merge { merges; locals; split_overlapped } ->
    Json.Obj
      [
        ("kind", Json.String "merge");
        ( "merges",
          Json.List
            (List.map
               (fun ((t : Task.t), path) ->
                 Json.Obj
                   [
                     ("gate", Json.Int t.id);
                     ("q1", Json.Int t.q1);
                     ("q2", Json.Int t.q2);
                     ("path_vertices", Json.Int (Qec_lattice.Path.length path));
                   ])
               merges) );
        ("locals", Json.List (List.map (fun g -> Json.Int g) locals));
        ("split_overlapped", Json.Bool split_overlapped);
      ]

let trace_to_json ?max_rounds (trace : Trace.t) =
  let rounds = trace.Trace.rounds in
  let shown =
    match max_rounds with
    | None -> rounds
    | Some k -> List.filteri (fun i _ -> i < k) rounds
  in
  Json.Obj
    [
      ("circuit", Json.String (Qec_circuit.Circuit.name trace.Trace.circuit));
      ("grid_side", Json.Int (Qec_lattice.Grid.side trace.Trace.grid));
      ("num_rounds", Json.Int (Trace.num_rounds trace));
      ("swap_count", Json.Int (Trace.swap_count trace));
      ( "initial_cells",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) trace.Trace.initial_cells))
      );
      ("rounds", Json.List (List.map round_to_json shown));
    ]

let exposure_to_json ~d (e : Autobraid.Reliability.exposure) =
  Json.Obj
    [
      ("d", Json.Int d);
      ("data_blocks", Json.Float e.Autobraid.Reliability.data_blocks);
      ("routing_blocks", Json.Float e.Autobraid.Reliability.routing_blocks);
      ( "failure_probability",
        Json.Float (Autobraid.Reliability.failure_probability ~d e) );
    ]

let backend_outcome_to_json ?max_rounds timing
    (o : Autobraid.Comm_backend.outcome) =
  let d = timing.Qec_surface.Timing.d in
  let exposure = Autobraid.Reliability.exposure_of_result timing o.result in
  Json.Obj
    [
      ("backend", Json.String o.Autobraid.Comm_backend.backend);
      ("result", result_to_json o.result);
      ( "backend_stats",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.stats) );
      ("trace", trace_to_json ?max_rounds o.trace);
      ("exposure", exposure_to_json ~d exposure);
    ]

let metrics_members records =
  let module Tel = Qec_telemetry.Telemetry in
  let hist_obj (h : Tel.histogram) =
    Json.Obj
      [
        ("name", Json.String h.hist_name);
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min_v);
        ("max", Json.Float h.max_v);
        ("mean", Json.Float h.mean);
        ("p50", Json.Float h.p50);
        ("p95", Json.Float h.p95);
      ]
  in
  let pick f = List.filter_map f records in
  [
    ( "counters",
      Json.Obj
        (pick (function
          | Tel.Counter { name; value } -> Some (name, Json.Int value)
          | _ -> None)) );
    ( "gauges",
      Json.Obj
        (pick (function
          | Tel.Gauge { name; value } -> Some (name, Json.Float value)
          | _ -> None)) );
    ( "histograms",
      Json.List
        (pick (function Tel.Histogram h -> Some (hist_obj h) | _ -> None)) );
  ]

let telemetry_to_json collector =
  let module Tel = Qec_telemetry.Telemetry in
  let module Col = Qec_telemetry.Collector in
  let span_obj (s : Tel.span) =
    Json.Obj
      [
        ("name", Json.String s.span_name);
        ("depth", Json.Int s.depth);
        ("domain", Json.Int s.domain);
        ("worker", Json.Int s.worker);
        ("start_s", Json.Float s.start_s);
        ("total_s", Json.Float s.total_s);
        ("self_s", Json.Float s.self_s);
      ]
  in
  let timer_obj (name, calls, total_s) =
    ( name,
      Json.Obj [ ("calls", Json.Int calls); ("total_s", Json.Float total_s) ] )
  in
  let phase_obj (p : Col.phase) =
    Json.Obj
      [
        ("name", Json.String p.phase_name);
        ("calls", Json.Int p.calls);
        ("total_s", Json.Float p.total_s);
        ("self_s", Json.Float p.self_s);
      ]
  in
  Json.Obj
    (metrics_members (Col.records collector)
    @ [
        ("timers", Json.Obj (List.map timer_obj (Col.timers collector)));
        ("spans", Json.List (List.map span_obj (Col.spans collector)));
        ("phases", Json.List (List.map phase_obj (Col.phases collector)));
      ])

let coupling_to_dot coupling =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph coupling {\n  node [shape=circle];\n";
  for q = 0 to Qec_circuit.Coupling.num_qubits coupling - 1 do
    Buffer.add_string buf (Printf.sprintf "  q%d;\n" q)
  done;
  List.iter
    (fun (a, b, w) ->
      Buffer.add_string buf
        (Printf.sprintf "  q%d -- q%d [label=\"%d\"];\n" a b w))
    (Qec_circuit.Coupling.edges coupling);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let interference_to_dot placement tasks =
  let ig = Autobraid.Interference.build placement tasks in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph interference {\n  node [shape=box];\n";
  List.iter
    (fun (t : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  cx%d [label=\"cx%d(q%d,q%d) deg=%d\"];\n" t.id t.id
           t.q1 t.q2
           (Autobraid.Interference.degree ig t.id)))
    (Autobraid.Interference.nodes ig);
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (fun (u : Task.t) ->
          if t.id < u.id then
            Buffer.add_string buf (Printf.sprintf "  cx%d -- cx%d;\n" t.id u.id))
        (Autobraid.Interference.neighbors ig t.id))
    (Autobraid.Interference.nodes ig);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let p_curve_to_csv timing curve =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "p,cycles,time_us,rounds,swaps\n";
  List.iter
    (fun (p, (r : S.result)) ->
      Buffer.add_string buf
        (Printf.sprintf "%.1f,%d,%.1f,%d,%d\n" p r.total_cycles
           (S.time_us timing r)
           r.rounds r.swaps_inserted))
    curve;
  Buffer.contents buf

let diagnostic_to_json (d : Qec_lint.Diagnostic.t) =
  let line, col =
    match d.pos with
    | Some { Qec_qasm.Ast.line; col } -> (line, col)
    | None -> (0, 0)
  in
  Json.Obj
    ([
       ("code", Json.String d.code);
       ("severity", Json.String (Qec_lint.Diagnostic.severity_to_string d.severity));
       ("file", Json.String d.file);
       ("line", Json.Int line);
       ("col", Json.Int col);
       ("message", Json.String d.message);
     ]
    @ match d.context with
      | None -> []
      | Some c -> [ ("context", Json.String c) ])

let diagnostics_to_json ds = Json.List (List.map diagnostic_to_json ds)

let certificate_to_json (c : Qec_verify.Certifier.t) =
  let module Cert = Qec_verify.Certifier in
  let module Inv = Qec_verify.Invariant in
  let witness_to_json (w : Cert.witness) =
    Json.Obj
      ([]
      @ (match w.round with
        | Some r -> [ ("round", Json.Int r) ]
        | None -> [])
      @ (match w.gate with Some g -> [ ("gate", Json.Int g) ] | None -> [])
      @ [ ("detail", Json.String w.detail) ])
  in
  let invariant_to_json inv =
    let ws = Cert.witnesses_for c inv in
    Json.Obj
      ([
         ("id", Json.String (Inv.id inv));
         ("title", Json.String (Inv.title inv));
         ("status", Json.String (if ws = [] then "pass" else "fail"));
       ]
      @
      if ws = [] then []
      else [ ("witnesses", Json.List (List.map witness_to_json ws)) ])
  in
  Json.Obj
    [
      ("schema", Json.String "autobraid-cert/v1");
      ("circuit", Json.String c.Cert.circuit_name);
      ( "backend",
        match c.Cert.backend with
        | Some b -> Json.String b
        | None -> Json.Null );
      ("num_gates", Json.Int c.Cert.num_gates);
      ("num_rounds", Json.Int c.Cert.num_rounds);
      ( "cycles",
        Json.Obj
          [
            ("computed", Json.Int c.Cert.cycles_computed);
            ("traced", Json.Int c.Cert.cycles_traced);
            ( "reported",
              match c.Cert.cycles_reported with
              | Some n -> Json.Int n
              | None -> Json.Null );
          ] );
      ("ok", Json.Bool (Cert.ok c));
      ("invariants", Json.List (List.map invariant_to_json Inv.all));
    ]
