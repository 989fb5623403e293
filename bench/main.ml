(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) on this reproduction.

   Usage:
     dune exec bench/main.exe                      # everything, medium sizes
     dune exec bench/main.exe -- table2            # one section
     dune exec bench/main.exe -- fig16 --full      # paper-scale sizes (slow)
     dune exec bench/main.exe -- backends --json BENCH_backends.json
     dune exec bench/main.exe -- scale --json BENCH_scale.json
     dune exec bench/main.exe -- --check BENCH_backends.json --check \
       BENCH_scale.json --tolerance 0.02    # drift gate vs committed JSON

   Sections: table1 table2 fig16 fig17 fig18 compile-time ablation planar
   backends scale scale-smoke verify all (every section but scale and
   scale-smoke). Each is one entry of [sections]: name, title, runner, and
   for the sections with a snapshot (backends scale verify) a JSON
   projection, which `--json FILE` writes (in `all`, for the first such
   section: backends).

   `scale` is the paper-size Table-2 sweep (QFT-100..400, adder, RevLib)
   of braid vs the greedy baseline, gated by `make bench-scale`.
   `scale-smoke`, the CI (`make check`) entry point, runs the scale runner
   on QFT-100 and Qec_obs.Drift-checks that entry against the committed
   BENCH_scale.json (every cycle key exact, in either direction) inside a
   wall budget (AUTOBRAID_SCALE_BUDGET_S, default 120 s).

   `--check FILE` (repeatable) re-measures the section named inside FILE
   and exits 1 if any gated metric regresses past `--tolerance` (cycle
   counts, default 2%) or `--wall-tolerance` (host timings, default
   200%) — see Qec_obs.Drift for the gating policy — or if that section
   has no snapshot. An unknown section exits 2.

   The paper reports cycle counts, and one compile-time ratio (§4.2, the
   compile-time section). Timing the compiler itself is the repository
   benchmark's job (perfbench/, declared in BENCHMARK.json), not this
   harness's.

   Absolute numbers differ from the paper (different host, regenerated
   benchmark netlists, re-implemented baseline); the claims under test are
   the orderings and rough factors — see EXPERIMENTS.md. *)

module S = Autobraid.Scheduler
module IL = Autobraid.Initial_layout
module CB = Autobraid.Comm_backend
module GP = Gp_baseline
module C = Qec_circuit.Circuit
module B = Qec_benchmarks
module J = Qec_report.Json
module TP = Qec_util.Tableprint
module T = Qec_surface.Timing

let () = Qec_engine.Engine.ensure_backends ()
let timing33 = T.make ~d:T.default_d ()
let sp_options = { S.default_options with variant = S.Sp }

let best_p ?grid_points timing c =
  S.run_best_p ?grid_points ~jobs:(Qec_util.Parallel.default_jobs ()) timing c

(* autobraid-full with the paper's p sweep, trimmed for compile time. *)
let run_full ?(grid_points = [ 0.0; 0.2; 0.4 ]) timing c =
  fst (best_p ~grid_points timing c)

let us r = S.time_us timing33 r

let cycles_ratio (a : S.result) (b : S.result) =
  float_of_int a.S.total_cycles /. float_of_int b.S.total_cycles

let times v = Printf.sprintf "%.2fx" v

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* One text table. Each column is (header, alignment, cell of a row), so a
   column's header and its cell are written once. A rule separates
   neighbouring rows whose [group] differs; [closed] adds one after the
   last row. *)
let left h cell = (h, TP.Left, cell)
let right h cell = (h, TP.Right, cell)

let print_table ?group ?(closed = false) columns rows =
  let t = TP.create ~headers:(List.map (fun (h, a, _) -> (h, a)) columns) in
  ignore
    (List.fold_left
       (fun prev row ->
         (match (group, prev) with
         | Some g, Some p when g p <> g row -> TP.add_separator t
         | _ -> ());
         TP.add_row t (List.map (fun (_, _, cell) -> cell row) columns);
         Some row)
       None rows);
  if closed then TP.add_separator t;
  TP.print t

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string ~indent:true json ^ "\n"));
  Printf.printf "\n[wrote %s]\n" path

(* Every section runs under an in-memory collector and closes with a
   per-phase self-time profile, so BENCH_*.json trajectories can attribute
   a compile-time regression to initial layout vs routing vs layout
   optimization. *)
let profiled name f =
  let c = Qec_telemetry.Collector.create () in
  let result =
    Qec_telemetry.Telemetry.with_sink (Qec_telemetry.Collector.sink c) f
  in
  Printf.printf "\n[%s: per-phase self-time]\n" name;
  Qec_telemetry.Collector.print_phases c;
  result

(* ------------------------------------------------------------------ *)
(* Table 1: impact of LLG-driven initial-layout optimization            *)

let table1_benchmarks ~full =
  [
    ("qft16", B.Qft.circuit 16);
    ("qft50", B.Qft.circuit 50);
    ("urf2", B.Building_blocks.by_name "urf2_277");
    ("IM16", B.Ising.circuit ~steps:8 16);
    ("IM10", B.Ising.circuit ~steps:13 10);
    ( "Shors",
      if full then B.Shor.circuit ~multipliers:149 ~bits:234 ()
      else B.Shor.circuit ~multipliers:40 ~bits:48 () );
    ("BTW", B.Bwt.circuit ~height:6 ());
    ("Sqrt8", B.Building_blocks.by_name "sqrt8_260");
  ]

type llg_row = {
  bench : string;
  llg_after : int;
  after : S.result;
  llg_before : int;
  before : S.result;
}

let table1 ~full =
  let row (bench, circuit) =
    let lowered = Qec_circuit.Decompose.to_scheduler_gates circuit in
    let n = C.num_qubits lowered in
    let grid =
      Qec_lattice.Grid.create
        (max 1 (Qec_surface.Resources.lattice_side ~num_logical:n))
    in
    let census method_ =
      IL.oversize_census lowered (IL.place ~method_ lowered grid)
    in
    let run_with initial =
      S.run ~options:{ sp_options with initial } timing33 lowered
    in
    let before = run_with IL.Bisected in
    let after = run_with IL.Annealed in
    let llg_after = census IL.Annealed in
    { bench; llg_after; after; llg_before = census IL.Bisected; before }
  in
  print_table
    [
      left "Benchmark" (fun r -> r.bench);
      right "#LLG>3 after" (fun r -> string_of_int r.llg_after);
      right "time after (us)" (fun r -> TP.si_cell (us r.after));
      right "#LLG>3 before" (fun r -> string_of_int r.llg_before);
      right "time before (us)" (fun r -> TP.si_cell (us r.before));
      right "Speedup" (fun r ->
          Printf.sprintf "%.2f" (cycles_ratio r.before r.after));
    ]
    (List.map row (table1_benchmarks ~full));
  print_endline
    "(before = plain bisection; after = + degree-2 snake + LLG annealing)"

(* ------------------------------------------------------------------ *)
(* Table 2: overview — CP vs baseline vs autobraid-full                 *)

let table2_rows ~full =
  let bb name = ("BuildingBlocks", name, B.Building_blocks.by_name name) in
  let app label circuit = ("RealWorld", label, circuit) in
  let if_full rows = if full then rows else [] in
  List.concat
    [
      List.map bb
        [
          "4gt11_8"; "4gt5_75"; "alu-v0_26"; "rd32-v0"; "sqrt8_260";
          "squar5_261"; "squar7"; "urf2_277"; "urf5_280";
        ];
      if_full [ bb "urf1_278"; bb "urf5_158" ];
      List.map (fun n -> app (Printf.sprintf "QFT-%d" n) (B.Qft.circuit n))
        (if full then [ 50; 100; 200; 400; 500 ] else [ 50; 100; 200 ]);
      List.map (fun n -> app (Printf.sprintf "BV-%d" n) (B.Bv.circuit n))
        [ 100; 150; 200 ];
      List.map (fun n -> app (Printf.sprintf "CC-%d" n) (B.Cc.circuit n))
        [ 100; 200; 300 ];
      [
        app "IM-10" (B.Ising.circuit ~steps:13 10);
        app "IM-500" (B.Ising.circuit ~steps:3 500);
      ];
      if_full [ app "IM-1000" (B.Ising.circuit ~steps:3 1000) ];
      [
        app "BWT-127" (B.Bwt.circuit ~height:6 ());
        app "BWT-255" (B.Bwt.circuit ~height:7 ());
        app "QAOA-100" (B.Qaoa.circuit 100);
        app "QAOA-200" (B.Qaoa.circuit 200);
      ];
      (if full then
         [
           app "QAOA-300" (B.Qaoa.circuit 300);
           app "Shor-471" (B.Shor.circuit ~multipliers:149 ~bits:234 ());
         ]
       else [ app "Shor-99" (B.Shor.circuit ~multipliers:40 ~bits:48 ()) ]);
    ]

let table2 ~full =
  let row (category, label, circuit) =
    (category, label, GP.run timing33 circuit, run_full timing33 circuit)
  in
  let auto (_, _, _, a) = a in
  print_table
    ~group:(fun (category, _, _, _) -> category)
    [
      left "Type" (fun (category, _, _, _) -> category);
      left "Name" (fun (_, label, _, _) -> label);
      right "#qubit" (fun r -> string_of_int (auto r).S.num_qubits);
      right "#gate" (fun r -> TP.si_cell (float_of_int (auto r).S.num_gates));
      right "CP (us)" (fun r ->
          TP.si_cell (S.critical_path_us timing33 (auto r)));
      right "GP w initM (us)" (fun (_, _, base, _) -> TP.si_cell (us base));
      right "AutoBraid (us)" (fun r -> TP.si_cell (us (auto r)));
      right "Speedup" (fun (_, _, base, auto) ->
          Printf.sprintf "%.2f" (cycles_ratio base auto));
      right "vs CP" (fun r ->
          Printf.sprintf "%.2f"
            (float_of_int (auto r).S.total_cycles
            /. float_of_int (max 1 (auto r).S.critical_path_cycles)));
    ]
    (List.map row (table2_rows ~full))

(* ------------------------------------------------------------------ *)
(* Figs. 16 & 17: scalability sweep over computation size 1/P_L         *)

type sweep_point = {
  family : string;
  n : int;
  inv_pl : float;
  d : int;
  base_r : S.result;
  sp_r : S.result;
  full_r : S.result;
}

let sweep_families ~full =
  [
    ( "QFT",
      (fun n -> B.Qft.circuit n),
      if full then [ 50; 100; 200; 300; 400 ] else [ 50; 100; 150; 200 ] );
    ( "IM",
      (fun n -> B.Ising.circuit ~steps:3 n),
      if full then [ 100; 250; 500; 1000 ] else [ 100; 200; 400 ] );
    ( "QAOA",
      (fun n -> B.Qaoa.circuit n),
      if full then [ 60; 100; 200; 300 ] else [ 60; 100; 160; 200 ] );
  ]

(* "circuit size is inversely proportional to P_L": target one logical
   fault over the circuit's logical volume. *)
let volume_and_distance circuit =
  let lowered = Qec_circuit.Decompose.to_scheduler_gates circuit in
  let volume =
    float_of_int (C.length lowered) *. float_of_int (C.num_qubits lowered)
  in
  (volume, Qec_surface.Error_model.distance_for_volume ~volume ())

(* Figs. 16 and 17 read one sweep, so `all` runs it once. *)
let sweep =
  let memo = ref None in
  fun ~full ->
    match !memo with
    | Some points -> points
    | None ->
      let point gen family n =
        let circuit = gen n in
        let inv_pl, d = volume_and_distance circuit in
        let timing = T.make ~d () in
        let base_r = GP.run timing circuit in
        let sp_r = S.run ~options:sp_options timing circuit in
        let full_r = run_full ~grid_points:[ 0.0; 0.3 ] timing circuit in
        { family; n; inv_pl; d; base_r; sp_r; full_r }
      in
      let points =
        List.concat_map
          (fun (family, gen, sizes) -> List.map (point gen family) sizes)
          (sweep_families ~full)
      in
      memo := Some points;
      points

let sweep_table ~full columns =
  print_table
    ~group:(fun p -> p.family)
    (left "family" (fun p -> p.family)
    :: right "n" (fun p -> string_of_int p.n)
    :: right "1/P_L" (fun p -> Printf.sprintf "%.2e" p.inv_pl)
    :: columns)
    (sweep ~full)

let fig16 ~full =
  let sec p cycles =
    Printf.sprintf "%.4f" (T.seconds_of_cycles (T.make ~d:p.d ()) cycles)
  in
  sweep_table ~full
    [
      right "d" (fun p -> string_of_int p.d);
      right "baseline (s)" (fun p -> sec p p.base_r.S.total_cycles);
      right "autobraid-sp (s)" (fun p -> sec p p.sp_r.S.total_cycles);
      right "autobraid-full (s)" (fun p -> sec p p.full_r.S.total_cycles);
      right "CP (s)" (fun p -> sec p p.full_r.S.critical_path_cycles);
    ]

let fig17 ~full =
  let pct v = Printf.sprintf "%.1f" (100. *. v) in
  sweep_table ~full
    [
      right "baseline avg%" (fun p -> pct p.base_r.S.avg_utilization);
      right "autobraid avg%" (fun p -> pct p.full_r.S.avg_utilization);
      right "baseline peak%" (fun p -> pct p.base_r.S.peak_utilization);
      right "autobraid peak%" (fun p -> pct p.full_r.S.peak_utilization);
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 18: p-sensitivity                                               *)

let fig18 ~full =
  let cases =
    if full then
      [ ("QFT-1000", B.Qft.circuit 1000); ("QAOA-1000", B.Qaoa.circuit 1000) ]
    else [ ("QFT-100", B.Qft.circuit 100); ("QAOA-100", B.Qaoa.circuit 100) ]
  in
  let curves = List.map (fun (_, c) -> snd (best_p timing33 c)) cases in
  (* row i: the i-th threshold, each case normalized to its p = 0 run *)
  print_table
    (right "p" (fun (_, p) -> Printf.sprintf "%.1f" p)
    :: List.map2
         (fun (name, _) curve ->
           right name (fun (i, _) ->
               Printf.sprintf "%.3f"
                 (cycles_ratio (snd (List.nth curve i)) (snd (List.hd curve)))))
         cases curves)
    (List.mapi (fun i (p, _) -> (i, p)) (List.hd curves))

(* ------------------------------------------------------------------ *)
(* Compilation-time analysis (§4.2)                                     *)

let compile_time ~full:_ =
  let row (name, c) =
    let timing = T.make ~d:(snd (volume_and_distance c)) () in
    let r = S.run timing c in
    (name, r.S.compile_time_s, T.seconds_of_cycles timing r.S.total_cycles)
  in
  print_table
    [
      left "benchmark" (fun (name, _, _) -> name);
      right "compile (s)" (fun (_, compile, _) -> Printf.sprintf "%.3f" compile);
      right "execution (s)" (fun (_, _, exec) -> Printf.sprintf "%.3f" exec);
      right "ratio" (fun (_, compile, exec) ->
          Printf.sprintf "%.1f%%" (100. *. compile /. exec));
    ]
    (List.map row
       [
         ("qft100", B.Qft.circuit 100);
         ("bv100", B.Bv.circuit 100);
         ("im200", B.Ising.circuit ~steps:3 200);
         ("qaoa100", B.Qaoa.circuit 100);
         ("urf2_277", B.Building_blocks.by_name "urf2_277");
       ]);
  print_endline
    "(the paper reports ~1-2%; ratios depend on the host CPU and d)"

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                   *)

let ablation ~full:_ =
  let qft = B.Qft.circuit 100 and qaoa = B.Qaoa.circuit 100 in
  let sp ?(c = qft) f = S.run ~options:(f sp_options) timing33 c in
  let swap strat =
    S.run
      ~options:
        { S.default_options with threshold_p = 0.6; swap_strategy = Some strat }
      timing33 qft
  in
  let blocks =
    [
      ( "baseline router (qft100)",
        [
          ("dimension-ordered (paper)", GP.run timing33 qft);
          ( "A* (detouring)",
            GP.run ~options:{ GP.default_options with router = GP.Astar }
              timing33 qft );
        ] );
      ( "initial placement (qaoa100, sp)",
        List.map
          (fun (name, m) -> (name, sp ~c:qaoa (fun o -> { o with initial = m })))
          [
            ("identity", IL.Identity);
            ("metis (bisection)", IL.Partitioned);
            ("metis + LLG anneal", IL.Annealed);
          ] );
      ( "retry pass (qft100, sp)",
        [
          ("retry on (default)", sp Fun.id);
          ("retry off (bare Fig. 13)", sp (fun o -> { o with retry = false }));
        ] );
      ( "LLG confinement (qft100, sp)",
        [
          ("confined (default)", sp Fun.id);
          ("unconfined", sp (fun o -> { o with confine_llg = false }));
        ] );
      ( "path compaction (qft100, sp)",
        [
          ("off (default)", sp Fun.id);
          ("on (rip-up & reroute)", sp (fun o -> { o with compaction = true }));
        ] );
      ( "CP lookahead (qaoa100, sp)",
        [
          ("off (default)", sp ~c:qaoa Fun.id);
          ( "on (tallest chain first)",
            sp ~c:qaoa (fun o -> { o with lookahead = true }) );
        ] );
      ( "swap strategy (qft100, p=0.6)",
        [
          ("odd-even (Maslov)", swap Autobraid.Layout_opt.Odd_even);
          ("greedy pairs", swap Autobraid.Layout_opt.Greedy);
        ] );
    ]
  in
  (* one row per configuration: study, first of its block?, configuration,
     run, best cycles of the block *)
  let rows (study, runs) =
    let best =
      List.fold_left (fun acc (_, r) -> min acc r.S.total_cycles) max_int runs
    in
    List.mapi (fun i (cfg, r) -> (study, i = 0, cfg, r, best)) runs
  in
  print_table ~closed:true
    ~group:(fun (study, _, _, _, _) -> study)
    [
      left "study" (fun (study, first, _, _, _) -> if first then study else "");
      left "configuration" (fun (_, _, cfg, _, _) -> cfg);
      right "time (us)" (fun (_, _, _, r, _) -> TP.si_cell (us r));
      right "vs best" (fun (_, _, _, r, best) ->
          times (float_of_int r.S.total_cycles /. float_of_int best));
    ]
    (List.concat_map rows blocks)

(* ------------------------------------------------------------------ *)
(* Planar vs double-defect (the paper's closing discussion, vs MICRO'17) *)

let planar ~full:_ =
  let module Tp = Qec_planar.Teleport in
  let rows (name, c) =
    let auto = run_full ~grid_points:[ 0.0; 0.3 ] timing33 c in
    let tele_stack = Tp.run timing33 c in
    let n = auto.S.num_qubits in
    let braid_qubits =
      Qec_surface.Resources.total_physical_qubits ~num_logical:n ~d:T.default_d
    in
    let planar_qubits = Tp.physical_qubits ~num_logical:n ~d:T.default_d () in
    List.map
      (fun (scheme, r, qubits) -> (name, scheme, r, tele_stack, qubits))
      [
        ("braiding, GP baseline", GP.run timing33 c, braid_qubits);
        ("braiding, autobraid", auto, braid_qubits);
        ( "planar, greedy order",
          Tp.run ~ordering:Tp.Greedy_shortest timing33 c,
          planar_qubits );
        ("planar, stack order", tele_stack, planar_qubits);
      ]
  in
  print_table ~closed:true
    ~group:(fun (name, _, _, _, _) -> name)
    [
      left "benchmark" (fun (name, _, _, _, _) -> name);
      left "scheme" (fun (_, scheme, _, _, _) -> scheme);
      right "time (us)" (fun (_, _, r, _, _) -> TP.si_cell (us r));
      right "vs planar-stack" (fun (_, _, r, anchor, _) ->
          times (cycles_ratio r anchor));
      right "physical qubits" (fun (_, _, _, _, q) ->
          TP.si_cell (float_of_int q));
    ]
    (List.concat_map rows
       [
         ("qft100", B.Qft.circuit 100);
         ("im200", B.Ising.circuit ~steps:3 200);
         ("qaoa100", B.Qaoa.circuit 100);
       ]);
  (* Equal-physical-budget comparison: what distance can each code afford
     for 200 logical qubits within the braiding layout's budget? *)
  let n = 200 in
  let budget =
    Qec_surface.Resources.total_physical_qubits ~num_logical:n ~d:T.default_d
  in
  (match Tp.distance_for_budget ~num_logical:n ~budget () with
  | Some d_planar ->
    Printf.printf
      "\nequal budget (%d physical qubits, %d logical): double-defect d = %d \
       (P_L = %.2e) vs planar d = %d (P_L = %.2e)\n"
      budget n T.default_d
      (Qec_surface.Error_model.logical_error_rate ~d:T.default_d ())
      d_planar
      (Qec_surface.Error_model.logical_error_rate ~d:d_planar ())
  | None -> print_endline "planar does not fit the budget at any distance");
  print_endline
    "(braiding holds channels 2x longer per CX, but affords a higher code \
     distance at equal budget; with autobraid closing the congestion gap, \
     double-defect wins reliability per qubit - the paper's section 5 claim)"

(* ------------------------------------------------------------------ *)
(* Backends: braiding vs lattice surgery over the Comm_backend API      *)

let backend_circuits =
  [
    ("qft9", B.Qft.circuit 9);
    ("bv12", B.Bv.circuit 12);
    ("qaoa12", B.Qaoa.circuit 12);
    ("lr16", B.Misc_circuits.longrange 16);
    ("lr24", B.Misc_circuits.longrange 24);
  ]

type backend_row = {
  circuit : string;
  braid : CB.outcome;
  surgery : CB.outcome;
  lookahead : CB.outcome;
}

let backends ~full:_ =
  let rows =
    List.map
      (fun (circuit, c) ->
        let run name = (CB.by_name name).CB.run timing33 c in
        let braid = run "braid" and surgery = run "surgery" in
        { circuit; braid; surgery; lookahead = run "lookahead" })
      backend_circuits
  in
  let res (o : CB.outcome) = o.CB.result in
  print_table
    [
      left "circuit" (fun r -> r.circuit);
      right "#qubit" (fun r -> string_of_int (res r.braid).S.num_qubits);
      right "#gate" (fun r ->
          TP.si_cell (float_of_int (res r.braid).S.num_gates));
      right "braid (us)" (fun r -> TP.si_cell (us (res r.braid)));
      right "surgery (us)" (fun r -> TP.si_cell (us (res r.surgery)));
      right "lookahead (us)" (fun r -> TP.si_cell (us (res r.lookahead)));
      right "braid rounds" (fun r -> string_of_int (res r.braid).S.rounds);
      right "surgery rounds" (fun r -> string_of_int (res r.surgery).S.rounds);
      right "speedup" (fun r ->
          times (cycles_ratio (res r.braid) (res r.surgery)));
      right "la speedup" (fun r ->
          times (cycles_ratio (res r.braid) (res r.lookahead)));
    ]
    rows;
  print_endline
    "(same gate set each way; surgery holds corridors for d cycles and \
     pipelines splits; lookahead races a candidate-ordering portfolio \
     against the greedy round and is never worse than braid)";
  rows

(* The cycle keys of one run: the scale section's whole record per side,
   the head of the backends section's. *)
let result_keys (r : S.result) =
  [
    ("total_cycles", J.Int r.S.total_cycles);
    ("rounds", J.Int r.S.rounds);
    ("comm_rounds", J.Int r.S.braid_rounds);
    ("swap_layers", J.Int r.S.swap_layers);
    ("swaps_inserted", J.Int r.S.swaps_inserted);
    ("critical_path_cycles", J.Int r.S.critical_path_cycles);
  ]

(* Deterministic per-circuit record: everything here is a pure function
   of the circuit and seed (wall-clock compile_time_s is deliberately
   excluded), so BENCH_backends.json is diffable across runs. *)
let outcome_json (o : CB.outcome) =
  let r = o.CB.result in
  J.Obj
    (result_keys r
    @ [
        ("avg_utilization", J.Float r.S.avg_utilization);
        ("peak_utilization", J.Float r.S.peak_utilization);
        ( "backend_stats",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) o.CB.stats) );
      ])

let backends_json rows =
  let entry r =
    let rb = r.braid.CB.result in
    J.Obj
      [
        ("name", J.String r.circuit);
        ("num_qubits", J.Int rb.S.num_qubits);
        ("num_gates", J.Int rb.S.num_gates);
        ("braid", outcome_json r.braid);
        ("surgery", outcome_json r.surgery);
        ("lookahead", outcome_json r.lookahead);
        ("speedup", J.Float (cycles_ratio rb r.surgery.CB.result));
        ("lookahead_speedup", J.Float (cycles_ratio rb r.lookahead.CB.result));
      ]
  in
  [ ("d", J.Int T.default_d); ("circuits", J.List (List.map entry rows)) ]

(* ------------------------------------------------------------------ *)
(* Scale: the paper-scale sweep (Table 2 headline)                      *)

(* Autobraid's braiding scheduler against the greedy MICRO'17 baseline
   over QFT-100..400, a Shor-style ripple-carry adder, and a large RevLib
   netlist. Cycle counts and the braid_vs_greedy_speedup ratios are
   deterministic and gate at cycle tolerance; the per-circuit *_wall_s
   keys gate loose. Committed as BENCH_scale.json; regenerated/gated by
   `make bench-scale` (too slow for `make check`, which runs scale-smoke). *)
let scale_circuits () =
  List.map (fun n -> (Printf.sprintf "qft%d" n, B.Qft.circuit n)) [ 100; 200; 300; 400 ]
  @ [
      ("adder64", B.Arith.cuccaro_adder 64);
      ("urf2_277", B.Building_blocks.by_name "urf2_277");
    ]

type scale_row = {
  name : string;
  rb : S.result;
  rg : S.result;
  braid_wall : float;
  greedy_wall : float;
}

(* The scale runner: measure the circuits, then print their table. *)
let scale_run circuits =
  let rows =
    List.map
      (fun (name, circuit) ->
        let rb, braid_wall = timed (fun () -> S.run timing33 circuit) in
        let rg, greedy_wall = timed (fun () -> GP.run timing33 circuit) in
        { name; rb; rg; braid_wall; greedy_wall })
      circuits
  in
  let int_si v = TP.si_cell (float_of_int v) in
  let wall v = Printf.sprintf "%.1f" v in
  print_table
    [
      left "circuit" (fun r -> r.name);
      right "#qubit" (fun r -> string_of_int r.rb.S.num_qubits);
      right "#gate" (fun r -> int_si r.rb.S.num_gates);
      right "braid cycles" (fun r -> int_si r.rb.S.total_cycles);
      right "greedy cycles" (fun r -> int_si r.rg.S.total_cycles);
      right "braid rounds" (fun r -> string_of_int r.rb.S.rounds);
      right "greedy rounds" (fun r -> string_of_int r.rg.S.rounds);
      right "braid wall (s)" (fun r -> wall r.braid_wall);
      right "greedy wall (s)" (fun r -> wall r.greedy_wall);
      right "speedup" (fun r -> times (cycles_ratio r.rg r.rb));
    ]
    rows;
  print_endline
    "(braid_vs_greedy_speedup = greedy cycles / braid cycles; the greedy \
     baseline is the MICRO'17 braidflash model — dimension-ordered routes, \
     no interference stack, no layout optimizer)";
  rows

(* Deterministic cycle keys per side; wall time sits under explicitly
   named *_wall_s keys. *)
let scale_entry_json r =
  J.Obj
    [
      ("name", J.String r.name);
      ("num_qubits", J.Int r.rb.S.num_qubits);
      ("num_gates", J.Int r.rb.S.num_gates);
      ("braid", J.Obj (result_keys r.rb));
      ("greedy", J.Obj (result_keys r.rg));
      ("braid_vs_greedy_speedup", J.Float (cycles_ratio r.rg r.rb));
      ("braid_wall_s", J.Float r.braid_wall);
      ("greedy_wall_s", J.Float r.greedy_wall);
    ]

let scale_wall r = r.braid_wall +. r.greedy_wall

let scale_json rows =
  let wall r = (r.name ^ "_wall_s", J.Float (scale_wall r)) in
  [
    ("d", J.Int T.default_d);
    ("circuits", J.List (List.map scale_entry_json rows));
    ("wall", J.Obj (List.map wall rows));
  ]

(* CI smoke for the paper sweep: the scale runner on QFT-100, its entry
   drift-checked against the committed BENCH_scale.json entry with zero
   cycle tolerance in either direction (cycle counts are deterministic,
   so any change fails; wall keys are not compared), inside a wall budget
   that slow hosts may raise through AUTOBRAID_SCALE_BUDGET_S. *)
let scale_smoke ~full:_ =
  let module D = Qec_obs.Drift in
  let budget =
    Option.bind (Sys.getenv_opt "AUTOBRAID_SCALE_BUDGET_S") float_of_string_opt
    |> Option.value ~default:120.
  in
  let row = List.hd (scale_run [ ("qft100", B.Qft.circuit 100) ]) in
  let wall = scale_wall row and current = scale_entry_json row in
  Printf.printf "\nqft100: wall %.1f s (budget %.0f s)\n" wall budget;
  let exact ~baseline ~current =
    D.check ~tolerance:0. ~wall_tolerance:infinity ~baseline ~current
  in
  let failures =
    (if wall > budget then
       [ Printf.sprintf "wall %.1f s blew the %.0f s budget" wall budget ]
     else [])
    @
    match J.of_string (read_file "BENCH_scale.json") with
    | exception Sys_error msg -> [ "BENCH_scale.json unreadable: " ^ msg ]
    | Error msg -> [ "BENCH_scale.json unparsable: " ^ msg ]
    | Ok committed -> (
      let named e = J.member "name" e = Some (J.String "qft100") in
      match J.member "circuits" committed with
      | Some (J.List entries) when List.exists named entries ->
        let baseline = List.find named entries in
        let o = exact ~baseline ~current
        and back = exact ~baseline:current ~current:baseline in
        List.map
          (fun f -> "diverged from BENCH_scale.json: " ^ D.pp_finding f)
          (o.D.regressions @ o.D.improvements)
        @ List.map
            (fun p -> "key on one side only: qft100." ^ p)
            (o.D.missing @ back.D.missing)
      | _ -> [ "BENCH_scale.json has no qft100 entry" ])
  in
  match failures with
  | [] -> print_endline "scale-smoke: OK"
  | fs ->
    List.iter (fun m -> Printf.printf "scale-smoke FAIL: %s\n" m) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* Verify: certification and the mutation corpus's kill rate. Every
   schedule below must certify clean and every applicable mutation must
   be caught — both are hard failures, so the drift-gated counts
   (certificates, invariants_checked, mutations_killed) are exact
   functions of the circuit set and Qec_verify's registries. *)

let verify ~full:_ =
  let module V = Qec_verify.Certifier in
  let module M = Qec_verify.Mutate in
  let outcomes =
    List.concat_map
      (fun (name, circuit) ->
        List.map
          (fun backend -> (name, (CB.by_name backend).CB.run timing33 circuit))
          [ "braid"; "surgery" ])
      [
        ("qft16", B.Qft.circuit 16);
        ("qaoa12", B.Qaoa.circuit 12);
        ("lr16", B.Misc_circuits.longrange 16);
      ]
  in
  let certify (name, o) =
    let cert =
      V.certify ~backend:o.CB.backend ~result:o.CB.result timing33 o.CB.trace
    in
    if not (V.ok cert) then
      Printf.ksprintf failwith "verify bench: %s (%s): %s" name o.CB.backend
        (V.to_summary cert)
  in
  List.iter certify outcomes;
  (* a surviving mutation aborts, so every applied mutation is killed *)
  let mutations = ref 0 in
  List.iter
    (fun (name, o) ->
      List.iter
        (fun kind ->
          match M.apply kind timing33 o.CB.result o.CB.trace with
          | None -> ()
          | Some (result, trace) ->
            incr mutations;
            if V.ok (V.certify ~result timing33 trace) then
              Printf.ksprintf failwith
                "verify bench: mutation %s survived certification on %s (%s)"
                (M.name kind) name o.CB.backend)
        M.all)
    outcomes;
  let certificates = List.length outcomes and mutations = !mutations in
  let invariants = certificates * List.length Qec_verify.Invariant.all in
  print_table
    [ left "metric" fst; right "value" snd ]
    [
      ("schedules certified", string_of_int certificates);
      ("invariants checked", string_of_int invariants);
      ("mutations killed", Printf.sprintf "%d/%d" mutations mutations);
    ];
  print_endline
    "(certification re-derives every invariant from the trace alone; a \
     surviving mutation or a failed certificate aborts the bench)";
  [
    ("d", J.Int T.default_d);
    ("certificates", J.Int certificates);
    ("invariants_checked", J.Int invariants);
    ("mutations_applied", J.Int mutations);
    ("mutations_killed", J.Int mutations);
  ]

(* ------------------------------------------------------------------ *)
(* The sections, in usage and `all` order                               *)

type section =
  | Section : {
      name : string;
      title : string;
      in_all : bool;
      run : full:bool -> 'a;  (** prints the section *)
      json : ('a -> (string * J.t) list) option;
          (** the fields of its snapshot, after ["section"] *)
    }
      -> section

let section ?(in_all = true) ?json name title run =
  Section { name; title; in_all; run; json }

let sections =
  [
    section "table1"
      "Table 1: Impact of LLGs' sizes (initial-layout optimization)" table1;
    section "table2" "Table 2: Overview of experiment results (d = 33)" table2;
    section "fig16" "Fig. 16: execution time (s) vs computation size 1/P_L"
      fig16;
    section "fig17"
      "Fig. 17: routing-resource utilization (%) vs computation size" fig17;
    section "fig18" "Fig. 18: p-sensitivity (time normalized to p = 0)" fig18;
    section "compile-time" "Compilation time vs physical execution time"
      compile_time;
    section "ablation" "Ablations" ablation;
    section "planar"
      "Planar (teleportation) vs double-defect (braiding) - section 5 \
       discussion"
      planar;
    section "backends" ~json:backends_json
      "Backends: braiding vs lattice surgery vs lookahead (d = 33)" backends;
    section "scale" ~in_all:false ~json:scale_json
      "Scale: braiding vs the greedy baseline at paper size (d = 33)"
      (fun ~full:_ -> scale_run (scale_circuits ()));
    section "scale-smoke" ~in_all:false
      "Scale smoke: qft100, braid vs greedy (d = 33)" scale_smoke;
    section "verify" ~json:Fun.id
      "Verify: independent schedule certification (d = 33)" verify;
  ]

let find_section name =
  List.find_opt (fun (Section s) -> s.name = name) sections

(* Print the section under its title; return its snapshot if it has one. *)
let measure ~full (Section s) =
  header s.title;
  let v = s.run ~full in
  Option.map (fun json -> J.Obj (("section", J.String s.name) :: json v)) s.json

(* [measure] inside the section's phase profile, writing the snapshot to
   [json_out] when there is one. *)
let run_section ~full ~json_out (Section s as sec) =
  profiled s.name (fun () ->
      match (measure ~full sec, json_out) with
      | Some json, Some path -> write_json path json
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Drift gating: `--check BENCH_*.json` re-measures the file's section
   and fails on cycle-count (or wall-time) regressions past tolerance.   *)

(* Returns true when [path] passes. Prints a verdict either way. Only
   sections with a snapshot can be gated. *)
let drift_check ~tolerance ~wall_tolerance path =
  let module D = Qec_obs.Drift in
  let fail msg =
    Printf.printf "DRIFT FAIL %s: %s\n" path msg;
    false
  in
  match J.of_string (read_file path) with
  | Error msg -> fail ("unparsable baseline: " ^ msg)
  | Ok baseline -> (
    match J.member "section" baseline with
    | Some (J.String name) -> (
      (* the lookup runs nothing: a section without a snapshot fails first *)
      match find_section name with
      | Some (Section { json = Some _; _ } as gated) ->
        let current = Option.get (measure ~full:false gated) in
        let o = D.check ~tolerance ~wall_tolerance ~baseline ~current in
        header (Printf.sprintf "Drift check: %s (section %s)" path name);
        Printf.printf
          "%d gated metrics, tolerance %.0f%% (cycle) / %.0f%% (wall)\n"
          o.D.checked (100. *. tolerance) (100. *. wall_tolerance);
        let show fmt = List.iter (fun x -> Printf.printf fmt x) in
        show "  REGRESSION %s\n" (List.map D.pp_finding o.D.regressions);
        show "  MISSING %s (baseline metric absent)\n" o.D.missing;
        show "  improved %s\n" (List.map D.pp_finding o.D.improvements);
        if D.passed o then (
          Printf.printf "DRIFT OK %s\n" path;
          true)
        else
          fail
            (Printf.sprintf "%d regression(s), %d missing metric(s)"
               (List.length o.D.regressions)
               (List.length o.D.missing))
      | _ -> fail (Printf.sprintf "section %S is not drift-gated" name))
    | _ -> fail "baseline has no \"section\" key")

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let rec find_all flag = function
    | f :: v :: rest when f = flag -> v :: find_all flag rest
    | _ :: rest -> find_all flag rest
    | [] -> []
  in
  let json_out = List.nth_opt (find_all "--json" args) 0 in
  let find_float flag default =
    match find_all flag args with
    | v :: _ -> (
      match float_of_string_opt v with
      | Some f -> f
      | None ->
        Printf.eprintf "%s expects a number, got %S\n" flag v;
        exit 2)
    | [] -> default
  in
  let checks = find_all "--check" args in
  (* Cycle metrics are deterministic — 2% headroom only guards against
     benign nondeterminism (e.g. hash order). Wall times vary wildly
     across hosts and CI neighbours, so they get 3x by default. *)
  let tolerance = find_float "--tolerance" 0.02 in
  let wall_tolerance = find_float "--wall-tolerance" 2.0 in
  if checks <> [] then begin
    let ok, s =
      timed (fun () ->
          List.fold_left
            (fun acc path -> drift_check ~tolerance ~wall_tolerance path && acc)
            true checks)
    in
    Printf.printf "\n[drift check completed in %.1f s]\n" s;
    exit (if ok then 0 else 1)
  end;
  let rec strip = function
    | ("--json" | "--check" | "--tolerance" | "--wall-tolerance") :: _ :: rest
      ->
      strip rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" ->
      strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let name = match strip args with s :: _ -> s | [] -> "all" in
  let (), s =
    timed @@ fun () ->
    match (name, find_section name) with
    | _, Some s -> run_section ~full ~json_out s
    | "all", None ->
      (* --json names one file; in `all` it belongs to the first section
         with a snapshot *)
      let owner =
        List.find (fun (Section s) -> s.in_all && Option.is_some s.json) sections
      in
      List.iter
        (fun (Section s as sec) ->
          let json_out = if sec == owner then json_out else None in
          if s.in_all then run_section ~full ~json_out sec)
        sections
    | other, None ->
      Printf.eprintf "unknown section %S (expected %s|all)\n" other
        (String.concat "|" (List.map (fun (Section s) -> s.name) sections));
      exit 2
  in
  Printf.printf "\n[bench completed in %.1f s]\n" s
