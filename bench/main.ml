(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) on this reproduction.

   Usage:
     dune exec bench/main.exe                      # everything, medium sizes
     dune exec bench/main.exe -- table2            # one section
     dune exec bench/main.exe -- fig16 --full      # paper-scale sizes (slow)
     dune exec bench/main.exe -- micro             # bechamel micro-benchmarks
     dune exec bench/main.exe -- backends --json BENCH_backends.json
     dune exec bench/main.exe -- engine --json BENCH_engine.json
     dune exec bench/main.exe -- scale --json BENCH_scale.json
     dune exec bench/main.exe -- --check BENCH_backends.json --check \
       BENCH_scale.json --tolerance 0.02    # drift gate vs committed JSON

   Sections: table1 table2 fig16 fig17 fig18 compile-time ablation planar
   backends scale scale-smoke engine prop micro all.

   `scale` is the paper-size Table-2 sweep (QFT-100..400, adder, RevLib)
   of braid vs the greedy baseline — minutes of wall time, gated by
   `make bench-scale`. `scale-smoke` re-runs only the QFT-100 point and
   exact-checks it against the committed BENCH_scale.json inside a wall
   budget (AUTOBRAID_SCALE_BUDGET_S, default 120 s) — that is the CI
   (`make check`) entry point.

   `--check FILE` (repeatable) re-measures the section named inside FILE
   and exits 1 if any gated metric regresses past `--tolerance` (cycle
   counts, default 2%) or `--wall-tolerance` (host timings, default
   200%) — see Qec_obs.Drift for the gating policy.

   Absolute numbers differ from the paper (different host, regenerated
   benchmark netlists, re-implemented baseline); the claims under test are
   the orderings and rough factors — see EXPERIMENTS.md. *)

module S = Autobraid.Scheduler
module IL = Autobraid.Initial_layout
module GP = Gp_baseline
module C = Qec_circuit.Circuit
module B = Qec_benchmarks
module TP = Qec_util.Tableprint
module T = Qec_surface.Timing

let timing33 = T.make ~d:T.default_d ()

let sp_options = { S.default_options with variant = S.Sp }

(* autobraid-full with the paper's p sweep, trimmed for compile time. *)
let run_full ?(grid_points = [ 0.0; 0.2; 0.4 ]) timing c =
  fst
    (S.run_best_p ~grid_points
       ~jobs:(Qec_util.Parallel.default_jobs ())
       timing c)

let header title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

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

let us r = S.time_us timing33 r
let cp_us r = S.critical_path_us timing33 r

let write_json path json =
  let oc = open_out path in
  output_string oc (Qec_report.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\n[wrote %s]\n" path

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

let table1 ~full () =
  header "Table 1: Impact of LLGs' sizes (initial-layout optimization)";
  let t =
    TP.create
      ~headers:
        [
          ("Benchmark", TP.Left);
          ("#LLG>3 after", TP.Right);
          ("time after (us)", TP.Right);
          ("#LLG>3 before", TP.Right);
          ("time before (us)", TP.Right);
          ("Speedup", TP.Right);
        ]
  in
  List.iter
    (fun (name, circuit) ->
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
      TP.add_row t
        [
          name;
          string_of_int (census IL.Annealed);
          TP.si_cell (us after);
          string_of_int (census IL.Bisected);
          TP.si_cell (us before);
          Printf.sprintf "%.2f"
            (float_of_int before.S.total_cycles
            /. float_of_int after.S.total_cycles);
        ])
    (table1_benchmarks ~full);
  TP.print t;
  print_endline
    "(before = plain bisection; after = + degree-2 snake + LLG annealing)"

(* ------------------------------------------------------------------ *)
(* Table 2: overview — CP vs baseline vs autobraid-full                 *)

type t2_row = { category : string; label : string; circuit : C.t }

let table2_rows ~full =
  let bb name label = { category = "BuildingBlocks"; label; circuit = B.Building_blocks.by_name name } in
  let app label circuit = { category = "RealWorld"; label; circuit } in
  List.concat
    [
      [
        bb "4gt11_8" "4gt11_8";
        bb "4gt5_75" "4gt5_75";
        bb "alu-v0_26" "alu-v0_26";
        bb "rd32-v0" "rd32-v0";
        bb "sqrt8_260" "sqrt8_260";
        bb "squar5_261" "squar5_261";
        bb "squar7" "squar7";
        bb "urf2_277" "urf2_277";
        bb "urf5_280" "urf5_280";
      ];
      (if full then [ bb "urf1_278" "urf1_278"; bb "urf5_158" "urf5_158" ]
       else []);
      [
        app "QFT-50" (B.Qft.circuit 50);
        app "QFT-100" (B.Qft.circuit 100);
        app "QFT-200" (B.Qft.circuit 200);
      ];
      (if full then
         [ app "QFT-400" (B.Qft.circuit 400); app "QFT-500" (B.Qft.circuit 500) ]
       else []);
      [
        app "BV-100" (B.Bv.circuit 100);
        app "BV-150" (B.Bv.circuit 150);
        app "BV-200" (B.Bv.circuit 200);
        app "CC-100" (B.Cc.circuit 100);
        app "CC-200" (B.Cc.circuit 200);
        app "CC-300" (B.Cc.circuit 300);
        app "IM-10" (B.Ising.circuit ~steps:13 10);
        app "IM-500" (B.Ising.circuit ~steps:3 500);
      ];
      (if full then [ app "IM-1000" (B.Ising.circuit ~steps:3 1000) ] else []);
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

let table2 ~full () =
  header "Table 2: Overview of experiment results (d = 33)";
  let t =
    TP.create
      ~headers:
        [
          ("Type", TP.Left);
          ("Name", TP.Left);
          ("#qubit", TP.Right);
          ("#gate", TP.Right);
          ("CP (us)", TP.Right);
          ("GP w initM (us)", TP.Right);
          ("AutoBraid (us)", TP.Right);
          ("Speedup", TP.Right);
          ("vs CP", TP.Right);
        ]
  in
  let last_category = ref "" in
  List.iter
    (fun { category; label; circuit } ->
      if category <> !last_category && !last_category <> "" then
        TP.add_separator t;
      last_category := category;
      let base = GP.run timing33 circuit in
      let auto = run_full timing33 circuit in
      TP.add_row t
        [
          category;
          label;
          string_of_int auto.S.num_qubits;
          TP.si_cell (float_of_int auto.S.num_gates);
          TP.si_cell (cp_us auto);
          TP.si_cell (us base);
          TP.si_cell (us auto);
          Printf.sprintf "%.2f"
            (float_of_int base.S.total_cycles
            /. float_of_int auto.S.total_cycles);
          Printf.sprintf "%.2f"
            (float_of_int auto.S.total_cycles
            /. float_of_int (max 1 auto.S.critical_path_cycles));
        ])
    (table2_rows ~full);
  TP.print t

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

let run_sweep ~full () =
  List.concat_map
    (fun (family, gen, sizes) ->
      List.map
        (fun n ->
          let circuit = gen n in
          let lowered = Qec_circuit.Decompose.to_scheduler_gates circuit in
          (* "circuit size is inversely proportional to P_L": target one
             logical fault over the circuit's logical volume. *)
          let volume =
            float_of_int (C.length lowered) *. float_of_int (C.num_qubits lowered)
          in
          let d = Qec_surface.Error_model.distance_for_volume ~volume () in
          let timing = T.make ~d () in
          let base_r = GP.run timing circuit in
          let sp_r = S.run ~options:sp_options timing circuit in
          let full_r = run_full ~grid_points:[ 0.0; 0.3 ] timing circuit in
          { family; n; inv_pl = volume; d; base_r; sp_r; full_r })
        sizes)
    (sweep_families ~full)

let fig16 points =
  header "Fig. 16: execution time (s) vs computation size 1/P_L";
  let t =
    TP.create
      ~headers:
        [
          ("family", TP.Left);
          ("n", TP.Right);
          ("1/P_L", TP.Right);
          ("d", TP.Right);
          ("baseline (s)", TP.Right);
          ("autobraid-sp (s)", TP.Right);
          ("autobraid-full (s)", TP.Right);
          ("CP (s)", TP.Right);
        ]
  in
  let last = ref "" in
  List.iter
    (fun p ->
      if p.family <> !last && !last <> "" then TP.add_separator t;
      last := p.family;
      let timing = T.make ~d:p.d () in
      let sec r = T.seconds_of_cycles timing r.S.total_cycles in
      let cp_sec r = T.seconds_of_cycles timing r.S.critical_path_cycles in
      TP.add_row t
        [
          p.family;
          string_of_int p.n;
          Printf.sprintf "%.2e" p.inv_pl;
          string_of_int p.d;
          Printf.sprintf "%.4f" (sec p.base_r);
          Printf.sprintf "%.4f" (sec p.sp_r);
          Printf.sprintf "%.4f" (sec p.full_r);
          Printf.sprintf "%.4f" (cp_sec p.full_r);
        ])
    points;
  TP.print t

let fig17 points =
  header "Fig. 17: routing-resource utilization (%) vs computation size";
  let t =
    TP.create
      ~headers:
        [
          ("family", TP.Left);
          ("n", TP.Right);
          ("1/P_L", TP.Right);
          ("baseline avg%", TP.Right);
          ("autobraid avg%", TP.Right);
          ("baseline peak%", TP.Right);
          ("autobraid peak%", TP.Right);
        ]
  in
  let last = ref "" in
  List.iter
    (fun p ->
      if p.family <> !last && !last <> "" then TP.add_separator t;
      last := p.family;
      let pct v = Printf.sprintf "%.1f" (100. *. v) in
      TP.add_row t
        [
          p.family;
          string_of_int p.n;
          Printf.sprintf "%.2e" p.inv_pl;
          pct p.base_r.S.avg_utilization;
          pct p.full_r.S.avg_utilization;
          pct p.base_r.S.peak_utilization;
          pct p.full_r.S.peak_utilization;
        ])
    points;
  TP.print t

(* ------------------------------------------------------------------ *)
(* Fig. 18: p-sensitivity                                               *)

let fig18 ~full () =
  header "Fig. 18: p-sensitivity (time normalized to p = 0)";
  let cases =
    if full then
      [ ("QFT-1000", B.Qft.circuit 1000); ("QAOA-1000", B.Qaoa.circuit 1000) ]
    else [ ("QFT-100", B.Qft.circuit 100); ("QAOA-100", B.Qaoa.circuit 100) ]
  in
  let t =
    TP.create
      ~headers:
        ([ ("p", TP.Right) ]
        @ List.map (fun (name, _) -> (name, TP.Right)) cases)
  in
  let curves =
    List.map
      (fun (_, c) ->
        snd
          (S.run_best_p
             ~jobs:(Qec_util.Parallel.default_jobs ())
             timing33 c))
      cases
  in
  let ps = List.map fst (List.hd curves) in
  List.iteri
    (fun i p ->
      let cells =
        List.map
          (fun curve ->
            let _, first = List.hd curve in
            let _, r = List.nth curve i in
            Printf.sprintf "%.3f"
              (float_of_int r.S.total_cycles
              /. float_of_int first.S.total_cycles))
          curves
      in
      TP.add_row t (Printf.sprintf "%.1f" p :: cells))
    ps;
  TP.print t

(* ------------------------------------------------------------------ *)
(* Compilation-time analysis (§4.2)                                     *)

let compile_time () =
  header "Compilation time vs physical execution time";
  let t =
    TP.create
      ~headers:
        [
          ("benchmark", TP.Left);
          ("compile (s)", TP.Right);
          ("execution (s)", TP.Right);
          ("ratio", TP.Right);
        ]
  in
  List.iter
    (fun (name, c) ->
      let lowered = Qec_circuit.Decompose.to_scheduler_gates c in
      let volume =
        float_of_int (C.length lowered) *. float_of_int (C.num_qubits lowered)
      in
      let d = Qec_surface.Error_model.distance_for_volume ~volume () in
      let timing = T.make ~d () in
      let r = S.run timing c in
      let exec_s = T.seconds_of_cycles timing r.S.total_cycles in
      TP.add_row t
        [
          name;
          Printf.sprintf "%.3f" r.S.compile_time_s;
          Printf.sprintf "%.3f" exec_s;
          Printf.sprintf "%.1f%%" (100. *. r.S.compile_time_s /. exec_s);
        ])
    [
      ("qft100", B.Qft.circuit 100);
      ("bv100", B.Bv.circuit 100);
      ("im200", B.Ising.circuit ~steps:3 200);
      ("qaoa100", B.Qaoa.circuit 100);
      ("urf2_277", B.Building_blocks.by_name "urf2_277");
    ];
  TP.print t;
  print_endline
    "(the paper reports ~1-2%; ratios depend on the host CPU and d)"

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                   *)

let ablation () =
  header "Ablations";
  let t =
    TP.create
      ~headers:
        [
          ("study", TP.Left);
          ("configuration", TP.Left);
          ("time (us)", TP.Right);
          ("vs best", TP.Right);
        ]
  in
  let block study rows =
    let best =
      List.fold_left (fun acc (_, r) -> min acc r.S.total_cycles) max_int rows
    in
    List.iteri
      (fun i (cfg, r) ->
        TP.add_row t
          [
            (if i = 0 then study else "");
            cfg;
            TP.si_cell (us r);
            Printf.sprintf "%.2fx"
              (float_of_int r.S.total_cycles /. float_of_int best);
          ])
      rows;
    TP.add_separator t
  in
  (* 1. Baseline router: dimension-ordered (braidflash) vs A* *)
  let qft = B.Qft.circuit 100 in
  block "baseline router (qft100)"
    [
      ("dimension-ordered (paper)", GP.run timing33 qft);
      ( "A* (detouring)",
        GP.run ~options:{ GP.default_options with router = GP.Astar } timing33
          qft );
    ];
  (* 2. Initial placement on autobraid-sp *)
  let qaoa = B.Qaoa.circuit 100 in
  block "initial placement (qaoa100, sp)"
    (List.map
       (fun (name, m) ->
         (name, S.run ~options:{ sp_options with initial = m } timing33 qaoa))
       [
         ("identity", IL.Identity);
         ("metis (bisection)", IL.Partitioned);
         ("metis + LLG anneal", IL.Annealed);
       ]);
  (* 3. Failed-first retry pass *)
  block "retry pass (qft100, sp)"
    [
      ("retry on (default)", S.run ~options:sp_options timing33 qft);
      ( "retry off (bare Fig. 13)",
        S.run ~options:{ sp_options with retry = false } timing33 qft );
    ];
  (* 4. LLG confinement (Theorems 1-2) *)
  block "LLG confinement (qft100, sp)"
    [
      ("confined (default)", S.run ~options:sp_options timing33 qft);
      ( "unconfined",
        S.run ~options:{ sp_options with confine_llg = false } timing33 qft );
    ];
  (* 5. Topological path compaction *)
  block "path compaction (qft100, sp)"
    [
      ("off (default)", S.run ~options:sp_options timing33 qft);
      ( "on (rip-up & reroute)",
        S.run ~options:{ sp_options with compaction = true } timing33 qft );
    ];
  (* 6. Critical-path lookahead *)
  block "CP lookahead (qaoa100, sp)"
    [
      ("off (default)", S.run ~options:sp_options timing33 qaoa);
      ( "on (tallest chain first)",
        S.run ~options:{ sp_options with lookahead = true } timing33 qaoa );
    ];
  (* 7. Swap strategy under heavy threshold *)
  let opts strat =
    {
      S.default_options with
      threshold_p = 0.6;
      swap_strategy = Some strat;
    }
  in
  block "swap strategy (qft100, p=0.6)"
    [
      ("odd-even (Maslov)", S.run ~options:(opts Autobraid.Layout_opt.Odd_even) timing33 qft);
      ("greedy pairs", S.run ~options:(opts Autobraid.Layout_opt.Greedy) timing33 qft);
    ];
  TP.print t

(* ------------------------------------------------------------------ *)
(* Planar vs double-defect (the paper's closing discussion, vs MICRO'17) *)

let planar () =
  header "Planar (teleportation) vs double-defect (braiding) - section 5 discussion";
  let t =
    TP.create
      ~headers:
        [
          ("benchmark", TP.Left);
          ("scheme", TP.Left);
          ("time (us)", TP.Right);
          ("vs planar-stack", TP.Right);
          ("physical qubits", TP.Right);
        ]
  in
  List.iter
    (fun (name, c) ->
      let base = GP.run timing33 c in
      let auto = run_full ~grid_points:[ 0.0; 0.3 ] timing33 c in
      let tele_greedy =
        Qec_planar.Teleport.run
          ~options:
            { Qec_planar.Teleport.default_options with
              ordering = Qec_planar.Teleport.Greedy_shortest }
          timing33 c
      in
      let tele_stack = Qec_planar.Teleport.run timing33 c in
      let n = auto.S.num_qubits in
      let braid_qubits =
        Qec_surface.Resources.total_physical_qubits ~num_logical:n
          ~d:T.default_d
      in
      let planar_qubits =
        Qec_planar.Teleport.physical_qubits ~num_logical:n ~d:T.default_d ()
      in
      let anchor = float_of_int tele_stack.S.total_cycles in
      let row scheme (r : S.result) qubits =
        TP.add_row t
          [
            name;
            scheme;
            TP.si_cell (us r);
            Printf.sprintf "%.2fx" (float_of_int r.S.total_cycles /. anchor);
            TP.si_cell (float_of_int qubits);
          ]
      in
      row "braiding, GP baseline" base braid_qubits;
      row "braiding, autobraid" auto braid_qubits;
      row "planar, greedy order" tele_greedy planar_qubits;
      row "planar, stack order" tele_stack planar_qubits;
      TP.add_separator t)
    [
      ("qft100", B.Qft.circuit 100);
      ("im200", B.Ising.circuit ~steps:3 200);
      ("qaoa100", B.Qaoa.circuit 100);
    ];
  TP.print t;
  (* Equal-physical-budget comparison: what distance can each code afford
     for 200 logical qubits within the braiding layout's budget? *)
  let n = 200 in
  let budget =
    Qec_surface.Resources.total_physical_qubits ~num_logical:n ~d:T.default_d
  in
  (match
     Qec_planar.Teleport.distance_for_budget ~num_logical:n ~budget ()
   with
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

(* Deterministic per-circuit record: everything here is a pure function
   of the circuit and seed (wall-clock compile_time_s is deliberately
   excluded), so BENCH_backends.json is diffable across runs. *)
let backend_outcome_json (o : Autobraid.Comm_backend.outcome) =
  let open Qec_report.Json in
  let r = o.Autobraid.Comm_backend.result in
  Obj
    [
      ("total_cycles", Int r.S.total_cycles);
      ("rounds", Int r.S.rounds);
      ("comm_rounds", Int r.S.braid_rounds);
      ("swap_layers", Int r.S.swap_layers);
      ("swaps_inserted", Int r.S.swaps_inserted);
      ("critical_path_cycles", Int r.S.critical_path_cycles);
      ("avg_utilization", Float r.S.avg_utilization);
      ("peak_utilization", Float r.S.peak_utilization);
      ( "backend_stats",
        Obj (List.map (fun (k, v) -> (k, Float v)) o.Autobraid.Comm_backend.stats)
      );
    ]

(* One backends-style comparison section: run every circuit through braid
   and surgery, print the side-by-side table, and return (optionally
   writing) the machine-readable snapshot keyed by [section] — the same
   shape `--check` gates against. *)
let backends_section ~section ~circuits ~json_out () =
  header
    (Printf.sprintf "%s: braiding vs lattice surgery vs lookahead (d = 33)"
       (String.capitalize_ascii section));
  let module CB = Autobraid.Comm_backend in
  let braid = CB.braid () in
  let surgery = Qec_surgery.Backend.make () in
  let lookahead = Qec_lookahead.Backend.make () in
  let t =
    TP.create
      ~headers:
        [
          ("circuit", TP.Left);
          ("#qubit", TP.Right);
          ("#gate", TP.Right);
          ("braid (us)", TP.Right);
          ("surgery (us)", TP.Right);
          ("lookahead (us)", TP.Right);
          ("braid rounds", TP.Right);
          ("surgery rounds", TP.Right);
          ("speedup", TP.Right);
          ("la speedup", TP.Right);
        ]
  in
  let rows =
    List.map
      (fun (name, circuit) ->
        let ob = braid.CB.run timing33 circuit in
        let os = surgery.CB.run timing33 circuit in
        let ol = lookahead.CB.run timing33 circuit in
        let rb = ob.CB.result and rs = os.CB.result and rl = ol.CB.result in
        TP.add_row t
          [
            name;
            string_of_int rb.S.num_qubits;
            TP.si_cell (float_of_int rb.S.num_gates);
            TP.si_cell (us rb);
            TP.si_cell (us rs);
            TP.si_cell (us rl);
            string_of_int rb.S.rounds;
            string_of_int rs.S.rounds;
            Printf.sprintf "%.2fx"
              (float_of_int rb.S.total_cycles /. float_of_int rs.S.total_cycles);
            Printf.sprintf "%.2fx"
              (float_of_int rb.S.total_cycles /. float_of_int rl.S.total_cycles);
          ];
        (name, ob, os, ol))
      circuits
  in
  TP.print t;
  print_endline
    "(same gate set each way; surgery holds corridors for d cycles and \
     pipelines splits; lookahead races a candidate-ordering portfolio \
     against the greedy round and is never worse than braid)";
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String section);
        ("d", Int T.default_d);
        ( "circuits",
          List
            (List.map
               (fun (name, ob, os, ol) ->
                 let rb = ob.CB.result in
                 Obj
                   [
                     ("name", String name);
                     ("num_qubits", Int rb.S.num_qubits);
                     ("num_gates", Int rb.S.num_gates);
                     ("braid", backend_outcome_json ob);
                     ("surgery", backend_outcome_json os);
                     ("lookahead", backend_outcome_json ol);
                     ( "speedup",
                       Float
                         (float_of_int ob.CB.result.S.total_cycles
                         /. float_of_int os.CB.result.S.total_cycles) );
                     ( "lookahead_speedup",
                       Float
                         (float_of_int ob.CB.result.S.total_cycles
                         /. float_of_int ol.CB.result.S.total_cycles) );
                   ])
               rows) );
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let backends ~json_out () =
  ignore
    (backends_section ~section:"backends" ~circuits:backend_circuits ~json_out
       ())

(* The paper-scale sweep (Table 2 headline): autobraid's braiding
   scheduler against the greedy MICRO'17 baseline over QFT-100..400, a
   Shor-style ripple-carry adder, and a large RevLib netlist. Cycle
   counts and the braid_vs_greedy_speedup ratios are deterministic and
   gate at cycle tolerance; the per-circuit *_wall_s keys gate loose.
   Committed as BENCH_scale.json; regenerated/gated by `make bench-scale`
   (too slow for `make check`, which runs the scale-smoke point below). *)
let scale_circuits () =
  [
    ("qft100", B.Qft.circuit 100);
    ("qft200", B.Qft.circuit 200);
    ("qft300", B.Qft.circuit 300);
    ("qft400", B.Qft.circuit 400);
    ("adder64", B.Arith.cuccaro_adder 64);
    ("urf2_277", B.Building_blocks.by_name "urf2_277");
  ]

(* Deterministic result record for the scale sweep (wall time is reported
   separately under explicitly-named *_wall_s keys). *)
let scale_result_json (r : S.result) =
  let open Qec_report.Json in
  Obj
    [
      ("total_cycles", Int r.S.total_cycles);
      ("rounds", Int r.S.rounds);
      ("comm_rounds", Int r.S.braid_rounds);
      ("swap_layers", Int r.S.swap_layers);
      ("swaps_inserted", Int r.S.swaps_inserted);
      ("critical_path_cycles", Int r.S.critical_path_cycles);
    ]

let scale_section ~section ~json_out () =
  header "Scale: braiding vs the greedy baseline at paper size (d = 33)";
  let t =
    TP.create
      ~headers:
        [
          ("circuit", TP.Left);
          ("#qubit", TP.Right);
          ("#gate", TP.Right);
          ("braid cycles", TP.Right);
          ("greedy cycles", TP.Right);
          ("braid rounds", TP.Right);
          ("greedy rounds", TP.Right);
          ("braid wall (s)", TP.Right);
          ("greedy wall (s)", TP.Right);
          ("speedup", TP.Right);
        ]
  in
  let rows =
    List.map
      (fun (name, circuit) ->
        let t0 = Unix.gettimeofday () in
        let rb = S.run timing33 circuit in
        let braid_wall = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let rg = GP.run timing33 circuit in
        let greedy_wall = Unix.gettimeofday () -. t1 in
        let speedup =
          float_of_int rg.S.total_cycles /. float_of_int rb.S.total_cycles
        in
        TP.add_row t
          [
            name;
            string_of_int rb.S.num_qubits;
            TP.si_cell (float_of_int rb.S.num_gates);
            TP.si_cell (float_of_int rb.S.total_cycles);
            TP.si_cell (float_of_int rg.S.total_cycles);
            string_of_int rb.S.rounds;
            string_of_int rg.S.rounds;
            Printf.sprintf "%.1f" braid_wall;
            Printf.sprintf "%.1f" greedy_wall;
            Printf.sprintf "%.2fx" speedup;
          ];
        (name, rb, rg, braid_wall, greedy_wall, speedup))
      (scale_circuits ())
  in
  TP.print t;
  print_endline
    "(braid_vs_greedy_speedup = greedy cycles / braid cycles; the greedy \
     baseline is the MICRO'17 braidflash model — dimension-ordered routes, \
     no interference stack, no layout optimizer)";
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String section);
        ("d", Int T.default_d);
        ( "circuits",
          List
            (List.map
               (fun (name, rb, rg, bw, gw, speedup) ->
                 Obj
                   [
                     ("name", String name);
                     ("num_qubits", Int rb.S.num_qubits);
                     ("num_gates", Int rb.S.num_gates);
                     ("braid", scale_result_json rb);
                     ("greedy", scale_result_json rg);
                     ("braid_vs_greedy_speedup", Float speedup);
                     ("braid_wall_s", Float bw);
                     ("greedy_wall_s", Float gw);
                   ])
               rows) );
        ( "wall",
          Obj
            (List.map
               (fun (name, _, _, bw, gw, _) ->
                 (name ^ "_wall_s", Float (bw +. gw)))
               rows) );
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let scale ~json_out () = ignore (scale_section ~section:"scale" ~json_out ())

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* CI smoke for the paper sweep: the QFT-100 point only, braid + greedy,
   checked exactly against the committed BENCH_scale.json entry (cycle
   counts are deterministic) and against a wall budget. `make scale-smoke`
   wires this into `make check`; the full sweep stays behind
   `make bench-scale`. The budget is overridable for slow hosts via
   AUTOBRAID_SCALE_BUDGET_S. *)
let scale_smoke () =
  header "Scale smoke: qft100, braid vs greedy (d = 33)";
  let budget =
    match
      Option.bind
        (Sys.getenv_opt "AUTOBRAID_SCALE_BUDGET_S")
        float_of_string_opt
    with
    | Some b -> b
    | None -> 120.
  in
  let t0 = Unix.gettimeofday () in
  let circuit = B.Qft.circuit 100 in
  let rb = S.run timing33 circuit in
  let rg = GP.run timing33 circuit in
  let wall = Unix.gettimeofday () -. t0 in
  let speedup =
    float_of_int rg.S.total_cycles /. float_of_int rb.S.total_cycles
  in
  Printf.printf
    "qft100: braid %d cycles (%d rounds), greedy %d cycles (%d rounds), \
     speedup %.2fx, wall %.1f s (budget %.0f s)\n"
    rb.S.total_cycles rb.S.rounds rg.S.total_cycles rg.S.rounds speedup wall
    budget;
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if wall > budget then
    failf "wall %.1f s blew the %.0f s budget" wall budget;
  (let module J = Qec_report.Json in
   match J.of_string (read_file "BENCH_scale.json") with
   | exception Sys_error msg -> failf "BENCH_scale.json unreadable: %s" msg
   | Error msg -> failf "BENCH_scale.json unparsable: %s" msg
   | Ok baseline -> (
     let entry =
       match J.member "circuits" baseline with
       | Some (J.List entries) ->
         List.find_opt
           (fun e -> J.member "name" e = Some (J.String "qft100"))
           entries
       | _ -> None
     in
     match entry with
     | None -> failf "BENCH_scale.json has no qft100 entry"
     | Some e ->
       let committed side =
         match
           Option.bind (J.member side e) (J.member "total_cycles")
         with
         | Some (J.Int n) -> Some n
         | _ -> None
       in
       let expect side current =
         match committed side with
         | None -> failf "BENCH_scale.json qft100 lacks %s.total_cycles" side
         | Some n ->
           if n <> current then
             failf "%s cycles diverged from BENCH_scale.json: %d <> %d" side
               current n
       in
       expect "braid" rb.S.total_cycles;
       expect "greedy" rg.S.total_cycles));
  match !failures with
  | [] -> print_endline "scale-smoke: OK"
  | fs ->
    List.iter (fun m -> Printf.printf "scale-smoke FAIL: %s\n" m) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* Engine: batch throughput and the placement cache's payoff            *)

(* An annealing-heavy manifest: every spec repeats one of a few (circuit,
   seed) pairs, the shape batch sweeps actually have, so a warmed
   placement cache should convert most jobs' annealing into hits. *)
let engine_specs =
  let spec ?(backend = "braid") ?(seed = 11) circuit =
    { Qec_engine.Spec.default with circuit; backend; seed }
  in
  [
    spec "qft20";
    spec "qft20" ~backend:"surgery";
    spec "qft20" ~seed:12;
    spec "lr24";
    spec "lr24" ~backend:"surgery";
    spec "qaoa12";
    spec "qaoa12";
    spec "qft16";
    spec "qft16" ~backend:"surgery";
    spec "qft20";
  ]

let engine_section ~json_out () =
  header "Engine: cached multicore batch compilation";
  let jobs = Qec_util.Parallel.default_jobs () in
  let dir = Filename.temp_file "autobraid_bench_cache" "" in
  Sys.remove dir;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let module PC = Qec_engine.Placement_cache in
  let module E = Qec_engine.Engine in
  let cold_cache = PC.create ~dir () in
  let cold_jobs, cold_s =
    time (fun () -> E.run_batch ~jobs ~cache:cold_cache engine_specs)
  in
  let warm_jobs, warm_memory_s =
    time (fun () -> E.run_batch ~jobs ~cache:cold_cache engine_specs)
  in
  let disk_jobs, warm_disk_s =
    time (fun () -> E.run_batch ~jobs ~cache:(PC.create ~dir ()) engine_specs)
  in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir;
  let identical =
    E.jobs_to_jsonl cold_jobs = E.jobs_to_jsonl warm_jobs
    && E.jobs_to_jsonl cold_jobs = E.jobs_to_jsonl disk_jobs
  in
  if not identical then failwith "engine bench: cached results diverged";
  let k = PC.counters cold_cache in
  let t =
    TP.create
      ~headers:
        [
          ("pass", TP.Left);
          ("wall (s)", TP.Right);
          ("speedup", TP.Right);
        ]
  in
  TP.add_row t [ "cold (anneal all)"; Printf.sprintf "%.3f" cold_s; "1.00x" ];
  TP.add_row t
    [
      "warm (memory)";
      Printf.sprintf "%.3f" warm_memory_s;
      Printf.sprintf "%.2fx" (cold_s /. warm_memory_s);
    ];
  TP.add_row t
    [
      "warm (disk)";
      Printf.sprintf "%.3f" warm_disk_s;
      Printf.sprintf "%.2fx" (cold_s /. warm_disk_s);
    ];
  TP.print t;
  Printf.printf
    "(%d specs on %d workers; cold pass: %d annealed placements, warm \
     passes replay them; all three passes byte-identical)\n"
    (List.length engine_specs) jobs k.PC.misses;
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String "engine");
        ("jobs", Int jobs);
        ("specs", Int (List.length engine_specs));
        ("cold_s", Float cold_s);
        ("warm_memory_s", Float warm_memory_s);
        ("warm_disk_s", Float warm_disk_s);
        ("speedup_memory", Float (cold_s /. warm_memory_s));
        ("speedup_disk", Float (cold_s /. warm_disk_s));
        ("placements_computed", Int k.PC.misses);
        ("results_identical", Bool identical);
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let engine ~json_out () = ignore (engine_section ~json_out ())

(* ------------------------------------------------------------------ *)
(* Property-fuzzer throughput: how much generative coverage one CI
   minute buys. Fixed seed, so the numbers are comparable run to run. *)

let prop_section ~json_out () =
  header "Property-fuzzer throughput (fixed seed, full registry)";
  let module R = Qec_prop.Runner in
  let count = 100 in
  let t0 = Unix.gettimeofday () in
  let report = R.run ~seed:42 ~count () in
  let wall = Unix.gettimeofday () -. t0 in
  if report.R.failures <> [] then
    failwith "prop bench: fixed-seed corpus has failures";
  let t =
    TP.create
      ~headers:
        [ ("metric", TP.Left); ("value", TP.Right) ]
  in
  TP.add_row t [ "cases"; string_of_int report.R.cases ];
  TP.add_row t [ "properties"; string_of_int (List.length report.R.properties) ];
  TP.add_row t [ "checks"; string_of_int report.R.checks ];
  TP.add_row t [ "wall (s)"; Printf.sprintf "%.2f" wall ];
  TP.add_row t
    [ "checks/s"; Printf.sprintf "%.0f" (float_of_int report.R.checks /. wall) ];
  TP.print t;
  Printf.printf
    "(every check schedules at least one backend end to end; the CI smoke \
     run covers %d cases per property)\n"
    count;
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String "prop");
        ("seed", Int report.R.seed);
        ("cases", Int report.R.cases);
        ("properties", Int (List.length report.R.properties));
        ("checks", Int report.R.checks);
        ("wall_s", Float wall);
        ("checks_per_s", Float (float_of_int report.R.checks /. wall));
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let prop ~json_out () = ignore (prop_section ~json_out ())

(* ------------------------------------------------------------------ *)
(* Verify: certifier throughput and the mutation corpus's kill rate.
   Every schedule below must certify clean and every applicable mutation
   must be caught — both are hard failures, so the drift-gated counts
   (certificates, invariants_checked, mutations_killed) are exact
   functions of the circuit set and Qec_verify's registries. *)

let verify_circuits =
  [
    ("qft16", B.Qft.circuit 16);
    ("qaoa12", B.Qaoa.circuit 12);
    ("lr16", B.Misc_circuits.longrange 16);
  ]

let verify_section ~json_out () =
  header "Verify: independent schedule certification (d = 33)";
  let module CB = Autobraid.Comm_backend in
  let module V = Qec_verify.Certifier in
  let module M = Qec_verify.Mutate in
  let braid = CB.braid () in
  let surgery = Qec_surgery.Backend.make () in
  let outcomes =
    List.concat_map
      (fun (name, circuit) ->
        List.map
          (fun (backend : CB.t) -> (name, backend.CB.run timing33 circuit))
          [ braid; surgery ])
      verify_circuits
  in
  let t0 = Unix.gettimeofday () in
  let certs =
    List.map
      (fun (name, o) ->
        let cert =
          V.certify ~backend:o.CB.backend ~result:o.CB.result timing33
            o.CB.trace
        in
        if not (V.ok cert) then
          failwith
            (Printf.sprintf "verify bench: %s (%s): %s" name o.CB.backend
               (V.to_summary cert));
        cert)
      outcomes
  in
  let certify_s = Unix.gettimeofday () -. t0 in
  let applied = ref 0 and killed = ref 0 in
  List.iter
    (fun (name, o) ->
      List.iter
        (fun kind ->
          match M.apply kind timing33 o.CB.result o.CB.trace with
          | None -> ()
          | Some (result, trace) ->
            incr applied;
            let cert = V.certify ~result timing33 trace in
            if V.ok cert then
              failwith
                (Printf.sprintf
                   "verify bench: mutation %s survived certification on %s \
                    (%s)"
                   (M.name kind) name o.CB.backend)
            else incr killed)
        M.all)
    outcomes;
  let schedules = List.length certs in
  let invariants_checked =
    schedules * List.length Qec_verify.Invariant.all
  in
  let t =
    TP.create ~headers:[ ("metric", TP.Left); ("value", TP.Right) ] in
  TP.add_row t [ "schedules certified"; string_of_int schedules ];
  TP.add_row t [ "invariants checked"; string_of_int invariants_checked ];
  TP.add_row t
    [
      "mutations killed";
      Printf.sprintf "%d/%d" !killed !applied;
    ];
  TP.add_row t [ "certify wall (s)"; Printf.sprintf "%.3f" certify_s ];
  TP.add_row t
    [
      "certificates/s";
      Printf.sprintf "%.0f" (float_of_int schedules /. certify_s);
    ];
  TP.print t;
  print_endline
    "(certification re-derives every invariant from the trace alone; a \
     surviving mutation or a failed certificate aborts the bench)";
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String "verify");
        ("d", Int T.default_d);
        ("certificates", Int schedules);
        ("invariants_checked", Int invariants_checked);
        ("mutations_applied", Int !applied);
        ("mutations_killed", Int !killed);
        ("certify_s", Float certify_s);
        ( "certificates_per_s",
          Float (float_of_int schedules /. certify_s) );
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let verify ~json_out () = ignore (verify_section ~json_out ())

(* ------------------------------------------------------------------ *)
(* Serve: daemon round-trip latency/throughput against an in-process
   server, cold placement cache vs warm. Every request crosses the real
   socket + protocol + admission path, so requests/s is an end-to-end
   number, not an engine microbenchmark. *)

let serve_section ~json_out () =
  header "Serve: daemon round-trips, cold vs warm placement cache";
  let module Server = Qec_serve.Server in
  let module C = Qec_serve.Client in
  let module P = Qec_serve.Protocol in
  let die fmt = Printf.ksprintf failwith fmt in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "absrvb%d.sock" (Unix.getpid ()))
  in
  let jobs = min 2 (Qec_util.Parallel.default_jobs ()) in
  let config = { (Server.default_config ~socket ()) with jobs } in
  let daemon = Domain.spawn (fun () -> Server.run config) in
  let client =
    match C.connect_retry socket with
    | Ok c -> c
    | Error msg -> die "serve bench: %s" msg
  in
  (* distinct (circuit, seed) pairs: every request of the cold pass
     anneals its own placement; the warm pass replays all of them from
     the daemon's shared in-memory cache *)
  let specs =
    List.concat_map
      (fun circuit ->
        List.map
          (fun seed -> { Qec_engine.Spec.default with circuit; seed })
          [ 1; 2; 3; 4 ])
      [ "qft9"; "bv12" ]
  in
  let request spec =
    let t0 = Unix.gettimeofday () in
    match C.compile client spec with
    | Ok (P.Result _) -> Unix.gettimeofday () -. t0
    | Ok _ -> die "serve bench: unexpected response"
    | Error msg -> die "serve bench: %s" msg
  in
  let pass () =
    let t0 = Unix.gettimeofday () in
    let latencies = List.map request specs in
    (Unix.gettimeofday () -. t0, latencies)
  in
  let cold_wall, cold_lat = pass () in
  let warm_wall, warm_lat = pass () in
  (match C.shutdown client with
  | Ok _ -> ()
  | Error msg -> die "serve bench: shutdown: %s" msg);
  C.close client;
  Domain.join daemon;
  let p95 latencies =
    let a = Array.of_list latencies in
    Array.sort compare a;
    a.(min (Array.length a - 1)
         (int_of_float (float_of_int (Array.length a - 1) *. 0.95 +. 0.5)))
  in
  let n = List.length specs in
  let requests_per_s = float_of_int n /. warm_wall in
  let warm_speedup = cold_wall /. warm_wall in
  let t =
    TP.create
      ~headers:
        [ ("pass", TP.Left); ("wall (s)", TP.Right); ("p95 (ms)", TP.Right) ]
  in
  TP.add_row t
    [
      "cold (anneal per request)";
      Printf.sprintf "%.3f" cold_wall;
      Printf.sprintf "%.2f" (1e3 *. p95 cold_lat);
    ];
  TP.add_row t
    [
      "warm (shared cache)";
      Printf.sprintf "%.3f" warm_wall;
      Printf.sprintf "%.2f" (1e3 *. p95 warm_lat);
    ];
  TP.print t;
  Printf.printf
    "(%d requests per pass over one connection, %d workers; warm pass: \
     %.0f requests/s, %.2fx over cold)\n"
    n jobs requests_per_s warm_speedup;
  let json =
    let open Qec_report.Json in
    Obj
      [
        ("section", String "serve");
        ("jobs", Int jobs);
        ("requests", Int (2 * n));
        ("cold_wall_s", Float cold_wall);
        ("warm_wall_s", Float warm_wall);
        ("p95_cold_s", Float (p95 cold_lat));
        ("p95_warm_s", Float (p95 warm_lat));
        ("requests_per_s", Float requests_per_s);
        ("warm_speedup", Float warm_speedup);
      ]
  in
  Option.iter (fun path -> write_json path json) json_out;
  json

let serve ~json_out () = ignore (serve_section ~json_out ())

(* ------------------------------------------------------------------ *)
(* Drift gating: `--check BENCH_*.json` re-measures the file's section
   and fails on cycle-count (or wall-time) regressions past tolerance.   *)

(* Re-measure the section a committed snapshot claims to be. Only the
   json-producing sections can be gated. *)
let current_for_section = function
  | "backends" ->
    Some (backends_section ~section:"backends" ~circuits:backend_circuits
            ~json_out:None ())
  | "scale" -> Some (scale_section ~section:"scale" ~json_out:None ())
  | "engine" -> Some (engine_section ~json_out:None ())
  | "prop" -> Some (prop_section ~json_out:None ())
  | "verify" -> Some (verify_section ~json_out:None ())
  | "serve" -> Some (serve_section ~json_out:None ())
  | _ -> None

(* Returns true when [path] passes. Prints a verdict either way. *)
let drift_check ~tolerance ~wall_tolerance path =
  let module D = Qec_obs.Drift in
  let module J = Qec_report.Json in
  let fail msg =
    Printf.printf "DRIFT FAIL %s: %s\n" path msg;
    false
  in
  match J.of_string (read_file path) with
  | Error msg -> fail ("unparsable baseline: " ^ msg)
  | Ok baseline -> (
    match J.member "section" baseline with
    | Some (J.String section) -> (
      match current_for_section section with
      | None -> fail (Printf.sprintf "section %S is not drift-gated" section)
      | Some current ->
        let o = D.check ~tolerance ~wall_tolerance ~baseline ~current in
        header (Printf.sprintf "Drift check: %s (section %s)" path section);
        Printf.printf
          "%d gated metrics, tolerance %.0f%% (cycle) / %.0f%% (wall)\n"
          o.D.checked (100. *. tolerance) (100. *. wall_tolerance);
        List.iter
          (fun f -> Printf.printf "  REGRESSION %s\n" (D.pp_finding f))
          o.D.regressions;
        List.iter
          (fun p -> Printf.printf "  MISSING %s (baseline metric absent)\n" p)
          o.D.missing;
        List.iter
          (fun f -> Printf.printf "  improved %s\n" (D.pp_finding f))
          o.D.improvements;
        if D.passed o then (
          Printf.printf "DRIFT OK %s\n" path;
          true)
        else
          fail
            (Printf.sprintf "%d regression(s), %d missing metric(s)"
               (List.length o.D.regressions)
               (List.length o.D.missing)))
    | _ -> fail "baseline has no \"section\" key")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure driver     *)

let micro () =
  header "Bechamel micro-benchmarks (one per table/figure, reduced size)";
  let open Bechamel in
  let open Toolkit in
  let qft16 = B.Qft.circuit 16 in
  let im16 = B.Ising.circuit ~steps:4 16 in
  let qaoa16 = B.Qaoa.circuit 16 in
  let grid4 = Qec_lattice.Grid.create 4 in
  let tests =
    [
      Test.make ~name:"table1:llg-census"
        (Staged.stage (fun () ->
             IL.oversize_census qft16
               (IL.place ~method_:IL.Partitioned qft16 grid4)));
      Test.make ~name:"table2:autobraid-full"
        (Staged.stage (fun () -> Autobraid.Scheduler.run timing33 qft16));
      Test.make ~name:"table2:gp-baseline"
        (Staged.stage (fun () -> GP.run timing33 qft16));
      Test.make ~name:"fig16:scalability-point"
        (Staged.stage (fun () -> Autobraid.Scheduler.run ~options:sp_options timing33 im16));
      Test.make ~name:"fig17:utilization-point"
        (Staged.stage (fun () ->
             (Autobraid.Scheduler.run ~options:sp_options timing33 qaoa16).Autobraid.Scheduler.avg_utilization));
      Test.make ~name:"fig18:p-sweep-point"
        (Staged.stage (fun () ->
             Autobraid.Scheduler.run
               ~options:{ Autobraid.Scheduler.default_options with threshold_p = 0.5 }
               timing33 qaoa16));
    ]
  in
  let test = Test.make_grouped ~name:"autobraid" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let results = Analyze.merge ols Instance.[ monotonic_clock ] [ results ] in
  let () =
    Bechamel_notty.Unit.add Instance.monotonic_clock
      (Measure.unit Instance.monotonic_clock)
  in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol img)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let rec find_json = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find_json rest
    | [] -> None
  in
  let json_out = find_json args in
  let rec find_all flag = function
    | f :: v :: rest when f = flag -> v :: find_all flag rest
    | _ :: rest -> find_all flag rest
    | [] -> []
  in
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
    let t0 = Unix.gettimeofday () in
    let ok =
      List.fold_left
        (fun acc path -> drift_check ~tolerance ~wall_tolerance path && acc)
        true checks
    in
    Printf.printf "\n[drift check completed in %.1f s]\n"
      (Unix.gettimeofday () -. t0);
    exit (if ok then 0 else 1)
  end;
  let sections =
    let rec strip = function
      | ("--json" | "--check" | "--tolerance" | "--wall-tolerance")
        :: _ :: rest ->
        strip rest
      | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" ->
        strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let section = match sections with s :: _ -> s | [] -> "all" in
  let t0 = Unix.gettimeofday () in
  (match section with
  | "table1" -> profiled "table1" (table1 ~full)
  | "table2" -> profiled "table2" (table2 ~full)
  | "fig16" -> profiled "fig16" (fun () -> fig16 (run_sweep ~full ()))
  | "fig17" -> profiled "fig17" (fun () -> fig17 (run_sweep ~full ()))
  | "fig18" -> profiled "fig18" (fig18 ~full)
  | "compile-time" -> profiled "compile-time" compile_time
  | "ablation" -> profiled "ablation" ablation
  | "planar" -> profiled "planar" planar
  | "backends" -> profiled "backends" (backends ~json_out)
  | "scale" -> profiled "scale" (scale ~json_out)
  | "scale-smoke" -> profiled "scale-smoke" scale_smoke
  | "engine" -> profiled "engine" (engine ~json_out)
  | "prop" -> profiled "prop" (prop ~json_out)
  | "verify" -> profiled "verify" (verify ~json_out)
  | "serve" -> profiled "serve" (serve ~json_out)
  | "micro" -> profiled "micro" micro
  | "all" ->
    profiled "table1" (table1 ~full);
    profiled "table2" (table2 ~full);
    let points = profiled "sweep" (run_sweep ~full) in
    profiled "fig16" (fun () -> fig16 points);
    profiled "fig17" (fun () -> fig17 points);
    profiled "fig18" (fig18 ~full);
    profiled "compile-time" compile_time;
    profiled "ablation" ablation;
    profiled "planar" planar;
    profiled "backends" (backends ~json_out);
    (* --json names one file; in `all` mode it belongs to `backends` *)
    profiled "engine" (engine ~json_out:None);
    profiled "prop" (prop ~json_out:None);
    profiled "verify" (verify ~json_out:None);
    profiled "serve" (serve ~json_out:None);
    profiled "micro" micro
  | other ->
    Printf.eprintf
      "unknown section %S (expected table1|table2|fig16|fig17|fig18|compile-time|ablation|planar|backends|scale|scale-smoke|engine|prop|verify|serve|micro|all)\n"
      other;
    exit 2);
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
