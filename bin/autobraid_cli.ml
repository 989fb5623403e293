(* autobraid — command-line front end.

   Subcommands:
     compile    schedule one circuit on a communication backend (braid,
                surgery, lookahead, or compare all three side by side;
                docs/backends.md) and report latency/utilization;
                `schedule` is a deprecated name for it
     batch      compile a JSON manifest of specs on a multicore worker
                pool with a shared placement cache (see docs/engine.md)
     serve      compilation daemon on a Unix-domain socket, or a client of
                one (docs/serve.md)
     profile    per-phase wall/self time of a circuit or manifest across
                repeated runs (docs/observability.md)
     info       static analysis: sizes, depth, parallelism, LLG census
     lint       span-aware diagnostics (QLxxx rules, see docs/lint.md)
     verify     independent schedule certification (docs/verify.md)
     fuzz       property-based fuzzing with shrinking (docs/testing.md)
     resources  surface-code resource estimates for a qubit count / target P_L
     emit       write a built-in benchmark as OpenQASM 2.0
     sweep      p-threshold sensitivity sweep (Fig. 18 style)
     trace      record, certify and render a schedule trace
     export     a run as JSON, the coupling graph as DOT, a p-sweep as CSV
     backends   list registered backends and their --backend-opt schemas
     list       list built-in benchmarks

   Circuits are named either by a built-in benchmark ("qft50", "urf2_277",
   see `autobraid list`) or by a path to a .qasm / .real file. *)

open Cmdliner
module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine
module Engine_core = Qec_engine.Engine_core

(* Backends resolve by registry name everywhere (--backend, batch specs);
   register the built-ins before any command parses. *)
let () = Engine.ensure_backends ()

(* The exit rule of every command that compiles one circuit: an unknown
   circuit or a spec the engine rejects is unusable input and exits 2;
   anything else that fails (a parse error, a failed run) exits 1. *)
let exit_of_kind = function "circuit-not-found" | "invalid-spec" -> 2 | _ -> 1

(* The one renderer for engine errors: the bare message on stderr (parse
   errors are file:line:col-prefixed), then the rule above. *)
let die_engine_text (e : Engine_core.error) =
  prerr_endline e.message;
  exit (exit_of_kind e.kind)

let validate_or_die spec =
  Result.iter_error
    (fun message -> die_engine_text { kind = "invalid-spec"; message })
    (Spec.validate spec)

(* The engine's loader: a .qasm / .real path or a benchmark name. Malformed
   inputs exit with a diagnostic, never an OCaml backtrace. *)
let load_circuit circuit =
  match
    Engine_core.load_circuit { Spec.default with circuit }
  with
  | Ok c -> c
  | Error e -> die_engine_text e

(* Print [text], or write it to FILE when an output file was given. *)
let print_or_write out text =
  match out with
  | None -> print_string text
  | Some path -> Out_channel.with_open_text path (fun oc -> output_string oc text)

(* What a command body can still raise once its circuit has loaded — an
   unwritable output file, say — also exits 1 with a bare message. *)
let guarded f =
  try f () with
  | Sys_error msg ->
    prerr_endline msg;
    exit 1

(* ---------------- common args ---------------- *)

let circuit_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT" ~doc:"Benchmark name (e.g. qft50) or file path")

let distance_arg =
  Arg.(
    value
    & opt int Qec_surface.Timing.default_d
    & info [ "d"; "distance" ] ~docv:"D" ~doc:"Surface code distance")

let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"N" ~doc:"Random seed")

let threshold_arg =
  Arg.(
    value
    & opt float 0.3
    & info [ "p"; "threshold" ] ~docv:"P"
        ~doc:"Layout-optimizer trigger threshold in [0,1)")

let scheduler_kind =
  Arg.enum [ ("full", Spec.Full); ("sp", Spec.Sp); ("baseline", Spec.Baseline) ]

let scheduler_arg =
  Arg.(
    value
    & opt scheduler_kind Spec.Full
    & info [ "s"; "scheduler" ] ~docv:"KIND"
        ~doc:"Scheduler: full (autobraid), sp (no layout opt), baseline (GP)")

let initial_kind =
  Arg.enum
    (List.map
       (fun m -> (Spec.initial_to_string m, m))
       Autobraid.Initial_layout.[ Identity; Bisected; Partitioned; Annealed ])

let initial_arg =
  Arg.(
    value
    & opt initial_kind Autobraid.Initial_layout.Annealed
    & info [ "initial" ] ~docv:"METHOD"
        ~doc:"Initial placement: identity, bisect, metis or anneal")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the peephole optimizer (inverse cancellation, rotation \
              merging) before scheduling")

let best_p_arg =
  Arg.(
    value & flag
    & info [ "best-p" ]
        ~doc:"Sweep p over 0.0-0.9 and keep the best (slower; braid backend, \
             full scheduler only)")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"Independently certify the schedule's trace after the run \
              (Qec_verify; docs/verify.md); a failed certificate exits 1")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect telemetry and print counter / per-phase self-time \
              summaries after the run")

let telemetry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE.jsonl"
        ~doc:"Stream telemetry records (spans, counters, gauges, \
              histograms) to FILE as JSON lines; see docs/observability.md")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.json"
        ~doc:"Write a Chrome trace-event (Perfetto) trace to FILE — one \
              lane per worker domain; open it at ui.perfetto.dev (see \
              docs/observability.md)")

(* The sinks a run installs (--metrics, --telemetry-out, --trace-out). *)
type telemetry = {
  metrics : bool;
  telemetry_out : string option;
  trace_out : string option;
}

let telemetry_args =
  Term.(
    const (fun metrics telemetry_out trace_out ->
        { metrics; telemetry_out; trace_out })
    $ metrics_arg $ telemetry_out_arg $ trace_out_arg)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout)")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains (default: available cores)")

(* The engine checks the name (Spec.validate), so an unknown backend gets
   the engine's message and exit 2 like any other rejected spec. *)
let backend_arg =
  Arg.(
    value & opt string "braid"
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          (Printf.sprintf
             "Communication backend (registered: %s); compile also takes \
              compare (run braid, surgery and lookahead, print a \
              side-by-side table)"
             (String.concat ", "
                (List.map
                   (fun (e : Autobraid.Comm_backend.entry) ->
                     Printf.sprintf "%s (%s)" e.name e.description)
                   (Autobraid.Comm_backend.all ())))))

let backend_opt_arg =
  Arg.(
    value & opt_all string []
    & info [ "backend-opt" ] ~docv:"KEY=VALUE"
        ~doc:
          "Backend-specific option (repeatable), checked against the \
           backend's declared schema — `autobraid backends` lists every \
           key. Supersedes the braid-only -p/-s spellings, which survive \
           as compatibility aliases.")

(* What a SIGINT/SIGTERM must flush before the process dies. Long
   commands (batch, fuzz, serve client runs) install the handlers; the
   hook is populated by with_telemetry while sinks are live, so an
   interrupted run still gets its --telemetry-out file closed and its
   --trace-out Perfetto trace written (the placement cache needs no
   flushing — it persists entries as they are inserted). The handler
   exits directly instead of raising: an exception from a signal handler
   would surface at an arbitrary safe point and be swallowed by the
   engine's per-job catch-all. *)
let signal_flush_hook : (unit -> unit) ref = ref (fun () -> ())

let install_interrupt_flush () =
  let handle signum =
    !signal_flush_hook ();
    (* [signum] is OCaml's portable (negative) signal number, not the OS
       one — map it back so the exit code is the conventional 128+N. *)
    let os = if signum = Sys.sigterm then 15 else 2 in
    Stdlib.exit (128 + os)
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* Install the requested sinks around [f], then print the --metrics
   summary after whatever [f] printed itself and write the --trace-out
   Perfetto file. *)
let with_telemetry { metrics; telemetry_out; trace_out } f =
  if (not metrics) && telemetry_out = None && trace_out = None then f ()
  else begin
    let collector =
      if metrics then Some (Qec_telemetry.Collector.create ()) else None
    in
    (* Perfetto export needs the whole record set, so --trace-out rides on
       its own collector and renders after the run. *)
    let trace_collector =
      Option.map (fun _ -> Qec_telemetry.Collector.create ()) trace_out
    in
    let sinks =
      List.filter_map
        (Option.map Qec_telemetry.Collector.sink)
        [ collector; trace_collector ]
      @
      match telemetry_out with
      | Some path -> begin
        match open_out path with
        | oc -> [ Qec_telemetry.Jsonl.channel_sink ~close:true oc ]
        | exception Sys_error msg ->
          Printf.eprintf "cannot open telemetry output: %s\n" msg;
          exit 2
      end
      | None -> []
    in
    let write_trace () =
      match (trace_out, trace_collector) with
      | Some path, Some c -> begin
        match Qec_obs.Perfetto.write path c with
        | () -> Ok ()
        | exception Sys_error msg -> Error msg
      end
      | _ -> Ok ()
    in
    signal_flush_hook :=
      (fun () ->
        (* uninstall = flush aggregates + close sinks (the --telemetry-out
           channel sink closes its file here) *)
        Qec_telemetry.Telemetry.uninstall ();
        ignore (write_trace ()));
    let result =
      Fun.protect
        ~finally:(fun () -> signal_flush_hook := fun () -> ())
        (fun () ->
          Qec_telemetry.Telemetry.with_sink
            (Qec_telemetry.Telemetry.tee sinks)
            f)
    in
    Option.iter
      (fun c ->
        print_newline ();
        Qec_telemetry.Collector.print_summary c)
      collector;
    (match write_trace () with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "cannot write trace: %s\n" msg;
      exit 2);
    result
  end

(* ---------------- the request ---------------- *)

(* Every command that compiles builds a Spec and runs it through
   Engine.run_spec. A single-circuit command (compile, verify, profile,
   serve --connect) reads its request from [request_args]: one flag per
   Spec field a manifest can set, so the knobs a manifest can set and the
   knobs these command lines can set are one set. *)
type request = {
  base : Spec.t;  (* every field but the circuit and backend_options *)
  backend_opts : string list;  (* raw --backend-opt pairs *)
}

let request_args =
  Term.(
    const
      (fun backend d seed threshold_p scheduler initial backend_opts optimize
           best_p certificate ->
        {
          base =
            {
              Spec.default with
              backend;
              d;
              seed;
              threshold_p;
              scheduler;
              initial;
              optimize;
              best_p;
              outputs = { Spec.default.outputs with certificate };
            };
          backend_opts;
        })
    $ backend_arg $ distance_arg $ seed_arg $ threshold_arg $ scheduler_arg
    $ initial_arg $ backend_opt_arg $ optimize_arg $ best_p_arg
    $ certify_arg)

(* The one spec builder: names the circuit, adds the requested outputs,
   and appends --backend-opt pairs parsed against the schema Spec picks
   for the finished request. A backend the engine does not know has no
   schema, so its pairs report the engine's message, not a bad key. *)
let spec_of ?(backend_opts = []) ?(trace = false) ?(certify = false) ~circuit
    (s : Spec.t) =
  let s =
    {
      s with
      circuit;
      outputs =
        {
          s.outputs with
          trace = s.outputs.trace || trace;
          certificate = s.outputs.certificate || certify;
        };
    }
  in
  let parse arg =
    match Autobraid.Comm_backend.Options.parse_kv (Spec.options_schema s) arg with
    | Ok kv -> kv
    | Error msg ->
      validate_or_die s;
      Printf.eprintf "--backend-opt: %s\n" msg;
      exit 2
  in
  { s with backend_options = s.backend_options @ List.map parse backend_opts }

let request_spec ?certify { base; backend_opts } circuit =
  spec_of ?certify ~backend_opts ~circuit base

let run_or_die spec =
  match Engine.run_spec spec with Ok p -> p | Error e -> die_engine_text e

(* The best-p threshold curve (sweep, export -f csv). *)
let best_p_curve ~d circuit =
  Option.get (run_or_die (spec_of ~circuit { Spec.default with d; best_p = true })).curve

let is_manifest target =
  Sys.file_exists target && Filename.check_suffix target ".json"

(* The one manifest reader: an unreadable or malformed manifest is
   unusable input — its message on stderr, exit 2. *)
let read_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    prerr_endline msg;
    exit 2
  | text -> (
    match Spec.manifest_of_string text with
    | Ok specs -> specs
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2)

(* A certificate's summary line plus the witnesses of each failed
   invariant. *)
let print_certificate_summary cert =
  print_endline (Qec_verify.Certifier.to_summary cert);
  List.iter
    (fun inv ->
      List.iter
        (fun w -> print_endline ("  " ^ Qec_verify.Certifier.witness_to_string w))
        (Qec_verify.Certifier.witnesses_for cert inv))
    (Qec_verify.Certifier.failed cert)

(* Render a payload's certificate (when one was requested) and return
   whether it failed — callers turn that into exit 1. *)
let print_certificate (payload : Engine_core.payload) =
  match payload.certificate with
  | None -> false
  | Some cert ->
    print_newline ();
    print_certificate_summary cert;
    not (Qec_verify.Certifier.ok cert)

(* ---------------- compile ---------------- *)

let print_result timing (r : Autobraid.Scheduler.result) =
  let t = Qec_util.Tableprint.create
      ~headers:[ ("metric", Qec_util.Tableprint.Left); ("value", Qec_util.Tableprint.Right) ]
  in
  let add k v = Qec_util.Tableprint.add_row t [ k; v ] in
  add "circuit" r.name;
  add "logical qubits" (string_of_int r.num_qubits);
  add "lattice" (Printf.sprintf "%dx%d tiles" r.lattice_side r.lattice_side);
  add "gates (lowered)" (string_of_int r.num_gates);
  add "two-qubit gates" (string_of_int r.num_two_qubit);
  add "rounds" (string_of_int r.rounds);
  add "braid rounds" (string_of_int r.braid_rounds);
  add "swap layers" (string_of_int r.swap_layers);
  add "swaps inserted" (string_of_int r.swaps_inserted);
  add "total cycles" (string_of_int r.total_cycles);
  add "execution time"
    (Printf.sprintf "%s us"
       (Qec_util.Tableprint.si_cell (Autobraid.Scheduler.time_us timing r)));
  add "critical path"
    (Printf.sprintf "%s us"
       (Qec_util.Tableprint.si_cell
          (Autobraid.Scheduler.critical_path_us timing r)));
  add "vs critical path"
    (Printf.sprintf "%.2fx"
       (float_of_int r.total_cycles /. float_of_int (max 1 r.critical_path_cycles)));
  add "avg utilization" (Printf.sprintf "%.1f%%" (100. *. r.avg_utilization));
  add "peak utilization" (Printf.sprintf "%.1f%%" (100. *. r.peak_utilization));
  add "compile time" (Printf.sprintf "%.3f s" r.compile_time_s);
  let exposure = Autobraid.Reliability.exposure_of_result timing r in
  add "exposure"
    (Printf.sprintf "%.0f qubit-blocks"
       (Autobraid.Reliability.total_blocks exposure));
  add "failure prob."
    (Printf.sprintf "%.2e"
       (Autobraid.Reliability.failure_probability ~d:timing.Qec_surface.Timing.d
          exposure));
  Qec_util.Tableprint.print t

let print_peephole (payload : Engine_core.payload) =
  match payload.peephole with
  | None -> ()
  | Some (stats, before, after) ->
    Printf.printf
      "peephole: cancelled %d pairs, merged %d rotations (%d -> %d gates)\n"
      stats.Qec_circuit.Optimize.cancelled_pairs
      stats.Qec_circuit.Optimize.merged_rotations before after

let print_backend_stats = function
  | [] -> ()
  | stats ->
    print_newline ();
    print_endline "backend stats:";
    List.iter
      (fun (k, v) ->
        if Float.is_integer v then Printf.printf "  %-20s %.0f\n" k v
        else Printf.printf "  %-20s %.2f\n" k v)
      stats

(* One column per backend, first column is the reference the speedup
   lines divide by (the braid baseline in compare mode). *)
let print_comparison timing
    (results : (string * Autobraid.Scheduler.result) list) =
  match results with
  | [] -> ()
  | (base_name, base) :: rest ->
    let t =
      Qec_util.Tableprint.create
        ~headers:
          (("metric", Qec_util.Tableprint.Left)
          :: List.map (fun (n, _) -> (n, Qec_util.Tableprint.Right)) results)
    in
    let add k f =
      Qec_util.Tableprint.add_row t (k :: List.map (fun (_, r) -> f r) results)
    in
    add "total cycles" (fun r ->
        string_of_int r.Autobraid.Scheduler.total_cycles);
    add "execution time (us)" (fun r ->
        Qec_util.Tableprint.si_cell (Autobraid.Scheduler.time_us timing r));
    add "rounds" (fun r -> string_of_int r.Autobraid.Scheduler.rounds);
    add "comm rounds" (fun r ->
        string_of_int r.Autobraid.Scheduler.braid_rounds);
    add "swap layers" (fun r ->
        string_of_int r.Autobraid.Scheduler.swap_layers);
    add "swaps inserted" (fun r ->
        string_of_int r.Autobraid.Scheduler.swaps_inserted);
    add "avg utilization" (fun r ->
        Printf.sprintf "%.1f%%" (100. *. r.Autobraid.Scheduler.avg_utilization));
    add "peak utilization" (fun r ->
        Printf.sprintf "%.1f%%"
          (100. *. r.Autobraid.Scheduler.peak_utilization));
    Qec_util.Tableprint.print t;
    print_newline ();
    List.iter
      (fun (n, (r : Autobraid.Scheduler.result)) ->
        Printf.printf "speedup (%s/%s cycles): %.2fx\n" base_name n
          (float_of_int base.Autobraid.Scheduler.total_cycles
          /. float_of_int (max 1 r.Autobraid.Scheduler.total_cycles)))
      rest

(* One compile, or --backend compare: braid, surgery and lookahead run
   with the same request and print side by side. *)
let compile_term =
  let run circuit ({ base; backend_opts } as request) tel =
    let code =
      with_telemetry tel @@ fun () ->
      let timing () = Qec_surface.Timing.make ~d:base.d () in
      match base.backend with
      | "compare" ->
        if backend_opts <> [] then begin
          (* Each backend has its own schema; one key=value list cannot
             target three of them at once. *)
          prerr_endline "--backend-opt does not apply to --backend compare";
          exit 2
        end;
        let payloads =
          List.map
            (fun backend -> run_or_die (spec_of ~circuit { base with backend }))
            [ "braid"; "surgery"; "lookahead" ]
        in
        print_peephole (List.hd payloads);
        print_comparison (timing ())
          (List.map
             (fun (p : Engine_core.payload) -> (p.backend, p.result))
             payloads);
        let failures = List.map print_certificate payloads in
        if List.exists Fun.id failures then 1 else 0
      | _ ->
        let payload = run_or_die (request_spec request circuit) in
        print_peephole payload;
        print_result (timing ()) payload.result;
        print_backend_stats payload.stats;
        if print_certificate payload then 1 else 0
    in
    if code <> 0 then exit code
  in
  Term.(const run $ circuit_arg $ request_args $ telemetry_args)

let compile_doc =
  "Schedule a circuit on a communication backend and report its latency, \
   utilization and reliability. Exit 0 on success, 1 when the run or its \
   certificate fails, 2 on an unknown circuit or a request the engine \
   rejects."

let compile_cmd = Cmd.v (Cmd.info "compile" ~doc:compile_doc) compile_term

let schedule_cmd =
  Cmd.v
    (Cmd.info "schedule" ~deprecated:"deprecated, use `autobraid compile` instead"
       ~doc:compile_doc)
    compile_term

(* ---------------- batch ---------------- *)

let batch_cmd =
  let run manifest jobs cache_dir out timings backend_opts certify tel =
    (* A batch is the long-running command: Ctrl-C / SIGTERM mid-run must
       still flush the telemetry sinks (cache entries persist as they are
       inserted, so the cache needs nothing). *)
    install_interrupt_flush ();
    (* Returns the exit code out of the wrapper instead of exiting inline:
       [exit] does not unwind, and a failed job must not skip the
       --trace-out / --telemetry-out flush. *)
    let code =
      with_telemetry tel @@ fun () ->
    (* --backend-opt pairs are appended after each job's own options, so
       the command line wins; every job's backend must accept every given
       key. *)
    let specs =
      List.map
        (fun (s : Spec.t) -> spec_of ~certify ~backend_opts ~circuit:s.circuit s)
        (read_manifest manifest)
    in
    let cache =
      match Qec_engine.Placement_cache.create ?dir:cache_dir () with
      | Ok cache -> cache
      | Error msg ->
        prerr_endline ("batch: " ^ msg);
        exit 2
    in
    let t0 = Unix.gettimeofday () in
    let results = Engine.run_batch ?jobs ~cache specs in
    let elapsed = Unix.gettimeofday () -. t0 in
    let jsonl = Engine_core.jobs_to_jsonl ~timings results in
    print_or_write out jsonl;
    let failed = Engine_core.errors results in
    let uncertified =
      List.filter
        (fun (j : Engine_core.job) ->
          match j.outcome with
          | Ok { certificate = Some c; _ } ->
            not (Qec_verify.Certifier.ok c)
          | _ -> false)
        results
    in
    let k = Qec_engine.Placement_cache.counters cache in
    Printf.eprintf
      "batch: %d jobs, %d ok, %d failed; placement cache %d+%d hits / %d \
       misses; %.2f s\n"
      (List.length results)
      (List.length results - List.length failed)
      (List.length failed)
      k.Qec_engine.Placement_cache.memory_hits
      k.Qec_engine.Placement_cache.disk_hits
      k.Qec_engine.Placement_cache.misses elapsed;
      if uncertified <> [] then
        Printf.eprintf "batch: %d job(s) failed certification\n"
          (List.length uncertified);
      if failed <> [] || uncertified <> [] then 1 else 0
    in
    if code <> 0 then exit code
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "JSON manifest: an array of compile specs, or {\"version\": 1, \
             \"jobs\": [...]} — see docs/engine.md for the schema")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the content-addressed placement cache in DIR (created \
             if missing); warm runs skip the annealing cost")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE.jsonl"
          ~doc:"Write results as JSON lines to FILE (default stdout)")
  in
  let timings_arg =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Include per-job wall time and cache status in each record \
             (non-deterministic fields, off by default so output is \
             byte-stable)")
  in
  let batch_certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Force the certificate output on every job: each worker \
             independently certifies its own schedule (docs/verify.md); \
             any failed certificate makes the batch exit 1")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compile a manifest of specs on a multicore worker pool with a \
          shared placement cache. Results stream to JSONL in manifest \
          order (byte-identical for any --jobs); per-job failures become \
          structured error records, and the exit code is 1 when any job \
          failed, 2 on an unusable manifest, 0 otherwise.")
    Term.(
      const run $ manifest_arg $ jobs_arg $ cache_dir_arg $ out_arg
      $ timings_arg $ backend_opt_arg $ batch_certify_arg $ telemetry_args)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run target request repeat jobs json trace_out =
    (* TARGET is a batch manifest when it is a JSON file, else a single
       circuit spec built from the request flags. *)
    let specs =
      if is_manifest target then read_manifest target
      else begin
        (* A spec the engine rejects (an unknown backend, -d 0) or an
           unknown or malformed circuit is an unusable target, not a job
           that fails on every repeat. *)
        let s = request_spec request target in
        validate_or_die s;
        Result.iter_error die_engine_text (Engine_core.load_circuit s);
        [ s ]
      end
    in
    let report, collector = Qec_obs.Profile.run ?jobs ~repeat specs in
    if json then
      print_endline
        (Qec_report.Json.to_string ~indent:true (Qec_obs.Profile.to_json report))
    else Qec_obs.Profile.print report;
    (match trace_out with
    | None -> ()
    | Some path -> begin
      match Qec_obs.Perfetto.write path collector with
      | () -> if not json then Printf.printf "\nwrote %s\n" path
      | exception Sys_error msg ->
        Printf.eprintf "cannot write trace: %s\n" msg;
        exit 2
    end);
    List.iter
      (fun (i, circuit, msg) ->
        Printf.eprintf "profile: job %d (%s): %s\n" i circuit msg)
      report.Qec_obs.Profile.errors;
    if report.Qec_obs.Profile.jobs_failed > 0 then exit 1
  in
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"Circuit (benchmark name or .qasm/.real path) or a batch \
                manifest (.json)")
  in
  let repeat_arg =
    Arg.(
      value & opt int 5
      & info [ "r"; "repeat" ] ~docv:"N"
          ~doc:"Measured runs; statistics are min/median/p95 across them")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the autobraid-profile/v1 JSON report (stable schema \
                and key order) instead of tables")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a spec or batch manifest N times and report per-phase \
          wall/self time (min/median/p95 across runs), with optional \
          Perfetto trace export of the last run. Exit 1 when any job \
          failed, 2 on an unusable target (an unreadable manifest, an \
          unknown circuit or a request the engine rejects), 0 otherwise.")
    Term.(
      const run $ target_arg $ request_args $ repeat_arg $ jobs_arg
      $ json_arg $ trace_out_arg)

(* ---------------- info ---------------- *)

let info_cmd =
  let run spec =
    guarded @@ fun () ->
    let c0 = load_circuit spec in
    let c = Qec_circuit.Decompose.to_scheduler_gates c0 in
    let dag = Qec_circuit.Dag.of_circuit c in
    let coupling = Qec_circuit.Coupling.of_circuit c in
    let n = Qec_circuit.Circuit.num_qubits c in
    let side = Qec_surface.Resources.lattice_side ~num_logical:n in
    let grid = Qec_lattice.Grid.create (max 1 side) in
    let placement =
      Autobraid.Initial_layout.place ~method_:Autobraid.Initial_layout.Partitioned
        c grid
    in
    let census = Autobraid.Initial_layout.oversize_census c placement in
    Printf.printf "circuit            %s\n" (Qec_circuit.Circuit.name c);
    Printf.printf "qubits             %d\n" n;
    Printf.printf "gates (raw)        %d\n" (Qec_circuit.Circuit.length c0);
    Printf.printf "gates (lowered)    %d\n" (Qec_circuit.Circuit.length c);
    Printf.printf "two-qubit gates    %d\n"
      (Qec_circuit.Circuit.two_qubit_count c);
    Printf.printf "dag depth          %d\n" (Qec_circuit.Dag.depth dag);
    Printf.printf "coupling density   %.3f\n"
      (Qec_circuit.Coupling.density coupling);
    Printf.printf "coupling max deg   %d\n"
      (Qec_circuit.Coupling.max_degree coupling);
    Printf.printf "degree-2 graph     %b\n"
      (Qec_circuit.Coupling.is_degree_two coupling);
    Printf.printf "oversize LLGs      %d (metis layout)\n" census;
    Printf.printf "CX parallelism     ";
    List.iter
      (fun (k, layers) -> Printf.printf "%dx%d " k layers)
      (Qec_circuit.Dag.two_qubit_layer_histogram dag);
    print_newline ()
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Static analysis of a circuit")
    Term.(const run $ circuit_arg)

(* ---------------- resources ---------------- *)

let resources_cmd =
  let run n target_pl =
    let d = Qec_surface.Error_model.distance_for_target ~target_pl () in
    List.iter
      (fun (k, v) -> Printf.printf "%-24s %s\n" k v)
      (Qec_surface.Resources.summary ~num_logical:n ~d);
    Printf.printf "%-24s %.3g\n" "target P_L" target_pl;
    Printf.printf "%-24s %.3g\n" "achieved P_L"
      (Qec_surface.Error_model.logical_error_rate ~d ())
  in
  let n_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"QUBITS" ~doc:"Logical qubit count")
  in
  let pl_arg =
    Arg.(
      value & opt float 1e-12
      & info [ "pl" ] ~docv:"P" ~doc:"Target logical error rate")
  in
  Cmd.v
    (Cmd.info "resources" ~doc:"Surface-code resource estimates")
    Term.(const run $ n_arg $ pl_arg)

(* ---------------- emit ---------------- *)

let emit_cmd =
  let run spec out =
    guarded @@ fun () ->
    let c =
      Qec_circuit.Decompose.lower_mcx (load_circuit spec)
    in
    match out with
    | None -> print_string (Qec_qasm.Printer.to_string c)
    | Some path -> Qec_qasm.Printer.to_file path c
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit a circuit as OpenQASM 2.0")
    Term.(const run $ circuit_arg $ output_arg)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let run spec d tel =
    guarded @@ fun () ->
    with_telemetry tel @@ fun () ->
    let curve = best_p_curve ~d spec in
    let timing = Qec_surface.Timing.make ~d () in
    Printf.printf "# p  cycles  time_us  normalized\n";
    match curve with
    | [] -> ()
    | (_, first) :: _ ->
      let base = float_of_int first.Autobraid.Scheduler.total_cycles in
      List.iter
        (fun (p, (r : Autobraid.Scheduler.result)) ->
          Printf.printf "%.1f  %d  %.0f  %.3f\n" p r.total_cycles
            (Autobraid.Scheduler.time_us timing r)
            (float_of_int r.total_cycles /. base))
        curve
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"p-threshold sensitivity sweep (Fig. 18)")
    Term.(const run $ circuit_arg $ distance_arg $ telemetry_args)

(* ---------------- export ---------------- *)

let export_cmd =
  let run circuit d fmt backend out =
    guarded @@ fun () ->
    (* built once the run has passed the engine's checks, -d included *)
    let timing () = Qec_surface.Timing.make ~d () in
    let payload =
      match fmt with
      | `Json ->
        (* Run under a collector so the payload carries the backend's own
           telemetry alongside its outcome. *)
        let collector = Qec_telemetry.Collector.create () in
        let { Engine_core.backend; result; stats; trace; _ } =
          Qec_telemetry.Telemetry.with_sink
            (Qec_telemetry.Collector.sink collector)
          @@ fun () ->
          run_or_die (spec_of ~trace:true ~circuit { Spec.default with backend; d })
        in
        let outcome =
          { Autobraid.Comm_backend.backend; result; trace = Option.get trace; stats }
        in
        let fields =
          match
            Qec_report.Export.backend_outcome_to_json ~max_rounds:50
              (timing ()) outcome
          with
          | Qec_report.Json.Obj fields -> fields
          | _ -> assert false
        in
        Qec_report.Json.to_string ~indent:true
          (Qec_report.Json.Obj
             (fields
             @ [ ("telemetry", Qec_report.Export.telemetry_to_json collector) ]))
      | `Coupling_dot ->
        let lowered =
          Qec_circuit.Decompose.to_scheduler_gates (load_circuit circuit)
        in
        Qec_report.Export.coupling_to_dot
          (Qec_circuit.Coupling.of_circuit lowered)
      | `Csv ->
        let curve = best_p_curve ~d circuit in
        Qec_report.Export.p_curve_to_csv (timing ()) curve
    in
    print_or_write out payload
  in
  let fmt_arg =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("dot", `Coupling_dot); ("csv", `Csv) ]) `Json
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:"json (one backend's run: backend name, result, \
                backend_stats, trace, exposure, telemetry; --backend picks \
                the backend), dot (coupling graph), csv (p-sweep)")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export results, traces and graphs (json/dot/csv)")
    Term.(
      const run $ circuit_arg $ distance_arg $ fmt_arg $ backend_arg
      $ output_arg)

(* ---------------- backends ---------------- *)

let backends_cmd =
  let run json =
    let entries = Autobraid.Comm_backend.all () in
    if json then
      print_endline
        (Qec_report.Json.to_string ~indent:true
           (Qec_report.Json.List
              (List.map
                 (fun (e : Autobraid.Comm_backend.entry) ->
                   Qec_report.Json.Obj
                     [
                       ("name", Qec_report.Json.String e.name);
                       ("description", Qec_report.Json.String e.description);
                       ( "options",
                         Qec_report.Json.List
                           (List.map
                              (fun (s : Autobraid.Comm_backend.Options.spec) ->
                                Qec_report.Json.Obj
                                  [
                                    ("key", Qec_report.Json.String s.key);
                                    ( "type",
                                      Qec_report.Json.String
                                        (Autobraid.Comm_backend.Options
                                         .kind_to_string s.kind) );
                                    ("default", Spec.json_of_value s.default);
                                    ("doc", Qec_report.Json.String s.doc);
                                  ])
                              e.options) );
                     ])
                 entries)))
    else
      List.iteri
        (fun i (e : Autobraid.Comm_backend.entry) ->
          if i > 0 then print_newline ();
          Printf.printf "%s: %s\n" e.name e.description;
          if e.options = [] then print_endline "  (no options)"
          else
            List.iter
              (fun (flag, doc) -> Printf.printf "  %-24s %s\n" flag doc)
              (Autobraid.Comm_backend.Options.to_flags e.options))
        entries
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable listing: name, description and option \
                schema (key, type, default, doc) per backend")
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:
         "List registered communication backends and their --backend-opt \
          schemas")
    Term.(const run $ json_arg)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run spec d max_rounds svg_prefix =
    guarded @@ fun () ->
    let { Engine_core.result; certificate; trace; _ } =
      run_or_die
        (spec_of ~trace:true ~certify:true ~circuit:spec { Spec.default with d })
    in
    let trace = Option.get trace in
    (match (Option.get certificate).Qec_verify.Certifier.witnesses with
    | [] -> print_endline "trace: VALID"
    | w :: _ ->
      Printf.printf "trace: INVALID (%s)\n"
        (Qec_verify.Certifier.witness_to_string w));
    Printf.printf "%d rounds, %d cycles, %d swaps\n\n"
      result.Autobraid.Scheduler.rounds result.Autobraid.Scheduler.total_cycles
      result.Autobraid.Scheduler.swaps_inserted;
    let shown = min max_rounds (Autobraid.Trace.num_rounds trace) in
    for k = 0 to shown - 1 do
      print_endline (Autobraid.Trace.round_to_string trace k);
      print_newline ()
    done;
    if shown < Autobraid.Trace.num_rounds trace then
      Printf.printf "... (%d more rounds; raise --rounds to see them)\n"
        (Autobraid.Trace.num_rounds trace - shown);
    match svg_prefix with
    | None -> ()
    | Some prefix ->
      for k = 0 to shown - 1 do
        let file = Printf.sprintf "%s-round%03d.svg" prefix k in
        Qec_report.Svg.save_round file trace k;
        Printf.printf "wrote %s\n" file
      done
  in
  let svg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"PREFIX"
          ~doc:"Also write each rendered round as PREFIX-roundNNN.svg")
  in
  let rounds_arg =
    Arg.(
      value & opt int 4
      & info [ "rounds" ] ~docv:"N" ~doc:"How many rounds to render")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record, certify and render a schedule trace")
    Term.(const run $ circuit_arg $ distance_arg $ rounds_arg $ svg_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let run spec fmt deny schedule d p seed =
    guarded @@ fun () ->
    let deny_warning = deny = Some `Warning in
    (* QASM files get the full span-aware pipeline; .real files and
       benchmark names only exist as circuits, so only QL1xx applies. *)
    let diags, source =
      if Sys.file_exists spec && not (Filename.check_suffix spec ".real") then
        let diags, src = Qec_lint.Lint.lint_file spec in
        (diags, Some src)
      else (Qec_lint.Lint.lint_circuit ~file:spec (load_circuit spec), None)
    in
    let diags =
      diags @ Qec_lint.Schedule_lint.check_options ~file:spec ~threshold_p:p ~d ()
    in
    let diags =
      if schedule && Qec_lint.Lint.error_count diags = 0 then
        let { Engine_core.certificate; _ } =
          run_or_die
            (spec_of ~certify:true ~circuit:spec
               { Spec.default with d; seed; threshold_p = p })
        in
        diags
        @ Qec_lint.Schedule_lint.check_certificate ~file:spec
            (Option.get certificate)
      else diags
    in
    (match fmt with
    | `Text ->
      List.iter
        (fun d -> print_endline (Qec_lint.Diagnostic.render ?source d))
        diags;
      if diags <> [] then
        print_endline (Qec_lint.Lint.summary ~deny_warning diags)
    | `Jsonl ->
      List.iter (fun d -> print_endline (Qec_lint.Diagnostic.to_jsonl d)) diags
    | `Json ->
      print_endline
        (Qec_report.Json.to_string ~indent:true
           (Qec_report.Export.diagnostics_to_json diags)));
    exit (Qec_lint.Lint.exit_code ~deny_warning diags)
  in
  let fmt_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("jsonl", `Jsonl); ("json", `Json) ]) `Text
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:"text (caret-annotated), jsonl (one JSON object per \
                diagnostic), json (one array)")
  in
  let deny_arg =
    Arg.(
      value
      & opt (some (enum [ ("warning", `Warning) ])) None
      & info [ "deny" ] ~docv:"SEVERITY"
          ~doc:"Treat warnings as errors for the exit code")
  in
  let schedule_arg =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:"Also schedule the circuit and certify the schedule \
                (QL210); slower")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis with stable QLxxx diagnostics (docs/lint.md). \
             Exit 1 when any error (or, with --deny warning, any warning) \
             fires; 0 otherwise.")
    Term.(
      const run $ circuit_arg $ fmt_arg $ deny_arg $ schedule_arg
      $ distance_arg $ threshold_arg $ seed_arg)

(* ---------------- verify ---------------- *)

(* Exit-code contract mirrors lint: 0 when every schedule certifies clean,
   1 when any invariant fails (or a run fails), 2 on unusable input (an
   unknown circuit, a request the engine rejects, an unreadable or
   malformed manifest). A manifest's rejected or failed job is named on
   stderr and the rest are still certified; the exit code is the largest
   any job earned. Certification always replays a fresh run from the
   spec — the exported trace JSON has no deserializer, so the trace is
   regenerated, which the placement seed makes deterministic. *)
let verify_cmd =
  let run target request json =
    let manifest = is_manifest target in
    (* (manifest index, spec) of every job to certify *)
    let jobs =
      if manifest then begin
        (* best_p sweeps never record a trace, so there is nothing
           independent to certify — skip them with a note rather than
           fail a manifest that batch itself accepts. *)
        let untraced, certifiable =
          List.mapi (fun i s -> (i, s)) (read_manifest target)
          |> List.partition (fun (_, (s : Spec.t)) -> s.best_p)
        in
        List.iter
          (fun (_, (s : Spec.t)) ->
            Printf.eprintf "skipping %s: best_p runs record no trace to certify\n"
              s.circuit)
          untraced;
        if certifiable = [] then begin
          Printf.eprintf "%s: no certifiable job in manifest\n" target;
          exit 2
        end;
        List.map
          (fun (i, (s : Spec.t)) ->
            (i, spec_of ~certify:true ~circuit:s.circuit s))
          certifiable
      end
      else [ (0, request_spec ~certify:true request target) ]
    in
    let outcomes =
      List.map
        (fun (i, (s : Spec.t)) ->
          match Engine.run_spec s with
          | Ok { Engine_core.certificate = Some cert; _ } -> (i, s, Ok cert)
          | Ok { certificate = None; _ } ->
            (* unreachable: the spec demands a certificate and validation
               rejects untraced runs, but never pass silently if it drifts *)
            ( i,
              s,
              Error
                { Engine_core.kind = "internal";
                  message = "internal: run produced no certificate" } )
          | Error e ->
            (* a single circuit fails as every single-circuit command does *)
            if not manifest then die_engine_text e;
            (i, s, Error e))
        jobs
    in
    let certs = List.filter_map (fun (_, _, r) -> Result.to_option r) outcomes in
    if json then
      print_endline
        (Qec_report.Json.to_string ~indent:true
           (Qec_report.Json.List
              (List.map Qec_report.Export.certificate_to_json certs)))
    else List.iter print_certificate_summary certs;
    let code =
      List.fold_left
        (fun code (i, (s : Spec.t), r) ->
          match r with
          | Ok _ -> code
          | Error (e : Engine_core.error) ->
            Printf.eprintf "verify: job %d (%s): %s\n" i s.circuit e.message;
            max code (exit_of_kind e.kind))
        (if List.for_all Qec_verify.Certifier.ok certs then 0 else 1)
        outcomes
    in
    exit code
  in
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Circuit (benchmark name or .qasm/.real path) or a batch \
             manifest (.json); every resulting schedule is certified")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the autobraid-cert/v1 certificates as one JSON array \
                instead of summaries")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Independently certify schedules: replay each spec, re-derive \
          every trace invariant from first principles (path validity and \
          disjointness, dependency order, exactly-once execution, swap and \
          split-pipelining legality, cycle accounting) and report an \
          autobraid-cert/v1 certificate (docs/verify.md). Exit 0 when all \
          certify clean, 1 on any failed invariant or run, 2 on unusable \
          input (an unknown circuit, a request the engine rejects, an \
          unreadable manifest).")
    Term.(const run $ target_arg $ request_args $ json_arg)

(* ---------------- fuzz ---------------- *)

(* Exit-code contract (docs/testing.md): 0 all properties passed, 1 a
   property failed (counterexample printed as valid QASM), 2 usage error
   (unknown property, bad generator parameters, malformed regression
   file). *)
let fuzz_cmd =
  let module P = Qec_prop.Property in
  let module R = Qec_prop.Runner in
  let usage fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  (* The body computes an exit code instead of calling [exit] inline:
     [exit] does not unwind the stack, so an early exit would skip
     with_telemetry's flush and leave --trace-out / --telemetry-out files
     unwritten. Usage errors still die immediately — they happen before
     any instrumented work. *)
  let run seed count props list_props no_minimize max_failures regress_dir
      replay max_qubits max_gates cx_density long_range_bias tel =
    if list_props then begin
      List.iter
        (fun (p : P.t) -> Printf.printf "%-24s %s\n" p.name p.description)
        (P.all ());
      exit 0
    end;
    (* Fuzz campaigns run long; an interrupt must still close the sinks
       (and write --trace-out) instead of losing the whole record. *)
    install_interrupt_flush ();
    let code =
      with_telemetry tel @@ fun () ->
      match replay with
      | Some path -> (
        if not (Sys.file_exists path) then usage "%s: no such file" path;
        match R.replay_file path with
        | Error msg -> usage "%s: %s" path msg
        | Ok (prop, P.Pass) ->
          Printf.printf "%s: %s passed\n" path prop;
          0
        | Ok (prop, P.Fail msg) ->
          Printf.printf "%s: %s FAILED: %s\n" path prop msg;
          1)
      | None ->
        if count < 1 then usage "--count must be >= 1 (got %d)" count;
        let properties =
          match props with
          | [] -> P.all ()
          | names ->
            List.map
              (fun name ->
                match P.find name with
                | Some p -> p
                | None ->
                  usage "unknown property %S; known: %s" name
                    (String.concat ", " (P.names ())))
              names
        in
        let params =
          {
            Qec_prop.Gen.default with
            max_qubits;
            max_gates;
            cx_density;
            long_range_bias;
          }
        in
        (match Qec_prop.Gen.validate params with
        | Ok () -> ()
        | Error msg -> usage "bad generator parameters: %s" msg);
        let report =
          R.run ~params ~properties ~minimize:(not no_minimize)
            ~max_failures ~seed ~count ()
        in
        List.iter
          (fun (f : R.failure) ->
            Printf.printf "FAIL %s (seed %d, case %d): %s\n" f.property f.seed
              f.case f.message;
            let unit_ =
              match f.counterexample with
              | R.Circuit _ -> "gates"
              | R.Source _ -> "bytes"
            in
            if f.shrunk_size < f.original_size then
              Printf.printf "  shrunk %d -> %d %s\n" f.original_size
                f.shrunk_size unit_;
            Printf.printf "  reproduce: autobraid fuzz --seed %d --count %d \
                           --prop %s\n"
              f.seed (f.case + 1) f.property;
            print_newline ();
            (* the counterexample itself, as replayable QASM / raw bytes *)
            print_string (R.counterexample_to_string f.counterexample);
            match regress_dir with
            | None -> ()
            | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let path = R.failure_to_file ~dir f in
              Printf.printf "\nwrote %s\n" path)
          report.R.failures;
        if report.R.failures = [] then begin
          Printf.printf
            "fuzz: seed %d, %d cases, %d checks across %d properties: all \
             passed\n"
            report.R.seed report.R.cases report.R.checks
            (List.length report.R.properties);
          0
        end
        else 1
    in
    exit code
  in
  let count_arg =
    Arg.(
      value & opt int 200
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of generated cases")
  in
  let prop_arg =
    Arg.(
      value & opt_all string []
      & info [ "prop" ] ~docv:"NAME"
          ~doc:"Check only this property (repeatable; see --list)")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List registered properties")
  in
  let no_minimize_arg =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Report the raw failing input without shrinking it")
  in
  let max_failures_arg =
    Arg.(
      value & opt int 1
      & info [ "max-failures" ] ~docv:"K"
          ~doc:"Stop after collecting K failures")
  in
  let regress_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "regress-dir" ] ~docv:"DIR"
          ~doc:"Also write each failure as a replayable regression file \
                in DIR (promote to fixtures/regressions/ to pin it in \
                dune runtest)")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one regression file instead of fuzzing")
  in
  let max_qubits_arg =
    Arg.(
      value & opt int Qec_prop.Gen.default.max_qubits
      & info [ "max-qubits" ] ~docv:"N" ~doc:"Largest generated circuit width")
  in
  let max_gates_arg =
    Arg.(
      value & opt int Qec_prop.Gen.default.max_gates
      & info [ "max-gates" ] ~docv:"N" ~doc:"Largest generated gate count")
  in
  let cx_density_arg =
    Arg.(
      value & opt float Qec_prop.Gen.default.cx_density
      & info [ "cx-density" ] ~docv:"P"
          ~doc:"Probability a generated gate is two-qubit")
  in
  let long_range_bias_arg =
    Arg.(
      value & opt float Qec_prop.Gen.default.long_range_bias
      & info [ "long-range-bias" ] ~docv:"P"
          ~doc:"Probability a two-qubit gate is forced long-range")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Property-based fuzzing: generate random circuits and mutated \
             QASM, check cross-layer invariants (trace validity, \
             differential backend agreement, engine byte-identities, \
             round-trips, crash safety), shrink any counterexample and \
             print it as replayable QASM. Exit 0 clean, 1 on a property \
             violation, 2 on usage errors (docs/testing.md).")
    Term.(
      const run $ seed_arg $ count_arg $ prop_arg $ list_arg
      $ no_minimize_arg $ max_failures_arg $ regress_dir_arg $ replay_arg
      $ max_qubits_arg $ max_gates_arg $ cx_density_arg
      $ long_range_bias_arg $ telemetry_args)

(* ---------------- serve ---------------- *)

(* Exit-code contract (docs/serve.md): daemon mode exits 0 after a clean
   drain. Client mode exits 0 on success, 1 when the server answered with
   an error record, a failed job or a failed certificate (or a batch had
   failures), 2 on connection / protocol / usage trouble; a compiled
   CIRCUIT follows the single-circuit rule, so an unknown circuit or a
   request the engine rejects exits 2. *)
let serve_cmd =
  let module P = Qec_serve.Protocol in
  let module C = Qec_serve.Client in
  let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let print_json j = print_endline (Qec_report.Json.to_string j) in
  let run socket connect jobs max_pending timeout cache_dir trace_out ping
      stats shutdown manifest circuit request =
    match (socket, connect) with
    | None, None | Some _, Some _ ->
      die "serve: pass exactly one of --socket PATH (daemon) or --connect \
           PATH (client)"
    | Some path, None ->
      (* daemon mode: foreground, logs on stderr, drains on SIGTERM/SIGINT
         or a shutdown request *)
      if ping || stats || shutdown || manifest <> None || circuit <> None then
        die "serve: client actions require --connect, not --socket";
      let config =
        {
          (Qec_serve.Server.default_config ~socket:path ()) with
          jobs = (match jobs with Some j -> max 1 j | None -> Qec_util.Parallel.default_jobs ());
          max_pending;
          timeout_s = timeout;
          cache_dir;
          trace_out;
          handle_signals = true;
          log = prerr_endline;
        }
      in
      Result.iter_error (die "serve: %s") (Qec_serve.Server.run config)
    | None, Some path -> (
      let client =
        match C.connect path with Ok c -> c | Error msg -> die "serve: %s" msg
      in
      let finish code = C.close client; if code <> 0 then exit code in
      let expect what = function
        | Ok r -> r
        | Error msg -> die "serve: %s failed: %s" what msg
      in
      match (ping, stats, shutdown, manifest, circuit) with
      | true, false, false, None, None -> (
        match expect "ping" (C.ping client) with
        | P.Pong { version; _ } ->
          print_json
            (Qec_report.Json.Obj
               [
                 ("type", Qec_report.Json.String "pong");
                 ("version", Qec_report.Json.String version);
               ]);
          finish 0
        | _ -> die "serve: unexpected response to ping")
      | false, true, false, None, None -> (
        match expect "stats" (C.stats client) with
        | P.Stats_resp { stats; _ } ->
          print_endline (Qec_report.Json.to_string ~indent:true stats);
          finish 0
        | _ -> die "serve: unexpected response to stats")
      | false, false, true, None, None -> (
        match expect "shutdown" (C.shutdown client) with
        | P.Shutdown_ack _ ->
          print_endline "shutdown acknowledged; server draining";
          finish 0
        | _ -> die "serve: unexpected response to shutdown")
      | false, false, false, Some file, None -> (
        let specs = read_manifest file in
        match expect "batch" (C.batch client specs) with
        | records, ok_n, failed_n ->
          (* job records print in manifest order, exactly as `autobraid
             batch` renders them, whatever order the pool finished in *)
          let jobs =
            List.filter_map
              (function P.Result { job; _ } -> Some job | _ -> None)
              records
          in
          let indexed =
            List.map
              (fun job ->
                match Qec_report.Json.member "index" job with
                | Some (Qec_report.Json.Int i) -> (i, job)
                | _ -> die "serve: result record without an index")
              jobs
          in
          List.iter
            (fun (_, job) -> print_endline (C.job_line job))
            (List.sort (fun (a, _) (b, _) -> compare a b) indexed);
          List.iter
            (function
              | P.Error_resp { kind; message; _ } ->
                Printf.eprintf "serve: %s: %s\n" kind message
              | _ -> ())
            records;
          Printf.eprintf "serve: %d ok, %d failed\n" ok_n failed_n;
          finish (if failed_n > 0 || List.length jobs <> List.length specs then 1 else 0))
      | false, false, false, None, Some name -> (
        (* The daemon resolves the circuit; the spec is checked here. *)
        let spec = request_spec request name in
        validate_or_die spec;
        match expect "compile" (C.compile client spec) with
        | P.Result { job; _ } ->
          print_endline (C.job_line job);
          let module J = Qec_report.Json in
          let code =
            match (J.member "error" job, J.member "certificate" job) with
            | Some err, _ -> (
              match J.member "kind" err with
              | Some (J.String kind) -> exit_of_kind kind
              | _ -> 1)
            | None, Some cert when J.member "ok" cert <> Some (J.Bool true) -> 1
            | None, _ -> 0
          in
          finish code
        | P.Error_resp { kind; message; _ } ->
          Printf.eprintf "serve: %s: %s\n" kind message;
          finish 1
        | _ -> die "serve: unexpected response to compile")
      | _ ->
        die "serve: pass exactly one of --ping, --stats, --shutdown, \
             --manifest FILE or a CIRCUIT")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Run as a daemon listening on this Unix-domain socket \
                (foreground; drains on SIGTERM/SIGINT or a shutdown \
                request)")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Act as a client of the daemon at this socket")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 128
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Admission-control bound: requests that would push the \
                queue past N are answered with an immediate `overloaded` \
                error record")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request queue-wait deadline; a request that waited \
                longer is answered with a `timeout` error and never \
                starts executing")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist the shared placement cache in DIR (advisory \
                cross-process lock; safe to share with batch runs)")
  in
  let serve_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE.json"
          ~doc:"Write a Perfetto trace of the whole serving session when \
                the daemon drains")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Client: liveness check")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Client: print the live stats snapshot (queue depth, \
                latency histograms, cache counters) as indented JSON")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Client: ask the daemon to drain and exit")
  in
  let serve_manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:"Client: submit a batch manifest (same schema as `autobraid \
                batch`) and print the job records in manifest order — \
                byte-identical to a local batch run")
  in
  let serve_circuit_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT"
          ~doc:"Client: compile one circuit (benchmark name or file path \
                as resolved by the server) and print its job record")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compilation-as-a-service daemon over a Unix-domain socket \
          (autobraid-serve/v1: newline-delimited JSON with request-id \
          correlation), or a client for one (--connect). The daemon runs \
          the engine core on a shared worker pool with one placement \
          cache, bounded admission (--max-pending), per-request queue \
          deadlines (--timeout) and live stats; see docs/serve.md.")
    Term.(
      const run $ socket_arg $ connect_arg $ jobs_arg $ max_pending_arg
      $ timeout_arg $ cache_dir_arg $ serve_trace_arg $ ping_arg $ stats_arg
      $ shutdown_arg $ serve_manifest_arg $ serve_circuit_arg $ request_args)

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    print_endline "benchmark families (suffix with a size, e.g. qft50):";
    List.iter
      (fun (e : Qec_benchmarks.Registry.entry) ->
        Printf.printf "  %-8s %s\n" (e.name ^ "<n>") e.description)
      Qec_benchmarks.Registry.families;
    print_endline "fixed instances:";
    List.iter
      (fun (name, _) -> Printf.printf "  %s\n" name)
      Qec_benchmarks.Registry.fixed
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in benchmarks") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "autobraid" ~version:"1.0.0"
       ~doc:"Surface-code braiding-path scheduler (AutoBraid, MICRO'21)")
    [ compile_cmd; schedule_cmd; batch_cmd; serve_cmd; profile_cmd; info_cmd;
       lint_cmd; verify_cmd; fuzz_cmd; resources_cmd; emit_cmd; sweep_cmd;
       trace_cmd; export_cmd; backends_cmd; list_cmd ]

let () = exit (Cmd.eval main)
