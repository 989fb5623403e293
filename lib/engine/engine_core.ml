(* The pure, re-entrant half of the engine: everything needed to execute
   one compile spec on ANY domain, with no process-global side effects.

   What lives here: spec validation, circuit loading, the single-spec
   execution path (placement-cache replay, backend dispatch, optional
   self-certification), and the deterministic JSONL rendering of job
   records. None of it installs telemetry sinks, spawns domains, touches
   signals, or writes to stdout/stderr — that is Engine's (the IO shell's)
   job. The only shared state a call can touch is the caller-supplied
   [Placement_cache.t], which synchronizes internally; two domains may run
   [exec_safe] concurrently against the same cache.

   Precondition: the communication-backend registry must already be
   populated ([Engine.ensure_backends] — the shell calls it in every
   entry point; long-lived callers like Qec_serve call it once at
   startup). *)

module Json = Qec_report.Json
module Circuit = Qec_circuit.Circuit
module Decompose = Qec_circuit.Decompose
module Scheduler = Autobraid.Scheduler
module CB = Autobraid.Comm_backend
module Timing = Qec_surface.Timing

type error = { kind : string; message : string }

type payload = {
  backend : string;
  result : Scheduler.result;
  stats : (string * float) list;
  trace : Autobraid.Trace.t option;
  curve : (float * Scheduler.result) list option;
  peephole : (Qec_circuit.Optimize.stats * int * int) option;
  certificate : Qec_verify.Certifier.t option;
}

type cache_status = Memory_hit | Disk_hit | Miss | Uncached

let cache_status_to_string = function
  | Memory_hit -> "memory-hit"
  | Disk_hit -> "disk-hit"
  | Miss -> "miss"
  | Uncached -> "uncached"

type job = {
  index : int;
  spec : Spec.t;
  elapsed_s : float;
  cache : cache_status;
  outcome : (payload, error) result;
}

(* ---------------- circuit loading ---------------- *)

(* The one circuit loader: batch, serve and every CLI command resolve
   circuits here. Every failure becomes a structured error record whose
   message is the diagnostic the CLI prints ([file:line:col: msg] for
   parse errors). *)
let load_circuit spec =
  Qec_telemetry.Telemetry.timed "frontend.load" @@ fun () ->
  let file = spec.Spec.circuit in
  let err kind fmt = Printf.ksprintf (fun message -> Error { kind; message }) fmt in
  if Sys.file_exists file then
    match
      if Filename.check_suffix file ".real" then
        Qec_revlib.Real_parser.of_file file
      else Qec_qasm.Frontend.of_file file
    with
    | c -> Ok c
    | exception Qec_qasm.Lexer.Error { line; col; msg } ->
      err "parse" "%s:%d:%d: %s" file line col msg
    | exception Qec_qasm.Parser.Error { line; col; msg } ->
      err "parse" "%s:%d:%d: %s" file line col msg
    | exception Qec_qasm.Frontend.Unsupported { pos = Some { line; col }; msg }
      ->
      err "unsupported" "%s:%d:%d: %s" file line col msg
    | exception Qec_qasm.Frontend.Unsupported { pos = None; msg } ->
      err "unsupported" "%s: %s" file msg
    | exception Qec_revlib.Real_parser.Error { line; msg } ->
      err "parse" "%s:%d: %s" file line msg
    | exception Circuit.Invalid msg ->
      err "invalid-circuit" "%s: invalid circuit: %s" file msg
    | exception Sys_error msg -> err "io" "%s" msg
  else
    match Qec_benchmarks.Registry.build file with
    | c -> Ok c
    | exception Not_found ->
      err "circuit-not-found"
        "unknown circuit %S (not a file, not a benchmark; try `autobraid \
         list`)"
        file

(* ---------------- single spec ---------------- *)

let exec cache (spec : Spec.t) =
  let ( let* ) = Result.bind in
  let cache_status = ref Uncached in
  let* opts =
    Result.map_error
      (fun message -> { kind = "invalid-spec"; message })
      (Spec.resolve_options spec)
  in
  let* circuit = load_circuit spec in
  let peephole = ref None in
  let circuit =
    if spec.optimize then begin
      let before = Circuit.length circuit in
      let c', stats = Qec_circuit.Optimize.peephole circuit in
      peephole := Some (stats, before, Circuit.length c');
      c'
    end
    else circuit
  in
  let timing = Timing.make ~d:spec.d () in
  (* Self-certification happens here, on the caller's own domain, so
     batch workers and serve workers certify in parallel with no extra
     plumbing. *)
  let certify ~backend ~result trace =
    if spec.outputs.Spec.certificate then
      Some (Qec_verify.Certifier.certify ~backend ~result timing trace)
    else None
  in
  match spec.scheduler with
  | Spec.Baseline ->
    let options =
      Gp_baseline.of_backend_options opts
        { Gp_baseline.default_options with seed = spec.seed }
    in
    let backend = "gp-baseline" in
    (* Record only when an output needs the trace: a greedy paper-scale
       trace costs more memory than the schedule itself. *)
    let result, trace, certificate =
      if spec.outputs.Spec.certificate || spec.outputs.Spec.trace then
        let result, trace = Gp_baseline.run_traced ~options timing circuit in
        (result, Some trace, certify ~backend ~result trace)
      else (Gp_baseline.run ~options timing circuit, None, None)
    in
    Ok
      ( {
          backend;
          result;
          stats = [];
          trace;
          curve = None;
          peephole = !peephole;
          certificate;
        },
        !cache_status )
  | Spec.Full | Spec.Sp -> (
    (* The placement the scheduler would compute internally, replayed
       through the cache when one is installed. The lowering mirrors the
       schedulers' own entry so key and placement agree with them. *)
    let placement =
      match cache with
      | None -> None
      | Some cache ->
        let lowered = Decompose.to_scheduler_gates circuit in
        let n = Circuit.num_qubits lowered in
        let side =
          max 1 (Qec_surface.Resources.lattice_side ~num_logical:n)
        in
        let before = Placement_cache.counters cache in
        let p =
          Placement_cache.find_or_place cache ~circuit:lowered ~side
            ~method_:spec.initial ~seed:spec.seed
        in
        let after = Placement_cache.counters cache in
        cache_status :=
          if after.misses > before.misses then Miss
          else if after.disk_hits > before.disk_hits then Disk_hit
          else Memory_hit;
        Some p
    in
    let config = { CB.initial = spec.initial; seed = spec.seed; placement } in
    if spec.best_p then begin
      let options =
        {
          Scheduler.default_options with
          threshold_p = spec.threshold_p;
          initial = spec.initial;
          seed = spec.seed;
          placement_override = placement;
        }
      in
      let best, curve = Scheduler.run_best_p ~options timing circuit in
      Ok
        ( {
            backend = spec.backend;
            result = best;
            stats = [];
            trace = None;
            curve = Some curve;
            peephole = !peephole;
            certificate = None;
          },
          !cache_status )
    end
    else
      (* resolve_options has rejected an unregistered backend. *)
      let entry = Option.get (CB.of_name spec.backend) in
      let outcome = (entry.CB.ctor config opts).CB.run timing circuit in
      Ok
        ( {
            backend = outcome.CB.backend;
            result = outcome.CB.result;
            stats = outcome.CB.stats;
            trace = Some outcome.CB.trace;
            curve = None;
            peephole = !peephole;
            certificate =
              certify ~backend:outcome.CB.backend ~result:outcome.CB.result
                outcome.CB.trace;
          },
          !cache_status ))

let exec_safe cache spec =
  match exec cache spec with
  | Ok (payload, status) -> (Ok payload, status)
  | Error e -> (Error e, Uncached)
  | exception e ->
    (Error { kind = "internal"; message = Printexc.to_string e }, Uncached)

(* ---------------- JSONL rendering ---------------- *)

let result_json (r : Scheduler.result) =
  (* compile_time_s is wall-clock noise: zero it so records are byte-
     stable across runs and worker counts (timings travel via telemetry
     and the ?timings flag instead). *)
  Qec_report.Export.result_to_json { r with Scheduler.compile_time_s = 0. }

let job_to_json ?(timings = false) job =
  let base =
    [ ("index", Json.Int job.index) ]
    @ (match job.spec.Spec.id with
      | Some id -> [ ("id", Json.String id) ]
      | None -> [])
    @ [ ("spec", Spec.to_json job.spec) ]
  in
  let extras =
    if timings then
      [
        ("elapsed_s", Json.Float job.elapsed_s);
        ("cache", Json.String (cache_status_to_string job.cache));
      ]
    else []
  in
  match job.outcome with
  | Error e ->
    Json.Obj
      (base
      @ [
          ("status", Json.String "error");
          ( "error",
            Json.Obj
              [
                ("kind", Json.String e.kind);
                ("message", Json.String e.message);
              ] );
        ]
      @ extras)
  | Ok p ->
    let timing = Timing.make ~d:job.spec.Spec.d () in
    Json.Obj
      (base
      @ [
          ("status", Json.String "ok");
          ("backend", Json.String p.backend);
          ("result", result_json p.result);
        ]
      @ (match p.stats with
        | [] -> []
        | stats ->
          [
            ( "backend_stats",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) stats) );
          ])
      @ (match p.peephole with
        | None -> []
        | Some (stats, before, after) ->
          [
            ( "peephole",
              Json.Obj
                [
                  ( "cancelled_pairs",
                    Json.Int stats.Qec_circuit.Optimize.cancelled_pairs );
                  ( "merged_rotations",
                    Json.Int stats.Qec_circuit.Optimize.merged_rotations );
                  ("gates_before", Json.Int before);
                  ("gates_after", Json.Int after);
                ] );
          ])
      @ (if job.spec.Spec.outputs.Spec.reliability then
           [
             ( "reliability",
               Qec_report.Export.exposure_to_json ~d:job.spec.Spec.d
                 (Autobraid.Reliability.exposure_of_result timing p.result) );
           ]
         else [])
      @ (match (job.spec.Spec.outputs.Spec.trace, p.trace) with
        | true, Some trace ->
          [ ("trace", Qec_report.Export.trace_to_json ~max_rounds:50 trace) ]
        | _ -> [])
      @ (match p.certificate with
        | Some cert ->
          [ ("certificate", Qec_report.Export.certificate_to_json cert) ]
        | None -> [])
      @ (match p.curve with
        | None -> []
        | Some curve ->
          [
            ( "curve",
              Json.List
                (List.map
                   (fun (pt, r) ->
                     Json.Obj
                       [ ("p", Json.Float pt); ("result", result_json r) ])
                   curve) );
          ])
      @ extras)

let jobs_to_jsonl ?timings jobs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun j ->
      Buffer.add_string buf (Json.to_string (job_to_json ?timings j));
      Buffer.add_char buf '\n')
    jobs;
  Buffer.contents buf

let errors jobs =
  List.filter_map
    (fun j ->
      match j.outcome with Ok _ -> None | Error e -> Some (j.index, e))
    jobs
