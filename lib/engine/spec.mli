(** Declarative compile requests — the one record every entry point speaks.

    A [Spec.t] says {e what} to compile (a benchmark name or circuit file),
    {e how} (backend, scheduler variant, code distance, seed, threshold,
    initial placement, peephole/best-p switches) and {e which outputs} to
    keep. The CLI's [compile] and [schedule] build one and hand it to
    {!Engine.run_spec}; [autobraid batch] decodes a manifest of them and
    hands the list to {!Engine.run_batch}. JSON encode/decode round-trips
    ([of_json (to_json s) = Ok s]), so manifests, logs and replay files
    all share one schema (docs/engine.md). *)

type scheduler_kind =
  | Full  (** path finder + dynamic layout optimization (braid only) *)
  | Sp  (** stack-based path finder only (braid only) *)
  | Baseline  (** the greedy MICRO'17 baseline ({!Gp_baseline}) *)

type outputs = {
  trace : bool;  (** include the per-round trace in the job payload *)
  reliability : bool;  (** include the exposure/failure-probability block *)
  certificate : bool;
      (** certify the schedule with [Qec_verify.Certifier] and include
          the [autobraid-cert/v1] block (not with [best_p], which
          records no trace) *)
}

type t = {
  id : string option;  (** caller's label, echoed in result records *)
  circuit : string;  (** benchmark name (e.g. ["qft50"]) or file path *)
  backend : string;  (** {!Autobraid.Comm_backend} registry name *)
  scheduler : scheduler_kind;
  d : int;  (** surface code distance *)
  seed : int;
  threshold_p : float;
      (** layout-optimizer trigger, in [0, 1). {b Deprecated} spelling of
          the braid backend's [threshold_p] option — kept so pre-redesign
          manifests decode unchanged; an explicit entry in
          [backend_options] wins over it. *)
  initial : Autobraid.Initial_layout.method_;
  backend_options : (string * Autobraid.Comm_backend.Options.value) list;
      (** backend-specific knobs, decoded strictly against the backend's
          declared {!Autobraid.Comm_backend.Options} spec (JSON object
          [backend_options] in manifests; omitted from {!to_json} when
          empty). The legacy [scheduler]/[threshold_p] fields are merged
          underneath as braid's [variant]/[threshold_p] defaults
          ({!resolve_options}), so old manifests keep their meaning while
          explicit options override them. *)
  optimize : bool;  (** peephole-optimize before scheduling *)
  best_p : bool;  (** sweep thresholds and keep the best (braid+Full) *)
  outputs : outputs;
}

val default : t
(** [circuit = ""], braid backend, [Full] scheduler,
    {!Qec_surface.Timing.default_d}, seed 11, threshold 0.3, [Annealed]
    initial placement, no extras — the same defaults the CLI always had. *)

val options_schema : t -> Autobraid.Comm_backend.Options.spec list
(** The declared schema [backend_options] decode against — the one
    decision every caller shares: {!Gp_baseline.options_spec} when
    [scheduler = Baseline] (the baseline is not in the registry), else
    the registry entry's; [[]] for an unknown backend. The CLI parses
    [--backend-opt] pairs against it. *)

val resolve_options : t -> (Autobraid.Comm_backend.Options.t, string) result
(** The spec's static checks, then the complete options record it runs
    with. The checks need no circuit: non-empty [circuit], registered
    [backend] ({!Autobraid.Comm_backend.of_name} — the error lists the
    registered names), [d >= 1], [threshold_p] in [0, 1),
    [scheduler]/[backend]/[best_p] compatibility, and
    [outputs.certificate] only on traced runs (not [best_p]). The options
    are the legacy [scheduler]/[threshold_p] fields (braid only) merged
    underneath the explicit [backend_options], which win; decoded
    strictly against {!options_schema}, then checked by the owning
    backend's semantic validator. Option errors are prefixed
    ["backend_options: "]. The engine calls this once per job. *)

val validate : t -> (unit, string) result
(** {!resolve_options} without its result. *)

val json_of_value : Autobraid.Comm_backend.Options.value -> Qec_report.Json.t
(** One option value as the JSON scalar manifests spell it. *)

val initial_to_string : Autobraid.Initial_layout.method_ -> string
(** ["identity" | "bisect" | "metis" | "anneal"] — the CLI's names. *)

val initial_of_string :
  string -> (Autobraid.Initial_layout.method_, string) result

val scheduler_to_string : scheduler_kind -> string
(** ["full" | "sp" | "baseline"]. *)

val scheduler_of_string : string -> (scheduler_kind, string) result

val to_json : t -> Qec_report.Json.t
(** Stable key order; [id] omitted when [None], [outputs] encoded as a
    string list. *)

val of_json : Qec_report.Json.t -> (t, string) result
(** Missing fields take {!default}'s values; [circuit] is required.
    Unknown keys and malformed values are errors (catching manifest
    typos beats silently ignoring them). *)

val manifest_of_json : Qec_report.Json.t -> (t list, string) result
(** A manifest is either a bare JSON array of specs or
    [{"version": 1, "jobs": [...]}]. Errors carry the failing job's
    index. *)

val manifest_of_string : string -> (t list, string) result
(** {!Qec_report.Json.of_string} composed with {!manifest_of_json}. *)

val equal : t -> t -> bool
