(** The lattice-surgery {!Autobraid.Comm_backend}.

    Plug-compatible with the braid backend: same outcome shape, same
    trace contract (schedules that [Qec_verify.Certifier] certifies
    clean), surgery-specific numbers surfaced through the generic [stats]
    association list (keys are {!Surgery_scheduler.stats_to_assoc}'s). *)

val options_spec : Autobraid.Comm_backend.Options.spec list
(** The surgery backend's declared options: [retry], [ripup] and
    [pipeline_splits], all booleans defaulting to
    {!Surgery_scheduler.default_options}'. *)

val register : unit -> unit
(** Enter ["surgery"] into {!Autobraid.Comm_backend}'s name registry
    (mapping a {!Autobraid.Comm_backend.config} onto surgery options).
    Idempotent. Runs automatically when this module is linked and
    referenced; call it explicitly from code that only resolves backends
    by name, so linking is guaranteed. *)
