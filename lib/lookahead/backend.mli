(** The windowed-lookahead {!Autobraid.Comm_backend}.

    Plug-compatible with the braid and surgery backends: same outcome
    shape, same trace contract, lookahead-specific numbers surfaced
    through the generic [stats] list
    ({!Lookahead_scheduler.stats_to_assoc}'s keys). *)

val options_spec : Autobraid.Comm_backend.Options.spec list
(** Declared options: [window] (int, >= 0) and [slack_weight]
    (float, >= 0). *)

val register : unit -> unit
(** Enter ["lookahead"] into {!Autobraid.Comm_backend}'s registry.
    Idempotent. Runs automatically when this module is linked and
    referenced; call it explicitly from code that only resolves backends
    by name, so linking is guaranteed. *)
