(** Pluggable communication backends.

    AutoBraid's round-based driver is agnostic to {e how} a two-qubit gate
    crosses the lattice: double-defect braiding (the paper's model, where a
    path is held for the whole [2d]-cycle braid and its length is latency-
    free), lattice surgery ({!Qec_surgery}, where the ancilla path is
    occupied only for the [d]-cycle merge and tile-time volume is the
    scarce resource) and windowed lookahead scheduling ([Qec_lookahead])
    all consume the same lattice, DAG-front analysis and interference
    structure. A backend packages one such communication discipline behind
    a uniform [run], so the CLI, benchmarks and tests can drive and
    compare them interchangeably.

    A backend must be {e behavior-preserving} with respect to the circuit:
    every lowered gate is scheduled exactly once (certified by
    [Qec_verify.Certifier]), so two backends differ only in rounds, paths
    and cycle accounting — never in what executes. *)

type outcome = {
  backend : string;  (** backend name, for reports and exported JSON *)
  result : Scheduler.result;
      (** the shared aggregate record; for non-braiding backends
          [braid_rounds] counts the backend's two-qubit rounds and the
          SWAP fields are 0 *)
  trace : Trace.t;  (** full per-round schedule, replay-validatable *)
  stats : (string * float) list;
      (** backend-specific extras (e.g. surgery tile-time volume), in a
          stable order, exported as a JSON object *)
}

type t = { run : Qec_surface.Timing.t -> Qec_circuit.Circuit.t -> outcome }
(** A backend built by its registry entry's [ctor] (or {!by_name}); its
    name and description live on the {!entry}. *)

(** {2 Per-backend options}

    Every backend owns its knobs: braiding has a scheduler [variant] and
    a layout-optimizer [threshold_p], surgery has rip-up and split
    pipelining switches, lookahead has a window width and a slack weight.
    The shared {!config} carries only the fields every backend consumes;
    everything else travels as a typed key/value options record declared
    by the backend itself, so adding a backend never widens the common
    record again.

    The codec is JSON-agnostic on purpose — this library sits below the
    report/JSON layer. {!Qec_engine.Spec} maps {!Options.value} onto JSON
    scalars for the manifest [backend_options] field; the CLI parses
    [--backend-opt key=value] pairs through {!Options.parse_kv}. *)

module Options : sig
  type value = Bool of bool | Int of int | Float of float | String of string

  type kind =
    | TBool
    | TInt
    | TFloat  (** integers are accepted and widened *)
    | TEnum of string list  (** a string restricted to the listed cases *)

  type spec = {
    key : string;
    kind : kind;
    default : value;
    doc : string;  (** one line, shown by [autobraid backends] *)
  }

  type t = (string * value) list
  (** A complete options record: every declared key present exactly once,
      in declaration order. Built by {!defaults}/{!decode}/{!apply} —
      never by hand — so lookups by the owning backend cannot miss. *)

  val kind_to_string : kind -> string
  (** ["bool"], ["int"], ["float"], or ["a|b|c"] for enums. *)

  val value_to_string : value -> string
  (** Floats print via {!Qec_util.Floatfmt.repr} (shortest round-trip). *)

  val defaults : spec list -> t

  val check_value : spec -> value -> (value, string) result
  (** Type-check one value against one declaration (widening ints to
      floats for [TFloat], checking enum membership). *)

  val apply : spec list -> t -> (string * value) list -> (t, string) result
  (** Override [base] with the given pairs, strictly: an unknown key or a
      type mismatch is an [Error] naming the key and the expected type.
      Later duplicates win. *)

  val decode : spec list -> (string * value) list -> (t, string) result
  (** [apply specs (defaults specs) pairs] — the strict decoder used for
      manifest [backend_options] objects. *)

  val parse_kv : spec list -> string -> (string * value, string) result
  (** Parse one [key=value] CLI argument, using the declared kind to read
      the scalar ([true]/[false], decimal int, float, enum case). *)

  val to_flags : spec list -> (string * string) list
  (** [(key=<kind>, doc (default v))] rows for each declared option — the
      listing [autobraid backends] prints. *)

  val get_bool : t -> string -> bool
  (** Raises [Invalid_argument] when the key is absent or not a [Bool] —
      a backend bug (the registry decodes before construction), never a
      user error. Same for the other getters. *)

  val get_int : t -> string -> int
  val get_float : t -> string -> float

  val get_string : t -> string -> string
  (** Also reads enum values (they are [String]s). *)
end

(** {2 Registry}

    Backends register by name so callers (the CLI's [--backend], the
    batch engine's [Spec.backend] field) resolve them uniformly instead of
    hand-matching names to constructors. ["braid"] self-registers here;
    other libraries register at module-init time
    ([Qec_surgery.Surgery_scheduler.register],
    [Qec_lookahead.Lookahead_scheduler.register]). *)

type config = {
  initial : Initial_layout.method_;
  seed : int;
  placement : Qec_lattice.Placement.t option;
      (** start from this placement instead of computing [initial] — the
          seam the placement cache injects through *)
}
(** The truly backend-independent subset of a declarative request.
    Backend-specific knobs (braiding's [variant]/[threshold_p], surgery's
    pipelining, ...) live in each backend's own {!Options} record. *)

val default_config : config
(** {!Scheduler.default_options}' initial / seed, no placement
    override. *)

val scheduler_options : config -> Scheduler.options
(** {!Scheduler.default_options} with [config]'s initial method, seed and
    placement override — the driver options every registry backend
    starts from before applying its own knobs. *)

type ctor = config -> Options.t -> t
(** The options record is complete and type-checked against the entry's
    declared specs before the ctor runs. *)

type entry = {
  name : string;
  description : string;
  options : Options.spec list;  (** declaration order = display order *)
  ctor : ctor;
  validate : Options.t -> (unit, string) result;
      (** semantic checks beyond types (ranges, cross-field rules) *)
}

val register :
  name:string ->
  description:string ->
  ?options:Options.spec list ->
  ?validate:(Options.t -> (unit, string) result) ->
  ctor ->
  unit
(** Add (or replace) the named backend. Call at module-init time, before
    any domain is spawned — the registry is read-only afterwards.
    [options] defaults to none declared, [validate] to always-[Ok]. *)

val of_name : string -> entry option

val by_name : string -> t
(** [by_name name] builds the registered backend [name] from
    {!default_config} and the entry's declared option defaults — the one
    constructor for callers that want a backend as it ships. Raises
    [Invalid_argument] for an unregistered name. Backends registered by
    other libraries must be linked first ([Qec_engine.Engine.ensure_backends]
    or the backend module's [register]). *)

val names : unit -> string list
(** Registered backend names, sorted — for error messages. *)

val all : unit -> entry list
(** Registered entries, sorted by name. *)

val scheduled_gate_ids : Trace.t -> int list
(** Sorted ids of every gate the trace schedules (braids, merges and
    locals) — the cross-backend invariant: all backends must schedule the
    same lowered gate set for the same circuit. *)
