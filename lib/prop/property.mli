(** The cross-layer property registry.

    Each property asserts one invariant the paper (or a backend contract)
    promises for {e every} circuit, evaluated here on generated inputs:

    - [trace/braid], [trace/surgery] — the scheduled trace replays
      {!Autobraid.Trace.check}-clean: every round vertex-disjoint on the
      lattice, every gate exactly once and dependency-ordered;
    - [diff/backends] — the differential oracle: braid, surgery, and the
      greedy MICRO'17 baseline must schedule the same lowered gate set,
      with check-clean traces and latencies at or above each backend's
      own critical-path lower bound;
    - [surgery/pipeline-bounds] — split pipelining never slows surgery
      down: total cycles sit between the all-splits-overlapped lower
      bound and the no-pipelining run;
    - [engine/spec-identity] — {!Qec_engine.Engine.run_spec} on a spec
      naming a QASM file is byte-identical (rendered result + trace JSON)
      to running the scheduler directly on that file — the [compile] ==
      [run_spec] contract, on generated circuits;
    - [engine/cache-identity] — a placement-cache disk hit reproduces the
      cold run byte-for-byte;
    - [engine/batch-identity] — [run_batch] JSONL is byte-identical for
      [jobs = 1] and [jobs = 3];
    - [qasm/roundtrip] — print → parse reproduces the circuit
      gate-for-gate;
    - [lint/stable-codes] — lint diagnostics are stable under a
      pretty-print → re-lex round trip;
    - [qasm/crash] (source-keyed) — mutated QASM bytes must produce
      structured positioned errors from the frontend and the lint pass,
      never an unhandled exception;
    - [qasm/stream] (source-keyed) — the streaming front end
      ({!Qec_qasm.Frontend.of_string}) agrees with the list pipeline
      (lex the whole input, parse the token list, elaborate): the same
      circuit, or the same exception with equal fields;
    - [serve/protocol] (source-keyed) — the serve daemon's wire decoding
      ({!Qec_serve.Protocol}) is total: arbitrary bytes, raw or spliced
      into well-formed request envelopes, yield [Ok] or a structured
      [parse]/[bad-request] error, never an exception.

    Checks are deterministic, so a failing (seed, case) replays exactly
    and shrinking can re-evaluate candidates. *)

type outcome = Pass | Fail of string

type check =
  | Circuit of (Qec_circuit.Circuit.t -> outcome)
      (** fed generated circuits; shrunk as circuits *)
  | Source of (string -> outcome)
      (** fed mutated QASM text; shrunk as text *)

type t = { name : string; description : string; check : check }

val all : unit -> t list
(** Every registered property, in stable (registration) order. *)

val names : unit -> string list

val find : string -> t option

val check_circuit : t -> Qec_circuit.Circuit.t -> outcome
(** Apply a circuit-keyed property ([Pass] for source-keyed ones — a
    circuit is never a crash-fuzzer input). *)

val check_source : t -> string -> outcome
(** Apply a source-keyed property ([Pass] for circuit-keyed ones). *)
