(** Logical quantum circuits.

    A circuit is an ordered sequence of {!Gate.t} over qubits
    [0 .. num_qubits - 1]. Program order on each qubit defines the
    dependency structure used by {!Dag}. *)

type t

exception Invalid of string
(** Raised by {!validate} and the builder on malformed circuits (operand out
    of range, duplicate operands in one gate, ...). *)

val create : ?name:string -> num_qubits:int -> Gate.t list -> t
(** Build and validate a circuit. Raises {!Invalid}. *)

val name : t -> string

val num_qubits : t -> int

val gates : t -> Gate.t array
(** The gate sequence. Callers must not mutate the returned array. *)

val gate : t -> int -> Gate.t
(** [gate c i] is the [i]-th gate. *)

val length : t -> int
(** Number of gates. *)

val validate : t -> unit
(** Re-check all invariants; raises {!Invalid} with a descriptive message:
    for a gate, the first out-of-range operand in operand order, else a
    duplicate operand. Fixed-arity gates are checked by comparing their
    operands directly, with no allocation; only [Mcx] and [Barrier] build
    and sort an operand list. {!create} and {!Builder.add} run the same
    per-gate check. *)

val count_if : (Gate.t -> bool) -> t -> int

val two_qubit_count : t -> int

val single_qubit_count : t -> int

val iter : (int -> Gate.t -> unit) -> t -> unit
(** Iterate gates with their indices, in program order. *)

val append : t -> t -> t
(** Concatenate two circuits on the same qubit count. The result takes the
    first circuit's name. Raises {!Invalid} on width mismatch. *)

val map_gates : (Gate.t -> Gate.t list) -> t -> t
(** Rewrite every gate to a (possibly empty) replacement sequence, keeping
    name and width; the result is re-validated. Each replacement list is
    built once and copied into an array of the exact output length. *)

val with_gates : t -> Gate.t array -> t
(** [with_gates c gates] is [c] (name and width) over the gate sequence
    [gates], validated. The result owns [gates]: callers must not mutate
    it afterwards. *)

val with_name : string -> t -> t

val used_qubits : t -> int list
(** Qubits touched by at least one gate, ascending. *)

val compact : t -> t
(** Renumber qubits so only used ones remain, preserving gate order and
    relative qubit order — the shrinking step that deletes idle wires. A
    gate-free circuit compacts to one (idle) qubit, the narrowest valid
    width. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing: header plus one gate per line. *)

(** {2 Builder}

    Imperative accumulation for generators and parsers. *)

module Builder : sig
  type circuit := t

  type t

  val create : ?name:string -> num_qubits:int -> unit -> t

  val add : t -> Gate.t -> unit
  (** Append one gate; validated eagerly. Raises {!Invalid}. *)

  val add_list : t -> Gate.t list -> unit

  val length : t -> int

  val finish : t -> circuit
  (** Freeze into a circuit. The builder may continue accumulating (the
      frozen circuit is unaffected). *)
end
