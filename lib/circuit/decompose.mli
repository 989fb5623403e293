(** Gate-level lowering passes.

    The braiding schedulers accept only single-qubit gates and two-qubit
    gates (each two-qubit gate = one braid). These passes lower everything
    else. Decompositions preserve the two-qubit {e interaction structure}
    that communication scheduling depends on; global phases and the exact
    choice of controlled-root emulation are irrelevant to routing and are
    chosen for gate-count economy:

    - [Swap] → 3 [Cx] (the paper's Fig. 11);
    - [Ccx] → the standard 15-gate Clifford+T network (6 CX, 7 T/T†, 2 H);
    - [Mcx] with k ≥ 3 controls → either a Toffoli ladder using caller-
      supplied ancilla qubits (linear size), or the ancilla-free Barenco
      recursion with controlled-root gates emulated as
      [H; Cphase; H] sandwiches (size grows ~3{^k}; fine for k ≤ 8). *)

val strip_barriers : Circuit.t -> Circuit.t
(** Remove [Barrier] pseudo-gates. Note this {e relaxes} dependencies the
    barrier imposed; apply only when the barrier was informational. *)

val swaps_to_cx : Circuit.t -> Circuit.t
(** Each [Swap (a,b)] becomes [Cx(a,b); Cx(b,a); Cx(a,b)]. *)

val ccx_to_clifford_t : Circuit.t -> Circuit.t
(** Lower every [Ccx] to the 15-gate network. Other gates unchanged. *)

val mcx_gates : ?ancillas:int list -> int list -> int -> Gate.t list
(** [mcx_gates ?ancillas controls target] is a gate sequence implementing a
    multi-controlled X, containing only [Ccx] and narrower gates. With
    [ancillas] (distinct from controls/target, at least
    [List.length controls - 2] of them) the linear ladder is used; without,
    the ancilla-free recursion. Raises [Invalid_argument] if fewer than 3
    controls (use [Cx]/[Ccx] directly), if ancillas overlap operands, or if
    the ancilla-free recursion would exceed 8 controls. *)

val lower_mcx : ?ancillas:int list -> Circuit.t -> Circuit.t
(** Rewrite every [Mcx] via {!mcx_gates}. *)

val to_scheduler_gates : Circuit.t -> Circuit.t
(** Full lowering: the same circuit as
    [strip_barriers], then [lower_mcx] (ancilla-free), then
    [ccx_to_clifford_t], then [swaps_to_cx], computed in one pass over the
    gates. Each gate gets the four rewrites in that order: a [Barrier] is
    dropped, an [Mcx] is expanded by {!mcx_gates}, and every [Ccx] and
    [Swap] of the result is rewritten; other gates are kept as they are.
    The output length is counted first (each [Mcx] expansion is kept for
    the fill), so the output array is allocated once at its exact size,
    and the result is validated once. The result contains only gates for
    which [Gate.is_single_qubit] or [Gate.is_two_qubit] holds, which is
    what {!Autobraid.Scheduler} and {!Gp_baseline} require. Raises
    [Invalid_argument] like {!mcx_gates} on an [Mcx] it cannot lower. *)
