(** Schedule-level lint passes (QL2xx).

    Range checks for scheduler options, and the failure witnesses of a
    schedule certificate ({!Qec_verify.Certifier}) re-expressed as
    structured diagnostics with invariant/round/gate locations in
    [context]. *)

val check_options :
  file:string -> ?threshold_p:float -> ?d:int -> unit -> Diagnostic.t list
(** QL201 (error): [threshold_p] outside [0, 1) — [Scheduler.run] would
    raise. QL202 (warning): surface code distance below 3 or even. *)

val check_certificate :
  file:string -> Qec_verify.Certifier.t -> Diagnostic.t list
(** One QL210 (error) diagnostic per certificate witness: the message is
    the witness detail, the context the failed invariant's id plus
    ["round R, gate G"] where known. Empty for a clean certificate. *)
