(* Certificate checks shared by the test executables: a recorded trace is
   valid exactly when Qec_verify.Certifier certifies it clean. No
   scheduler result is passed, so the cycle account compares only the
   trace's own totals and the distance of [timing] does not matter. *)

module V = Qec_verify.Certifier

let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d ()

let certify trace = V.certify timing trace

let clean trace = V.ok (certify trace)

let expect_clean ?(what = "trace") trace =
  let cert = certify trace in
  if not (V.ok cert) then
    Alcotest.failf "%s does not certify: %s" what (V.to_summary cert)

let expect_failed invariant trace =
  let cert = certify trace in
  if not (List.mem invariant (V.failed cert)) then
    Alcotest.failf "expected %s to fail (got: %s)"
      (Qec_verify.Invariant.id invariant)
      (V.to_summary cert)
