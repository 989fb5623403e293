module D = Diagnostic

let diag ?context ~code ~severity ~file fmt =
  Printf.ksprintf (fun m -> D.make ?context ~code ~severity ~file m) fmt

let check_options ~file ?threshold_p ?d () =
  let tp =
    match threshold_p with
    | Some p when p < 0. || p >= 1. ->
      [
        diag ~code:"QL201" ~severity:D.Error ~file
          "threshold_p = %g is outside [0, 1); Scheduler.run would reject it" p;
      ]
    | _ -> []
  in
  let dist =
    match d with
    | Some d when d < 3 ->
      [
        diag ~code:"QL202" ~severity:D.Warning ~file
          "surface code distance %d cannot correct any error (d >= 3 needed)" d;
      ]
    | Some d when d mod 2 = 0 ->
      [
        diag ~code:"QL202" ~severity:D.Warning ~file
          "even surface code distance %d corrects no more errors than %d" d
          (d - 1);
      ]
    | _ -> []
  in
  tp @ dist

let check_certificate ~file (cert : Qec_verify.Certifier.t) =
  List.map
    (fun (w : Qec_verify.Certifier.witness) ->
      (* The invariant id is the stable handle; round/gate locate the
         witness. *)
      let id = Qec_verify.Invariant.id w.invariant in
      let context =
        match (w.round, w.gate) with
        | Some r, Some g -> Printf.sprintf "%s, round %d, gate %d" id r g
        | Some r, None -> Printf.sprintf "%s, round %d" id r
        | None, Some g -> Printf.sprintf "%s, gate %d" id g
        | None, None -> id
      in
      D.make ~context ~code:"QL210" ~severity:D.Error ~file w.detail)
    cert.witnesses
