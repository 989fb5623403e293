module Json = Qec_report.Json

type direction = Lower_better | Higher_better
type band = Cycle | Wall

(* Which numeric leaves of a BENCH_*.json tree are gated, how, and against
   which tolerance. Cycle metrics are deterministic outputs of the
   compiler (tight tolerance); wall metrics are host timings (loose
   tolerance). Everything else (descriptors like num_qubits, utilization
   ratios, backend_stats detail) is informational and not gated. *)
let classify key =
  match key with
  | "total_cycles" | "rounds" | "comm_rounds" | "braid_rounds"
  | "swap_layers" | "swaps_inserted" | "critical_path_cycles" ->
    Some (Lower_better, Cycle)
  | "speedup" | "lookahead_speedup" -> Some (Higher_better, Cycle)
  (* Scale section: the paper's Table-2 headline ratio is a pure cycle
     quotient (greedy / braid), deterministic like its inputs. *)
  | "braid_vs_greedy_speedup" -> Some (Higher_better, Cycle)
  (* Verify section: counts of certified schedules / checked invariants /
     killed mutations are exact functions of the bench circuit set and
     Qec_verify's registries, so they gate at cycle tolerance. *)
  | "certificates" | "invariants_checked" | "mutations_applied"
  | "mutations_killed" ->
    Some (Higher_better, Cycle)
  | _ ->
    (* Any _s-suffixed leaf (the scale section's *_wall_s keys) is a host
       timing: lower is better, wall tolerance. *)
    let n = String.length key in
    if n > 2 && String.sub key (n - 2) 2 = "_s" then Some (Lower_better, Wall)
    else None

type finding = {
  path : string;
  key : string;
  baseline : float;
  current : float;
  ratio : float;  (** current / baseline; [infinity] when baseline is 0 *)
  band : band;
}

type outcome = {
  checked : int;
  regressions : finding list;
  improvements : finding list;
  missing : string list;  (** gated baseline paths absent from current *)
}

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Null | Json.Bool _ | Json.String _ | Json.List _ | Json.Obj _ -> None

let check ~tolerance ~wall_tolerance ~baseline ~current =
  let checked = ref 0 in
  let regressions = ref [] in
  let improvements = ref [] in
  let missing = ref [] in
  let compare_leaf path key dir band b c =
    incr checked;
    let tol = match band with Cycle -> tolerance | Wall -> wall_tolerance in
    let ratio = if b = 0. then (if c = 0. then 1. else infinity) else c /. b in
    let worse, better =
      match dir with
      | Lower_better -> (c > (b *. (1. +. tol)) +. 1e-12, c < b *. (1. -. tol))
      | Higher_better -> (c < b *. (1. -. tol), c > (b *. (1. +. tol)) +. 1e-12)
    in
    let f = { path; key; baseline = b; current = c; ratio; band } in
    if worse then regressions := f :: !regressions
    else if better then improvements := f :: !improvements
  in
  let rec walk path b c =
    match (b, c) with
    | Json.Obj bs, Json.Obj _ ->
      List.iter
        (fun (key, bv) ->
          let sub = if path = "" then key else path ^ "." ^ key in
          match (Json.member key c, number bv, classify key) with
          | None, Some _, Some _ -> missing := sub :: !missing
          | None, _, _ -> if contains_gated bv then missing := sub :: !missing
          | Some cv, Some bn, Some (dir, band) -> (
            match number cv with
            | Some cn -> compare_leaf sub key dir band bn cn
            | None -> missing := sub :: !missing)
          | Some cv, _, _ -> walk sub bv cv)
        bs
    | Json.List bs, Json.List cs ->
      List.iteri
        (fun i bv ->
          let sub = Printf.sprintf "%s[%d]" path i in
          match List.nth_opt cs i with
          | Some cv -> walk sub bv cv
          | None -> if contains_gated bv then missing := sub :: !missing)
        bs
    (* shape mismatch (e.g. an Obj replaced by a scalar): anything gated
       underneath the baseline side just vanished *)
    | _ -> if contains_gated b then missing := path :: !missing
  and contains_gated = function
    | Json.Obj fields ->
      List.exists
        (fun (k, v) ->
          (classify k <> None && number v <> None) || contains_gated v)
        fields
    | Json.List items -> List.exists contains_gated items
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ ->
      false
  in
  walk "" baseline current;
  {
    checked = !checked;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    missing = List.rev !missing;
  }

let pp_finding f =
  Printf.sprintf "%s: %g -> %g (%.3fx, %s tolerance)" f.path f.baseline
    f.current f.ratio
    (match f.band with Cycle -> "cycle" | Wall -> "wall")

let passed o = o.regressions = [] && o.missing = []
