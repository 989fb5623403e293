module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Path = Qec_lattice.Path
module St = Qec_surface.Surgery_timing
module Task = Autobraid.Task
module Trace = Autobraid.Trace
module Scheduler = Autobraid.Scheduler
module Comm_backend = Autobraid.Comm_backend
module Tel = Qec_telemetry.Telemetry

let options_spec =
  let open Comm_backend.Options in
  [
    {
      key = "retry";
      kind = TBool;
      default = Bool true;
      doc = "failed-first retry pass when ordering merges within a round";
    };
    {
      key = "ripup";
      kind = TBool;
      default = Bool true;
      doc = "rip up committed corridors to rescue blocked merges";
    };
    {
      key = "pipeline_splits";
      kind = TBool;
      default = Bool true;
      doc =
        "overlap the split phase with the next round's merges when it is \
         never worse";
    };
  ]

type stats = {
  merge_rounds : int;
  local_rounds : int;
  pipelined_splits : int;
  tile_time_cycles : int;
  ripup_attempts : int;
  ripup_rescues : int;
  longest_merge_path : int;
  mean_merge_path : float;
}

let stats_to_assoc s =
  [
    ("merge_rounds", float_of_int s.merge_rounds);
    ("local_rounds", float_of_int s.local_rounds);
    ("pipelined_splits", float_of_int s.pipelined_splits);
    ("tile_time_cycles", float_of_int s.tile_time_cycles);
    ("ripup_attempts", float_of_int s.ripup_attempts);
    ("ripup_rescues", float_of_int s.ripup_rescues);
    ("longest_merge_path", float_of_int s.longest_merge_path);
    ("mean_merge_path", s.mean_merge_path);
  ]

let operand_qubits ops =
  List.concat_map (fun ((t : Task.t), _) -> [ t.q1; t.q2 ]) ops

(* Decide which splits overlap their successor round: the split of round k
   runs on the merge operands and ancilla patches only (the fabric is free
   after the merge), so it may proceed under round k+1 whenever k+1 touches
   none of round k's merge qubits. *)
let mark_overlaps circuit rounds =
  let n = Array.length rounds in
  let gate_qubits id = Gate.qubits (Circuit.gate circuit id) in
  let touched = function
    | Trace.Local { gates } -> List.concat_map gate_qubits gates
    | Trace.Braid { braids = ops; locals }
    | Trace.Merge { merges = ops; locals; _ } ->
      operand_qubits ops @ List.concat_map gate_qubits locals
    | Trace.Swap_layer { swaps } -> List.concat_map (fun (a, b) -> [ a; b ]) swaps
  in
  let overlaps = ref 0 in
  for k = 0 to n - 2 do
    match rounds.(k) with
    | Trace.Merge ({ merges; _ } as m) ->
      let mq = operand_qubits merges in
      if not (List.exists (fun q -> List.mem q mq) (touched rounds.(k + 1)))
      then begin
        rounds.(k) <- Trace.Merge { m with split_overlapped = true };
        incr overlaps
      end
    | Trace.Local _ | Trace.Braid _ | Trace.Swap_layer _ -> ()
  done;
  !overlaps

(* Pipelining-aware round formation: a gate that became ready because
   the previous merge round completed necessarily touches that round's
   merge qubits, so scheduling it kills the split overlap. Merges that
   were ready before and are still pending (a split front's carryover)
   are qubit-disjoint from the previous round by DAG-front disjointness.
   When such disjoint merges exist, schedule only the gates avoiding the
   previous round's merge qubits and defer the rest one round — the
   previous split then overlaps this round, saving [split_cycles] (see
   [mark_overlaps]). *)
let defer_select circuit ~prev ((singles, cx_tasks) as front) =
  match prev with
  | Some (Trace.Merge { merges = _ :: _ as merges; _ }) -> (
    let mq = operand_qubits merges in
    let touches_prev qs = List.exists (fun q -> List.mem q mq) qs in
    match
      List.filter
        (fun (t : Task.t) -> not (touches_prev [ t.q1; t.q2 ]))
        cx_tasks
    with
    | [] -> front
    | elig_cx ->
      ( List.filter
          (fun id -> not (touches_prev (Gate.qubits (Circuit.gate circuit id))))
          singles,
        elig_cx ))
  | _ -> front

(* One full scheduling pass on the round driver. [defer] switches the
   pipelining-aware round formation above; overlap accounting is applied
   separately so callers can compare a deferred and an undeferred
   schedule under the same cost model. *)
type pass = {
  result : Scheduler.result;
  trace : Trace.t;
  pipelined : int;
  ripup_attempts : int;
  ripup_rescues : int;
}

let schedule ~defer ~retry ~ripup ~pipeline_splits sched_options timing prep =
  let ripup_attempts = ref 0 and ripup_rescues = ref 0 in
  let route ~round:_ ~router ~occ ~placement tasks =
    let rr =
      Surgery_router.route_round ~retry ~ripup router occ placement tasks
    in
    ripup_attempts := !ripup_attempts + rr.Surgery_router.ripup_attempts;
    ripup_rescues := !ripup_rescues + rr.Surgery_router.ripup_rescues;
    List.iter
      (fun (_, p) -> Tel.sample "surgery.merge_path_len" (float (Path.length p)))
      rr.Surgery_router.routed;
    {
      Autobraid.Stack_finder.routed = rr.Surgery_router.routed;
      failed = rr.Surgery_router.failed;
      ratio = rr.Surgery_router.ratio;
    }
  in
  let policy =
    {
      Scheduler.select =
        (if defer then defer_select (Scheduler.lowered prep)
         else fun ~prev:_ front -> front);
      route = Some route;
      routed_round =
        (fun merges locals ->
          Trace.Merge { merges; locals; split_overlapped = false });
      gate_cycles = St.gate_cycles timing;
    }
  in
  let result, trace =
    Scheduler.drive_traced policy ~options:sched_options timing prep
  in
  let trace, pipelined =
    if not pipeline_splits then (trace, 0)
    else begin
      let rounds = Array.of_list trace.Trace.rounds in
      let pipelined = mark_overlaps trace.Trace.circuit rounds in
      ({ trace with rounds = Array.to_list rounds }, pipelined)
    end
  in
  {
    result = { result with total_cycles = Trace.cycles timing trace };
    trace;
    pipelined;
    ripup_attempts = !ripup_attempts;
    ripup_rescues = !ripup_rescues;
  }

(* The volume figures of a schedule, read off its merge rounds. A
   surgery schedule has no SWAP layers, so every other round is local. *)
let stats_of timing ({ result; trace; _ } as pass) =
  let tile_time = ref 0 and longest = ref 0 in
  let len_sum = ref 0 and merges = ref 0 in
  List.iter
    (function
      | Trace.Merge { merges = ms; _ } ->
        List.iter
          (fun (_, p) ->
            let len = Path.length p in
            tile_time := !tile_time + St.tile_time timing ~path_vertices:len;
            len_sum := !len_sum + len;
            longest := max !longest len;
            incr merges)
          ms
      | Trace.Local _ | Trace.Braid _ | Trace.Swap_layer _ -> ())
    trace.Trace.rounds;
  {
    merge_rounds = result.braid_rounds;
    local_rounds = result.rounds - result.braid_rounds;
    pipelined_splits = pass.pipelined;
    tile_time_cycles = !tile_time;
    ripup_attempts = pass.ripup_attempts;
    ripup_rescues = pass.ripup_rescues;
    longest_merge_path = !longest;
    mean_merge_path =
      (if !merges = 0 then 0. else float_of_int !len_sum /. float_of_int !merges);
  }

(* Surgery reaches any two patches directly: the static-placement
   variant, never a SWAP layer. *)
let best_pass config options timing circuit =
  let sched_options =
    { (Comm_backend.scheduler_options config) with variant = Scheduler.Sp }
  in
  let prep = Scheduler.prepare sched_options circuit in
  let get = Comm_backend.Options.get_bool options in
  let pipeline_splits = get "pipeline_splits" in
  let schedule ~defer =
    schedule ~defer ~retry:(get "retry") ~ripup:(get "ripup") ~pipeline_splits
      sched_options timing prep
  in
  (* Deferring ready gates off the previous round's merge qubits buys a
     split overlap, but it is a greedy bet: the deferred gates can push
     the whole schedule a round longer than they saved (found by fuzzing
     — see docs/testing.md). Pipelining must never lose, so build both
     the deferred and the undeferred schedule on one preparation, apply
     the same overlap accounting to each, and keep the cheaper (the
     deferred one on ties, preserving historical schedules). *)
  if not pipeline_splits then schedule ~defer:false
  else begin
    let deferred = schedule ~defer:true in
    let plain = schedule ~defer:false in
    if plain.result.total_cycles < deferred.result.total_cycles then plain
    else deferred
  end

let run_traced ?(config = Comm_backend.default_config)
    ?(options = Comm_backend.Options.defaults options_spec) timing circuit =
  Tel.with_span "surgery.run" @@ fun () ->
  let result, pass =
    Scheduler.clocked (fun () ->
        let pass = best_pass config options timing circuit in
        (pass.result, pass))
  in
  Tel.count ~by:pass.pipelined "surgery.pipelined_splits";
  (result, pass.trace, stats_of timing pass)

let register () =
  Comm_backend.register ~name:"surgery"
    ~description:"lattice surgery (merge-split CX over ancilla corridors)"
    ~options:options_spec
    (fun config options ->
      {
        Comm_backend.run =
          (fun timing circuit ->
            let result, trace, stats =
              run_traced ~config ~options timing circuit
            in
            {
              Comm_backend.backend = "surgery";
              result;
              trace;
              stats = stats_to_assoc stats;
            });
      })

(* Self-register when this module is linked; callers that resolve
   backends purely by name (and therefore never reference this module)
   must call [register] explicitly — see Qec_engine.Engine. *)
let () = register ()
