module Circuit = Qec_circuit.Circuit
module Dag = Qec_circuit.Dag
module Occupancy = Qec_lattice.Occupancy
module Scheduler = Autobraid.Scheduler
module Stack_finder = Autobraid.Stack_finder
module Compaction = Autobraid.Compaction
module Task = Autobraid.Task
module Dataflow = Qec_verify.Dataflow
module Tel = Qec_telemetry.Telemetry
module Comm_backend = Autobraid.Comm_backend

let options_spec =
  let open Comm_backend.Options in
  [
    {
      key = "window";
      kind = TInt;
      default = Int 4;
      doc =
        "successor levels the round priority looks past the DAG front; 0 = \
         pure greedy";
    };
    {
      key = "slack_weight";
      kind = TFloat;
      default = Float 1.0;
      doc = "weight of the critical-path term in the round score";
    };
  ]

let validate options =
  let open Comm_backend.Options in
  let window = get_int options "window" in
  let slack_weight = get_float options "slack_weight" in
  if window < 0 then Error (Printf.sprintf "window %d must be >= 0" window)
  else if slack_weight < 0. then
    Error
      (Printf.sprintf "slack_weight %s must be >= 0"
         (Qec_util.Floatfmt.repr slack_weight))
  else Ok ()

type stats = {
  window : int;
  chose_lookahead : bool;
  lookahead_cycles : int;
  greedy_cycles : int;
  priority_rounds : int;
  rescued_gates : int;
}

let stats_to_assoc s =
  [
    ("window", float_of_int s.window);
    ("chose_lookahead", if s.chose_lookahead then 1. else 0.);
    ("lookahead_cycles", float_of_int s.lookahead_cycles);
    ("greedy_cycles", float_of_int s.greedy_cycles);
    ("priority_rounds", float_of_int s.priority_rounds);
    ("rescued_gates", float_of_int s.rescued_gates);
  ]

let windowed_tail ~dag ~window circuit =
  if window < 0 then invalid_arg "Lookahead_scheduler.windowed_tail: window < 0";
  let n = Circuit.length circuit in
  let cost = Array.init n (fun i -> Dataflow.default_cost (Circuit.gate circuit i)) in
  let cur = Array.copy cost in
  (* The recurrence is monotone and fixes once [window] reaches the DAG
     depth, so iterating past [n] levels cannot change anything. *)
  let next = Array.make n 0 in
  for _ = 1 to min window n do
    for i = n - 1 downto 0 do
      next.(i) <-
        cost.(i)
        + List.fold_left (fun acc s -> max acc cur.(s)) 0 (Dag.succs dag i)
    done;
    Array.blit next 0 cur 0 n
  done;
  cur

(* The greedy run and the portfolio run, both on one preparation; the
   cheaper schedule wins. The driver options are what the braid backend
   runs with when handed the same config, so the two runs agree on
   everything but routing. *)
let portfolio config ~window ~slack_weight timing circuit =
  let sched_options = Comm_backend.scheduler_options config in
  (* Both runs drive one preparation: one lowering, placement and DAG. *)
  let prep = Scheduler.prepare sched_options circuit in
  let drive policy =
    Scheduler.drive_traced policy ~options:sched_options timing prep
  in
  let greedy_result, greedy_trace = drive (Scheduler.braid_policy timing) in
  if window = 0 then
    (* Pure greedy by definition: the route hook would reproduce the
       stack-finder round verbatim, so skip the second run entirely. *)
    ( greedy_result,
      greedy_trace,
      {
        window = 0;
        chose_lookahead = false;
        lookahead_cycles = greedy_result.Scheduler.total_cycles;
        greedy_cycles = greedy_result.Scheduler.total_cycles;
        priority_rounds = 0;
        rescued_gates = 0;
      } )
  else begin
    (* Priorities are computed on the prepared lowering, so the task ids
       seen by the route hook index these arrays. *)
    let lowered = Scheduler.lowered prep and dag = Scheduler.dag prep in
    let wtail = windowed_tail ~dag ~window lowered in
    let sa = Dataflow.slack_analysis ~dag lowered in
    let crit = Dataflow.critical_length sa in
    let criticality id =
      if crit = 0 then 0.
      else
        float_of_int (crit - sa.(id).Dataflow.slack) /. float_of_int crit
    in
    let crit_sum (routed : (Task.t * Qec_lattice.Path.t) list) =
      List.fold_left
        (fun acc ((t : Task.t), _) ->
          acc +. (slack_weight *. criticality t.Task.id))
        0. routed
    in
    let priority_rounds = ref 0 in
    let rescued_gates = ref 0 in
    let route ~round:_ ~router ~occ ~placement tasks =
      (* The candidate portfolio: the greedy stack order, the windowed
         critical-path order (tallest dependent chain first), the
         hardest-first order (largest bounding box first — commit the
         lattice-splitting paths before the easy locals fragment the
         fabric), and two deterministic diversification shuffles (the
         multi-start that rescues rounds where every informed order
         walks into the same packing dead end). *)
      let area (t : Task.t) = Qec_lattice.Bbox.area (Task.bbox placement t) in
      let candidates : (Task.t -> int) option list =
        [
          None;
          Some (fun t -> wtail.(t.Task.id));
          Some area;
          Some (fun (t : Task.t) -> t.Task.id * 2654435761 land 0xFFFF);
          Some (fun (t : Task.t) -> (t.Task.id + 13) * 97 mod 251);
        ]
      in
      (* Evaluate one candidate ordering: route, topologically compact,
         then try to rescue the failures over the freed vertices. Leaves
         the outcome's reservations in [occ]. *)
      let attempt priority_of =
        Occupancy.clear occ;
        Compaction.compact_and_rescue router occ placement
          (Stack_finder.find ~retry:true ~confine_llg:true ?priority_of router
             occ placement tasks)
      in
      (* Rank: gates routed, then slack-weighted criticality of the
         routed set, then lower lattice utilization (congestion
         pressure). Index breaks exact ties toward the greedy order. *)
      let measure (o, _) =
        ( List.length o.Stack_finder.routed,
          crit_sum o.Stack_finder.routed,
          -.Occupancy.utilization occ )
      in
      let best_i = ref 0 and best_m = ref None in
      List.iteri
        (fun i priority_of ->
          let m = measure (attempt priority_of) in
          match !best_m with
          | Some bm when m <= bm -> ()
          | _ ->
            best_i := i;
            best_m := Some m)
        candidates;
      (* Rip-up: clear the last candidate's reservations and replay the
         winner deterministically so [occ] holds exactly its round. *)
      let outcome, rescued = attempt (List.nth candidates !best_i) in
      if !best_i > 0 then begin
        incr priority_rounds;
        Tel.count "lookahead.priority_rounds"
      end;
      rescued_gates := !rescued_gates + rescued;
      outcome
    in
    let look_result, look_trace = drive (Scheduler.braid_policy ~route timing) in
    let chose_lookahead =
      look_result.Scheduler.total_cycles
      <= greedy_result.Scheduler.total_cycles
    in
    let result, trace =
      if chose_lookahead then (look_result, look_trace)
      else (greedy_result, greedy_trace)
    in
    if not chose_lookahead then Tel.count "lookahead.fell_back_to_greedy";
    ( result,
      trace,
      {
        window;
        chose_lookahead;
        lookahead_cycles = look_result.Scheduler.total_cycles;
        greedy_cycles = greedy_result.Scheduler.total_cycles;
        priority_rounds = !priority_rounds;
        rescued_gates = !rescued_gates;
      } )
  end

let run_traced ?(config = Comm_backend.default_config)
    ?(options = Comm_backend.Options.defaults options_spec) timing circuit =
  Result.iter_error invalid_arg (validate options);
  let window = Comm_backend.Options.get_int options "window"
  and slack_weight = Comm_backend.Options.get_float options "slack_weight" in
  Tel.with_span "lookahead.run" @@ fun () ->
  let result, (trace, stats) =
    Scheduler.clocked @@ fun () ->
    let result, trace, stats =
      portfolio config ~window ~slack_weight timing circuit
    in
    (result, (trace, stats))
  in
  (result, trace, stats)

let register () =
  Comm_backend.register ~name:"lookahead"
    ~description:
      "windowed critical-path lookahead over braiding (never worse than \
       greedy)"
    ~options:options_spec ~validate
    (fun config options ->
      {
        Comm_backend.run =
          (fun timing circuit ->
            let result, trace, stats =
              run_traced ~config ~options timing circuit
            in
            {
              Comm_backend.backend = "lookahead";
              result;
              trace;
              stats = stats_to_assoc stats;
            });
      })

(* Self-register when linked and referenced; name-only resolvers call
   [register] explicitly — see Qec_engine.Engine. *)
let () = register ()
