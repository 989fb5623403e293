module Task = Autobraid.Task
module Stack_finder = Autobraid.Stack_finder
module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Tel = Qec_telemetry.Telemetry

type round_result = {
  routed : (Task.t * Path.t) list;
  failed : Task.t list;
  ratio : float;
  ripup_attempts : int;
  ripup_rescues : int;
}

(* Tile-time is path length x merge duration; the merge duration is uniform
   within a round, so length alone orders candidates. *)
let tile_time_of_path p = Path.length p

let route_round ?(retry = true) ?(ripup = true) router occ placement tasks =
  match tasks with
  | [] ->
    { routed = []; failed = []; ratio = 1.0; ripup_attempts = 0;
      ripup_rescues = 0 }
  | _ ->
    (* Cheapest-volume-first ordering: a short merge holds few ancilla
       tiles for its d cycles, so greedily routing by ascending operand
       distance minimizes committed tile-time; the stack finder's
       interference peeling still defers the lattice-splitting gates. *)
    let priority_of (t : Task.t) = -Task.distance placement t in
    let outcome =
      Stack_finder.find ~retry ~confine_llg:false ~priority_of router occ
        placement tasks
    in
    let routed = outcome.Stack_finder.routed in
    let failed = outcome.Stack_finder.failed in
    let total = List.length tasks in
    if (not ripup) || failed = [] || routed = [] then
      { routed; failed; ratio = outcome.Stack_finder.ratio;
        ripup_attempts = 0; ripup_rescues = 0 }
    else begin
      (* Volume-aware rip-up: evict the routed merge holding the most
         tile-time (the prime suspect for blocking), re-route the blocked
         merges through the freed corridor, then try to re-place the
         victim. Kept only when strictly more gates schedule. *)
      Tel.count "surgery.ripup_attempts";
      let victim, keepers =
        let sorted =
          List.stable_sort
            (fun (_, p1) (_, p2) ->
              compare (tile_time_of_path p2) (tile_time_of_path p1))
            routed
        in
        (List.hd sorted, List.tl sorted)
      in
      let victim_task, victim_path = victim in
      Occupancy.release_path occ victim_path;
      let try_route (t : Task.t) =
        let src_cell, dst_cell = Task.cells placement t in
        Router.route_and_reserve router occ ~src_cell ~dst_cell
      in
      let rescued, still_failed =
        List.fold_left
          (fun (ok, ko) t ->
            match try_route t with
            | Some p -> ((t, p) :: ok, ko)
            | None -> (ok, t :: ko))
          ([], [])
          (Task.shortest_first placement failed)
      in
      let rescued = List.rev rescued and still_failed = List.rev still_failed in
      let victim_rerouted = try_route victim_task in
      let new_count =
        List.length keepers + List.length rescued
        + match victim_rerouted with Some _ -> 1 | None -> 0
      in
      if new_count > List.length routed then begin
        Tel.count ~by:(List.length rescued) "surgery.ripup_rescues";
        let routed' =
          keepers @ rescued
          @ match victim_rerouted with
            | Some p -> [ (victim_task, p) ]
            | None -> []
        in
        let failed' =
          still_failed
          @ match victim_rerouted with None -> [ victim_task ] | Some _ -> []
        in
        { routed = routed'; failed = failed';
          ratio = float_of_int new_count /. float_of_int total;
          ripup_attempts = 1; ripup_rescues = List.length rescued }
      end
      else begin
        (* No net gain: roll everything back to the first attempt. *)
        List.iter (fun (_, p) -> Occupancy.release_path occ p) rescued;
        (match victim_rerouted with
        | Some p -> Occupancy.release_path occ p
        | None -> ());
        Occupancy.reserve_path occ victim_path;
        { routed; failed; ratio = outcome.Stack_finder.ratio;
          ripup_attempts = 1; ripup_rescues = 0 }
      end
    end
