module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Tel = Qec_telemetry.Telemetry

let total_vertices routed =
  List.fold_left (fun acc (_, p) -> acc + Path.length p) 0 routed

let compact ?(max_passes = 3) router occ placement routed =
  Tel.with_span "compaction" @@ fun () ->
  let arr = Array.of_list routed in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    (* Visit paths longest-first: they have the most slack to give back. *)
    let order =
      Array.mapi (fun i (_, p) -> (i, Path.length p)) arr
      |> Array.to_list
      |> List.sort (fun (_, l1) (_, l2) -> compare l2 l1)
      |> List.map fst
    in
    List.iter
      (fun i ->
        let task, path = arr.(i) in
        if Path.length path > 1 then begin
          Occupancy.release_path occ path;
          let src_cell, dst_cell = Task.cells placement task in
          match Router.route router occ ~src_cell ~dst_cell with
          | Some path' when Path.length path' < Path.length path ->
            Tel.count "compaction.reroutes_improved";
            Occupancy.reserve_path occ path';
            arr.(i) <- (task, path');
            improved := true
          | Some _ | None ->
            (* keep the original (re-routing found nothing shorter) *)
            Occupancy.reserve_path occ path
        end)
      order
  done;
  Tel.count ~by:!passes "compaction.passes";
  Array.to_list arr

let compact_and_rescue router occ placement (o : Stack_finder.outcome) =
  if o.routed = [] then (o, 0)
  else begin
    let compacted =
      Tel.timed "compaction.compact" (fun () ->
          compact router occ placement o.routed)
    in
    let rescued, failed =
      Stack_finder.route_in_order router occ placement o.failed
    in
    let routed = compacted @ rescued in
    ( {
        Stack_finder.routed;
        failed;
        ratio =
          float_of_int (List.length routed)
          /. float_of_int (List.length routed + List.length failed);
      },
      List.length rescued )
  end
