module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Bbox = Qec_lattice.Bbox
module Tel = Qec_telemetry.Telemetry

type outcome = {
  routed : (Task.t * Path.t) list;
  failed : Task.t list;
  ratio : float;
}

let route_in_order ?bounds_of router occ placement order =
  let routed = ref [] and failed = ref [] in
  List.iter
    (fun (task : Task.t) ->
      let src_cell, dst_cell = Task.cells placement task in
      let bounds = match bounds_of with None -> None | Some f -> f task in
      (* A bounded search that fails falls back to the whole lattice: the
         confinement of Theorems 1-2 is an optimization, not a rule. *)
      let attempt bounds =
        Router.route_and_reserve ?bounds router occ ~src_cell ~dst_cell
      in
      match (match attempt bounds with
             | Some p -> Some p
             | None when bounds <> None ->
               Tel.count "stack_finder.confinement_fallbacks";
               attempt None
             | None -> None)
      with
      | Some p -> routed := (task, p) :: !routed
      | None -> failed := task :: !failed)
    order;
  (List.rev !routed, List.rev !failed)

(* Pre-rewrite ordering kept verbatim as the differential oracle for
   [planned_order] below (see test_stack_finder.ml): it re-derives every
   bounding box inside the peel loop and the sort comparator. Scheduled
   for deletion once the precomputed-area path has survived a release. *)
let planned_order_reference ?priority_of placement tasks =
  let ig = Interference.build placement tasks in
  let stack = ref [] in
  let continue = ref true in
  while !continue do
    match Interference.max_degree_nodes ig with
    | [] -> continue := false
    | (first :: _ as candidates) ->
      if Interference.degree ig first.Task.id <= 2 then continue := false
      else begin
        let best =
          List.fold_left
            (fun acc t ->
              let area b = Bbox.area (Task.bbox placement b) in
              if area t > area acc then t else acc)
            first candidates
        in
        stack := best :: !stack;
        Interference.remove ig best.Task.id
      end
  done;
  let stack = !stack in
  let remaining =
    Interference.nodes ig
    |> List.sort (fun a b ->
           let pa, pb =
             match priority_of with
             | None -> (0, 0)
             | Some f -> (f a, f b)
           in
           if pa <> pb then compare pb pa
           else
             let ka = Bbox.area (Task.bbox placement a)
             and kb = Bbox.area (Task.bbox placement b) in
             if ka <> kb then compare ka kb else compare a.Task.id b.Task.id)
  in
  remaining @ stack

(* Peel max-degree (> 2) nodes onto the stack; ties prefer the largest
   bounding-box area, then the lowest gate id for determinism. [area]
   must agree with [Bbox.area (Task.bbox placement t)]. *)
let peel_stack ~area ig =
  let stack = ref [] in
  let continue = ref true in
  while !continue do
    match Interference.max_degree_nodes ig with
    | [] -> continue := false
    | (first :: _ as candidates) ->
      if Interference.degree ig first.Task.id <= 2 then continue := false
      else begin
        let best =
          List.fold_left
            (fun acc t -> if area t > area acc then t else acc)
            first candidates
        in
        stack := best :: !stack;
        Tel.count "stack_finder.stack_pushes";
        Interference.remove ig best.Task.id
      end
  done;
  !stack (* head = last pushed: already LIFO pop order *)

let planned_order ?priority_of placement tasks =
  (* Boxes are fixed for the round's placement: compute each task's area
     once up front instead of per comparison — the sort re-derived the
     box O(k log k) times per round at paper scale. Output is pinned to
     [planned_order_reference] by differential tests. *)
  let areas = Hashtbl.create 64 in
  List.iter
    (fun (t : Task.t) ->
      Hashtbl.replace areas t.id (Bbox.area (Task.bbox placement t)))
    tasks;
  let area (t : Task.t) = Hashtbl.find areas t.Task.id in
  let ig = Interference.build placement tasks in
  let stack = peel_stack ~area ig in
  let remaining =
    Interference.nodes ig
    |> List.sort (fun a b ->
           (* Optional lookahead priority first (higher = earlier), then
              the paper's smallest-bounding-box-first order. *)
           let pa, pb =
             match priority_of with
             | None -> (0, 0)
             | Some f -> (f a, f b)
           in
           if pa <> pb then compare pb pa
           else
             let ka = area a and kb = area b in
             if ka <> kb then compare ka kb else compare a.Task.id b.Task.id)
  in
  remaining @ stack

let find ?(retry = true) ?(confine_llg = false) ?priority_of router occ
    placement tasks =
  match tasks with
  | [] -> { routed = []; failed = []; ratio = 1.0 }
  | _ ->
    let total = List.length tasks in
    let order, bounds_of =
      Tel.timed "stack_finder.plan" @@ fun () ->
      let order = planned_order ?priority_of placement tasks in
      (* Theorem 1/2 confinement: gates in guaranteed LLGs (size <= 3 or
         strictly nested) first search inside their group's bounding box,
         keeping the shared fabric free for everyone else. *)
      if not confine_llg then (order, None)
      else begin
        let table = Hashtbl.create 16 in
        List.iter
          (fun (g : Llg.group) ->
            if Llg.is_guaranteed placement g then
              List.iter
                (fun (t : Task.t) -> Hashtbl.replace table t.id g.Llg.bbox)
                g.Llg.members)
          (Llg.decompose placement tasks);
        (order, Some (fun (t : Task.t) -> Hashtbl.find_opt table t.id))
      end
    in
    let routed, failed =
      Tel.timed "stack_finder.first_pass" @@ fun () ->
      route_in_order ?bounds_of router occ placement order
    in
    let routed, failed =
      if retry && failed <> [] then
        Tel.timed "stack_finder.retry" (fun () ->
            (* Failed-first retry: release our paths and try again with the
               blocked gates routed before everything else. *)
            Tel.count "stack_finder.retry_rounds";
            List.iter (fun (_, p) -> Occupancy.release_path occ p) routed;
            let retry_order = failed @ List.map fst routed in
            let routed', failed' =
              route_in_order router occ placement retry_order
            in
            if List.length routed' > List.length routed then begin
              Tel.count "stack_finder.retry_wins";
              (routed', failed')
            end
            else begin
              (* Roll back to the first attempt. *)
              List.iter (fun (_, p) -> Occupancy.release_path occ p) routed';
              List.iter (fun (_, p) -> Occupancy.reserve_path occ p) routed;
              (routed, failed)
            end)
      else (routed, failed)
    in
    Tel.count ~by:(List.length routed) "stack_finder.gates_routed";
    Tel.count ~by:(List.length failed) "stack_finder.gates_failed";
    {
      routed;
      failed;
      ratio = float_of_int (List.length routed) /. float_of_int total;
    }
