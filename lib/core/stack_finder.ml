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

(* Route each task in the given order with its optional confinement box,
   reserving successful paths. With [max_failed], stop before the next
   task once that many have failed: the rest are neither routed nor
   reported. *)
let route_planned ?(max_failed = max_int) router occ placement order =
  let rec go routed failed n_failed = function
    | ((task : Task.t), bounds) :: rest when n_failed < max_failed -> (
      let src_cell, dst_cell = Task.cells placement task in
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
      | Some p -> go ((task, p) :: routed) failed n_failed rest
      | None -> go routed (task :: failed) (n_failed + 1) rest)
    | _ -> (List.rev routed, List.rev failed)
  in
  go [] [] 0 order

let unconfined order = List.map (fun t -> (t, None)) order

let route_in_order router occ placement order =
  route_planned router occ placement (unconfined order)

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
   bounding-box area, then the lowest gate id for determinism. Works on
   dense indices and returns them LIFO (head = last pushed). *)
let peel_stack areas ig =
  let rec go stack =
    let best = Interference.max_degree_index ig areas in
    if best < 0 || Interference.degree_at ig best <= 2 then stack
    else begin
      Tel.count "stack_finder.stack_pushes";
      Interference.remove_at ig best;
      go (best :: stack)
    end
  in
  go []

(* The round's routing order as indices into [arr]; [boxes.(i)] is the
   box of [arr.(i)], computed once by the caller. Peeling needs a node of
   degree > 2, hence at least 4 tasks: a round of at most 3 builds no
   interference graph and is just the sort below. *)
let plan_indices ?priority_of arr boxes =
  let n = Array.length arr in
  let areas = Array.map Bbox.area boxes in
  let stack, rest =
    if n <= 3 then ([], List.init n Fun.id)
    else begin
      let ig = Interference.of_boxes arr boxes in
      let stack = peel_stack areas ig in
      (stack, List.filter (Interference.present_at ig) (List.init n Fun.id))
    end
  in
  (* Optional lookahead priority first (higher = earlier), then the
     paper's smallest-bounding-box-first order. *)
  let prio =
    match priority_of with
    | None -> Array.make n 0
    | Some f -> Array.map f arr
  in
  let cmp i j =
    if prio.(i) <> prio.(j) then compare prio.(j) prio.(i)
    else if areas.(i) <> areas.(j) then compare areas.(i) areas.(j)
    else compare arr.(i).Task.id arr.(j).Task.id
  in
  List.sort cmp rest @ stack

let planned_order ?priority_of placement tasks =
  let arr = Array.of_list tasks in
  let boxes = Array.map (fun t -> Task.bbox placement t) arr in
  List.map (fun i -> arr.(i)) (plan_indices ?priority_of arr boxes)

let find ?(retry = true) ?(confine_llg = false) ?priority_of router occ
    placement tasks =
  match tasks with
  | [] -> { routed = []; failed = []; ratio = 1.0 }
  | _ ->
    let total = List.length tasks in
    let order =
      Tel.timed "stack_finder.plan" @@ fun () ->
      (* Each task's box, once per round: the plan, the interference
         graph and the LLG partition all read this array. *)
      let arr = Array.of_list tasks in
      let boxes = Array.map (fun t -> Task.bbox placement t) arr in
      let order = plan_indices ?priority_of arr boxes in
      (* Theorem 1/2 confinement: gates in guaranteed LLGs (size <= 3 or
         strictly nested) first search inside their group's bounding box,
         keeping the shared fabric free for everyone else. *)
      if not confine_llg then List.map (fun i -> (arr.(i), None)) order
      else
        let bounds = Llg.confinement boxes in
        List.map (fun i -> (arr.(i), bounds.(i))) order
    in
    let routed, failed =
      Tel.timed "stack_finder.first_pass" @@ fun () ->
      route_planned router occ placement order
    in
    let routed, failed =
      if retry && failed <> [] then
        Tel.timed "stack_finder.retry" (fun () ->
            (* Failed-first retry: release our paths and try again with the
               blocked gates routed before everything else. It wins only
               with strictly fewer failures (the same gates, so strictly
               more routed), so it stops as soon as its failures reach the
               first pass's: the rest of it could not win. *)
            Tel.count "stack_finder.retry_rounds";
            List.iter (fun (_, p) -> Occupancy.release_path occ p) routed;
            let retry_order = failed @ List.map fst routed in
            let n_failed = List.length failed in
            let routed', failed' =
              route_planned ~max_failed:n_failed router occ placement
                (unconfined retry_order)
            in
            if List.length failed' < n_failed then begin
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
