module Router = Qec_lattice.Router
module Task = Autobraid.Task
module Stack_finder = Autobraid.Stack_finder
module Scheduler = Autobraid.Scheduler

type route_kind = Dimension_ordered | Astar

type options = {
  initial : Autobraid.Initial_layout.method_;
  router : route_kind;
  seed : int;
}

let default_options =
  {
    (* Plain bisection: the degree-2 snake embedding is part of AutoBraid's
       initial-placement analysis, not of the MICRO'17 baseline. *)
    initial = Autobraid.Initial_layout.Bisected;
    router = Dimension_ordered;
    seed = 11;
  }

(* The baseline is not in the Comm_backend registry, but it speaks the
   same per-backend options codec so the engine decodes every backend's
   knobs uniformly. *)
let options_spec =
  let open Autobraid.Comm_backend.Options in
  [
    {
      key = "router";
      kind = TEnum [ "dimension"; "astar" ];
      default = String "dimension";
      doc =
        "dimension = braidflash-style single-bend routes (the faithful \
         baseline), astar = detouring A* ablation";
    };
  ]

let of_backend_options opts base =
  {
    base with
    router =
      (match Autobraid.Comm_backend.Options.get_string opts "router" with
      | "astar" -> Astar
      | _ -> Dimension_ordered);
  }

let route kind ~round:_ ~router ~occ ~placement tasks =
  let order = Task.shortest_first placement tasks in
  let routed, failed =
    match kind with
    | Astar -> Stack_finder.route_in_order router occ placement order
    | Dimension_ordered ->
      (* Braidflash-style routing: no detours; a blocked L-route means the
         braid stalls until a later round. *)
      List.partition_map
        (fun task ->
          let src_cell, dst_cell = Task.cells placement task in
          match
            Router.route_dimension_ordered_and_reserve router occ ~src_cell
              ~dst_cell
          with
          | Some p -> Left (task, p)
          | None -> Right task)
        order
  in
  {
    Stack_finder.routed;
    failed;
    ratio =
      float_of_int (List.length routed) /. float_of_int (List.length tasks);
  }

(* The static-placement half of the policy: no layout optimizer, so no
   SWAP layer ever replaces a round. *)
let scheduler_options options =
  {
    Scheduler.default_options with
    variant = Scheduler.Sp;
    initial = options.initial;
    seed = options.seed;
  }

let run ?(options = default_options) timing circuit =
  Scheduler.run ~route:(route options.router)
    ~options:(scheduler_options options) timing circuit

let run_traced ?(options = default_options) timing circuit =
  Scheduler.run_traced_with ~route:(route options.router)
    ~options:(scheduler_options options) timing circuit
