module Comm_backend = Autobraid.Comm_backend

let options_spec =
  let open Comm_backend.Options in
  [
    {
      key = "window";
      kind = TInt;
      default = Int Lookahead_scheduler.default_options.Lookahead_scheduler.window;
      doc =
        "successor levels the round priority looks past the DAG front; 0 = \
         pure greedy";
    };
    {
      key = "slack_weight";
      kind = TFloat;
      default =
        Float
          Lookahead_scheduler.default_options.Lookahead_scheduler.slack_weight;
      doc = "weight of the critical-path term in the round score";
    };
  ]

let register () =
  Comm_backend.register ~name:"lookahead"
    ~description:
      "windowed critical-path lookahead over braiding (never worse than \
       greedy)"
    ~options:options_spec
    ~validate:(fun opts ->
      let open Comm_backend.Options in
      let window = get_int opts "window" in
      let slack_weight = get_float opts "slack_weight" in
      if window < 0 then
        Error (Printf.sprintf "window %d must be >= 0" window)
      else if slack_weight < 0. then
        Error
          (Printf.sprintf "slack_weight %s must be >= 0"
             (Qec_util.Floatfmt.repr slack_weight))
      else Ok ())
    (fun cfg opts ->
      let open Comm_backend.Options in
      let options =
        {
          Lookahead_scheduler.window = get_int opts "window";
          slack_weight = get_float opts "slack_weight";
          initial = cfg.Comm_backend.initial;
          seed = cfg.Comm_backend.seed;
          placement_override = cfg.Comm_backend.placement;
        }
      in
      {
        Comm_backend.run =
          (fun timing circuit ->
            let result, trace, stats =
              Lookahead_scheduler.run_traced ~options timing circuit
            in
            {
              Comm_backend.backend = "lookahead";
              result;
              trace;
              stats = Lookahead_scheduler.stats_to_assoc stats;
            });
      })

(* Self-register when linked and referenced; name-only resolvers call
   [register] explicitly — see Qec_engine.Engine. *)
let () = register ()
