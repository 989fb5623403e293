module Comm_backend = Autobraid.Comm_backend

let options_spec =
  let open Comm_backend.Options in
  [
    {
      key = "retry";
      kind = TBool;
      default = Bool Surgery_scheduler.default_options.Surgery_scheduler.retry;
      doc = "failed-first retry pass when ordering merges within a round";
    };
    {
      key = "ripup";
      kind = TBool;
      default = Bool Surgery_scheduler.default_options.Surgery_scheduler.ripup;
      doc = "rip up committed corridors to rescue blocked merges";
    };
    {
      key = "pipeline_splits";
      kind = TBool;
      default =
        Bool Surgery_scheduler.default_options.Surgery_scheduler.pipeline_splits;
      doc =
        "overlap the split phase with the next round's merges when it is \
         never worse";
    };
  ]

let register () =
  Comm_backend.register ~name:"surgery"
    ~description:"lattice surgery (merge-split CX over ancilla corridors)"
    ~options:options_spec
    (fun cfg opts ->
      let open Comm_backend.Options in
      let options =
        {
          Surgery_scheduler.initial = cfg.Comm_backend.initial;
          retry = get_bool opts "retry";
          ripup = get_bool opts "ripup";
          pipeline_splits = get_bool opts "pipeline_splits";
          seed = cfg.Comm_backend.seed;
          placement_override = cfg.Comm_backend.placement;
        }
      in
      {
        Comm_backend.run =
          (fun timing circuit ->
            let result, trace, stats =
              Surgery_scheduler.run_traced ~options timing circuit
            in
            {
              Comm_backend.backend = "surgery";
              result;
              trace;
              stats = Surgery_scheduler.stats_to_assoc stats;
            });
      })

(* Self-register when this module is linked; callers that resolve
   backends purely by name (and therefore never reference this module)
   must call [register] explicitly — see Qec_engine.Engine. *)
let () = register ()
