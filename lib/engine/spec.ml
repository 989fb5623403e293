module Json = Qec_report.Json
module IL = Autobraid.Initial_layout
module CB = Autobraid.Comm_backend

type scheduler_kind = Full | Sp | Baseline

type outputs = { trace : bool; reliability : bool; certificate : bool }

type t = {
  id : string option;
  circuit : string;
  backend : string;
  scheduler : scheduler_kind;
  d : int;
  seed : int;
  threshold_p : float;
  initial : IL.method_;
  backend_options : (string * CB.Options.value) list;
  optimize : bool;
  best_p : bool;
  outputs : outputs;
}

let default =
  {
    id = None;
    circuit = "";
    backend = "braid";
    scheduler = Full;
    d = Qec_surface.Timing.default_d;
    seed = 11;
    threshold_p = 0.3;
    initial = IL.Annealed;
    backend_options = [];
    optimize = false;
    best_p = false;
    outputs = { trace = false; reliability = false; certificate = false };
  }

let initial_to_string = function
  | IL.Identity -> "identity"
  | IL.Bisected -> "bisect"
  | IL.Partitioned -> "metis"
  | IL.Annealed -> "anneal"

let initial_of_string = function
  | "identity" -> Ok IL.Identity
  | "bisect" -> Ok IL.Bisected
  | "metis" -> Ok IL.Partitioned
  | "anneal" -> Ok IL.Annealed
  | s ->
    Error
      (Printf.sprintf
         "unknown initial placement %S (expected identity|bisect|metis|anneal)"
         s)

let scheduler_to_string = function
  | Full -> "full"
  | Sp -> "sp"
  | Baseline -> "baseline"

let scheduler_of_string = function
  | "full" -> Ok Full
  | "sp" -> Ok Sp
  | "baseline" -> Ok Baseline
  | s ->
    Error
      (Printf.sprintf "unknown scheduler %S (expected full|sp|baseline)" s)

let validate t =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (t.circuit <> "") "spec has no circuit" in
  let* () = check (t.d >= 1) (Printf.sprintf "distance %d out of range" t.d) in
  let* () =
    check
      (t.threshold_p >= 0. && t.threshold_p < 1.)
      (Printf.sprintf "threshold_p %g out of [0, 1)" t.threshold_p)
  in
  let* () =
    check
      (t.scheduler = Baseline || CB.of_name t.backend <> None)
      (Printf.sprintf "unknown backend %S (registered: %s)" t.backend
         (String.concat ", " (CB.names ())))
  in
  let* () =
    check
      ((not (t.scheduler = Sp || t.scheduler = Baseline))
      || t.backend = "braid")
      (Printf.sprintf "scheduler %S only applies to the braid backend"
         (scheduler_to_string t.scheduler))
  in
  let* () =
    check
      ((not t.best_p) || (t.backend = "braid" && t.scheduler = Full))
      "best_p requires the braid backend with the full scheduler"
  in
  let* () =
    check
      ((not t.best_p) || t.backend_options = [])
      "best_p sweeps threshold_p itself; backend_options do not apply"
  in
  let* () =
    (* Strictly decode the explicit options against the owning backend's
       declared spec, then run its semantic validator. (The legacy
       scheduler/threshold_p fields are merged underneath at execution
       time; their ranges are checked above.) *)
    let codec =
      if t.scheduler = Baseline then
        Some (Gp_baseline.options_spec, fun _ -> Ok ())
      else
        Option.map
          (fun (e : CB.entry) -> (e.CB.options, e.CB.validate))
          (CB.of_name t.backend)
    in
    match codec with
    | None -> Ok () (* unreachable: the backend check above failed first *)
    | Some (specs, validate_opts) ->
      let* decoded =
        Result.map_error
          (fun e -> "backend_options: " ^ e)
          (CB.Options.decode specs t.backend_options)
      in
      Result.map_error (fun e -> "backend_options: " ^ e)
        (validate_opts decoded)
  in
  (* Certification replays a trace; the best_p sweep produces none. *)
  check
    ((not t.outputs.certificate) || not t.best_p)
    "certificate output requires a traced run (not best_p)"

let outputs_to_json o =
  Json.List
    ((if o.trace then [ Json.String "trace" ] else [])
    @ (if o.reliability then [ Json.String "reliability" ] else [])
    @ if o.certificate then [ Json.String "certificate" ] else [])

let json_of_value = function
  | CB.Options.Bool b -> Json.Bool b
  | CB.Options.Int i -> Json.Int i
  | CB.Options.Float f -> Json.Float f
  | CB.Options.String s -> Json.String s

let value_of_json = function
  | Json.Bool b -> Ok (CB.Options.Bool b)
  | Json.Int i -> Ok (CB.Options.Int i)
  | Json.Float f -> Ok (CB.Options.Float f)
  | Json.String s -> Ok (CB.Options.String s)
  | _ -> Error "must be a JSON scalar"

let to_json t =
  Json.Obj
    ((match t.id with Some id -> [ ("id", Json.String id) ] | None -> [])
    @ [
        ("circuit", Json.String t.circuit);
        ("backend", Json.String t.backend);
        ("scheduler", Json.String (scheduler_to_string t.scheduler));
        ("d", Json.Int t.d);
        ("seed", Json.Int t.seed);
        ("threshold_p", Json.Float t.threshold_p);
        ("initial", Json.String (initial_to_string t.initial));
      ]
    (* Omitted when empty, so pre-redesign specs re-encode byte-
       identically. *)
    @ (match t.backend_options with
      | [] -> []
      | opts ->
        [
          ( "backend_options",
            Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) opts) );
        ])
    @ [
        ("optimize", Json.Bool t.optimize);
        ("best_p", Json.Bool t.best_p);
        ("outputs", outputs_to_json t.outputs);
      ])

let of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
    let known =
      [
        "id"; "circuit"; "backend"; "scheduler"; "d"; "seed"; "threshold_p";
        "initial"; "backend_options"; "optimize"; "best_p"; "outputs";
      ]
    in
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
      | Some (k, _) -> Error (Printf.sprintf "unknown spec field %S" k)
      | None -> Ok ()
    in
    let field name = List.assoc_opt name fields in
    let str name dflt =
      match field name with
      | None -> Ok dflt
      | Some (Json.String s) -> Ok s
      | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
    in
    let int name dflt =
      match field name with
      | None -> Ok dflt
      | Some (Json.Int i) -> Ok i
      | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
    in
    let bool name dflt =
      match field name with
      | None -> Ok dflt
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
    in
    let* id =
      match field "id" with
      | None | Some Json.Null -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error "field \"id\" must be a string"
    in
    let* circuit =
      match field "circuit" with
      | Some (Json.String s) when s <> "" -> Ok s
      | Some _ -> Error "field \"circuit\" must be a non-empty string"
      | None -> Error "spec is missing the required \"circuit\" field"
    in
    let* backend = str "backend" default.backend in
    let* scheduler =
      let* s = str "scheduler" (scheduler_to_string default.scheduler) in
      scheduler_of_string s
    in
    let* d = int "d" default.d in
    let* seed = int "seed" default.seed in
    let* threshold_p =
      match field "threshold_p" with
      | None -> Ok default.threshold_p
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | Some _ -> Error "field \"threshold_p\" must be a number"
    in
    let* initial =
      let* s = str "initial" (initial_to_string default.initial) in
      initial_of_string s
    in
    let* backend_options =
      match field "backend_options" with
      | None -> Ok []
      | Some (Json.Obj pairs) ->
        Result.map List.rev
          (List.fold_left
             (fun acc (k, v) ->
               let* acc = acc in
               match value_of_json v with
               | Ok v -> Ok ((k, v) :: acc)
               | Error e ->
                 Error (Printf.sprintf "backend_options %S: %s" k e))
             (Ok []) pairs)
      | Some _ -> Error "field \"backend_options\" must be an object"
    in
    let* optimize = bool "optimize" default.optimize in
    let* best_p = bool "best_p" default.best_p in
    let* outputs =
      match field "outputs" with
      | None -> Ok default.outputs
      | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* o = acc in
            match item with
            | Json.String "trace" -> Ok { o with trace = true }
            | Json.String "reliability" -> Ok { o with reliability = true }
            | Json.String "certificate" -> Ok { o with certificate = true }
            | Json.String s -> Error (Printf.sprintf "unknown output %S" s)
            | _ -> Error "field \"outputs\" must be a list of strings")
          (Ok { trace = false; reliability = false; certificate = false })
          items
      | Some _ -> Error "field \"outputs\" must be a list of strings"
    in
    Ok
      {
        id;
        circuit;
        backend;
        scheduler;
        d;
        seed;
        threshold_p;
        initial;
        backend_options;
        optimize;
        best_p;
        outputs;
      }
  | _ -> Error "spec must be a JSON object"

let manifest_of_json json =
  let decode_jobs items =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match of_json item with
        | Ok spec -> go (i + 1) (spec :: acc) rest
        | Error msg -> Error (Printf.sprintf "job %d: %s" i msg))
    in
    go 0 [] items
  in
  match json with
  | Json.List items -> decode_jobs items
  | Json.Obj _ as obj -> (
    (match Json.member "version" obj with
    | None | Some (Json.Int 1) -> Ok ()
    | Some (Json.Int v) ->
      Error (Printf.sprintf "unsupported manifest version %d (expected 1)" v)
    | Some _ -> Error "manifest \"version\" must be an integer")
    |> fun version_ok ->
    Result.bind version_ok (fun () ->
        match Json.member "jobs" obj with
        | Some (Json.List items) -> decode_jobs items
        | Some _ -> Error "manifest \"jobs\" must be a list"
        | None -> Error "manifest object is missing the \"jobs\" list"))
  | _ -> Error "manifest must be a JSON array or object"

let manifest_of_string s =
  match Json.of_string s with
  | Error msg -> Error ("manifest is not valid JSON: " ^ msg)
  | Ok json -> manifest_of_json json

let equal (a : t) (b : t) = a = b
