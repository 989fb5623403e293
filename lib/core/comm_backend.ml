type outcome = {
  backend : string;
  result : Scheduler.result;
  trace : Trace.t;
  stats : (string * float) list;
}

type t = { run : Qec_surface.Timing.t -> Qec_circuit.Circuit.t -> outcome }

(* ---------------- per-backend options ---------------- *)

module Options = struct
  type value = Bool of bool | Int of int | Float of float | String of string

  type kind = TBool | TInt | TFloat | TEnum of string list

  type spec = { key : string; kind : kind; default : value; doc : string }

  type t = (string * value) list

  let kind_to_string = function
    | TBool -> "bool"
    | TInt -> "int"
    | TFloat -> "float"
    | TEnum cases -> String.concat "|" cases

  let value_to_string = function
    | Bool b -> string_of_bool b
    | Int i -> string_of_int i
    | Float f -> Qec_util.Floatfmt.repr f
    | String s -> s

  let check_value spec v =
    let mismatch () =
      Error
        (Printf.sprintf "option %S must be a %s (got %s)" spec.key
           (kind_to_string spec.kind) (value_to_string v))
    in
    match (spec.kind, v) with
    | TBool, Bool _ | TInt, Int _ | TFloat, Float _ -> Ok v
    | TFloat, Int i -> Ok (Float (float_of_int i))
    | TEnum cases, String s ->
      if List.mem s cases then Ok v
      else
        Error
          (Printf.sprintf "option %S: unknown value %S (expected %s)" spec.key
             s (String.concat "|" cases))
    | (TBool | TInt | TFloat | TEnum _), _ -> mismatch ()

  let defaults specs = List.map (fun s -> (s.key, s.default)) specs

  (* The declaration of [key], or the one "unknown option" error. *)
  let find specs key =
    match List.find_opt (fun s -> s.key = key) specs with
    | Some spec -> Ok spec
    | None ->
      Error
        (Printf.sprintf "unknown option %S (available: %s)" key
           (match specs with
           | [] -> "none"
           | _ -> String.concat ", " (List.map (fun s -> s.key) specs)))

  let apply specs base pairs =
    List.fold_left
      (fun acc (k, v) ->
        Result.bind acc (fun acc ->
            Result.bind (find specs k) (fun spec ->
              Result.map
                (fun v ->
                  List.map
                    (fun (k', v') -> if k' = k then (k', v) else (k', v'))
                    acc)
                (check_value spec v))))
      (Ok base) pairs

  let decode specs pairs = apply specs (defaults specs) pairs

  let parse_kv specs arg =
    match String.index_opt arg '=' with
    | None | Some 0 ->
      Error (Printf.sprintf "bad option %S (expected key=value)" arg)
    | Some i -> (
      let key = String.sub arg 0 i in
      let raw = String.sub arg (i + 1) (String.length arg - i - 1) in
      Result.bind (find specs key) @@ fun spec ->
        let bad () =
          Error
            (Printf.sprintf "option %S: %S is not a %s" key raw
               (kind_to_string spec.kind))
        in
        match spec.kind with
        | TBool -> (
          match bool_of_string_opt raw with
          | Some b -> Ok (key, Bool b)
          | None -> bad ())
        | TInt -> (
          match int_of_string_opt raw with
          | Some i -> Ok (key, Int i)
          | None -> bad ())
        | TFloat -> (
          match float_of_string_opt raw with
          | Some f -> Ok (key, Float f)
          | None -> bad ())
        | TEnum _ ->
          Result.map (fun v -> (key, v)) (check_value spec (String raw)))

  let to_flags specs =
    List.map
      (fun s ->
        ( Printf.sprintf "%s=<%s>" s.key (kind_to_string s.kind),
          Printf.sprintf "%s (default %s)" s.doc (value_to_string s.default)
        ))
      specs

  let get key t name =
    match List.assoc_opt name t with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Comm_backend.Options.get_%s: no option %S" key name)

  let get_bool t name =
    match get "bool" t name with
    | Bool b -> b
    | _ -> invalid_arg ("Comm_backend.Options.get_bool: " ^ name)

  let get_int t name =
    match get "int" t name with
    | Int i -> i
    | _ -> invalid_arg ("Comm_backend.Options.get_int: " ^ name)

  let get_float t name =
    match get "float" t name with
    | Float f -> f
    | Int i -> float_of_int i
    | _ -> invalid_arg ("Comm_backend.Options.get_float: " ^ name)

  let get_string t name =
    match get "string" t name with
    | String s -> s
    | _ -> invalid_arg ("Comm_backend.Options.get_string: " ^ name)
end

(* ---------------- registry ---------------- *)

type config = {
  initial : Initial_layout.method_;
  seed : int;
  placement : Qec_lattice.Placement.t option;
}

let default_config =
  {
    initial = Scheduler.default_options.Scheduler.initial;
    seed = Scheduler.default_options.Scheduler.seed;
    placement = None;
  }

type ctor = config -> Options.t -> t

type entry = {
  name : string;
  description : string;
  options : Options.spec list;
  ctor : ctor;
  validate : Options.t -> (unit, string) result;
}

(* Registration happens at module-init time on the main domain;
   [of_name]/[all] afterwards are read-only, so no lock is needed even
   when worker domains resolve backends concurrently. *)
let registry : entry list ref = ref []

let register ~name ~description ?(options = [])
    ?(validate = fun _ -> Ok ()) ctor =
  registry :=
    { name; description; options; ctor; validate }
    :: List.filter (fun e -> e.name <> name) !registry

let of_name name = List.find_opt (fun e -> e.name = name) !registry

let all () =
  List.sort (fun a b -> compare a.name b.name) !registry

let names () = List.map (fun e -> e.name) (all ())

let scheduler_options cfg =
  {
    Scheduler.default_options with
    initial = cfg.initial;
    seed = cfg.seed;
    placement_override = cfg.placement;
  }

let braid_options =
  let open Options in
  [
    {
      key = "variant";
      kind = TEnum [ "full"; "sp" ];
      default = String "full";
      doc =
        "scheduler variant: full = path finder + dynamic layout \
         optimization, sp = path finder only";
    };
    {
      key = "threshold_p";
      kind = TFloat;
      default = Float Scheduler.default_options.Scheduler.threshold_p;
      doc = "layout-optimizer trigger: scheduled ratio below which a SWAP \
             layer is spent, in [0, 1)";
    };
  ]

let () =
  register ~name:"braid"
    ~description:"double-defect braiding (AutoBraid round scheduler)"
    ~options:braid_options
    ~validate:(fun opts ->
      let p = Options.get_float opts "threshold_p" in
      if p >= 0. && p < 1. then Ok ()
      else Error (Printf.sprintf "threshold_p %g out of [0, 1)" p))
    (fun cfg opts ->
      let variant =
        match Options.get_string opts "variant" with
        | "sp" -> Scheduler.Sp
        | _ -> Scheduler.Full
      in
      let options =
        {
          (scheduler_options cfg) with
          variant;
          threshold_p = Options.get_float opts "threshold_p";
        }
      in
      {
        run =
          (fun timing circuit ->
            let result, trace = Scheduler.run_traced ~options timing circuit in
            { backend = "braid"; result; trace; stats = [] });
      })

let by_name name =
  match of_name name with
  | Some e -> e.ctor default_config (Options.defaults e.options)
  | None ->
    invalid_arg
      (Printf.sprintf "Comm_backend.by_name: unknown backend %S (registered: %s)"
         name
         (String.concat ", " (names ())))

let scheduled_gate_ids (trace : Trace.t) =
  List.concat_map
    (fun round ->
      match round with
      | Trace.Local { gates } -> gates
      | Trace.Braid { braids = ops; locals }
      | Trace.Merge { merges = ops; locals; _ } ->
        List.map (fun ((tk : Task.t), _) -> tk.Task.id) ops @ locals
      | Trace.Swap_layer _ -> [])
    trace.Trace.rounds
  |> List.sort_uniq compare
