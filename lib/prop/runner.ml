module Rng = Qec_util.Rng
module C = Qec_circuit.Circuit

type counterexample = Circuit of C.t | Source of string

type failure = {
  property : string;
  seed : int;
  case : int;
  message : string;
  counterexample : counterexample;
  original_size : int;
  shrunk_size : int;
}

type report = {
  seed : int;
  count : int;
  cases : int;
  checks : int;
  properties : string list;
  failures : failure list;
}

(* Each case owns an RNG derived from (seed, case), so any failing case
   replays alone without re-running the cases before it. *)
let case_rng ~seed i = Rng.create ((seed * 1_000_003) + i)

let fails_circuit p c =
  match Property.check_circuit p c with Property.Fail _ -> true | Pass -> false

let fails_source p s =
  match Property.check_source p s with Property.Fail _ -> true | Pass -> false

let message_of = function Property.Pass -> "passed" | Property.Fail m -> m

let shrink_circuit ~minimize p c =
  let c' = if minimize then Shrink.minimize ~test:(fails_circuit p) c else c in
  (c', message_of (Property.check_circuit p c'))

let shrink_source ~minimize p s =
  let s' =
    if minimize then Shrink.minimize_text ~test:(fails_source p) s else s
  in
  (s', message_of (Property.check_source p s'))

let run ?(params = Gen.default) ?properties ?(minimize = true)
    ?(max_failures = 1) ?on_case ~seed ~count () =
  let properties =
    match properties with Some ps -> ps | None -> Property.all ()
  in
  let circuit_props, source_props =
    List.partition
      (fun p ->
        match p.Property.check with
        | Property.Circuit _ -> true
        | Property.Source _ -> false)
      properties
  in
  let checks = ref 0 in
  let failures = ref [] in
  let cases = ref 0 in
  let i = ref 0 in
  while !i < count && List.length !failures < max_failures do
    let case = !i in
    (match on_case with Some f -> f case | None -> ());
    incr cases;
    let rng = case_rng ~seed case in
    let c = Gen.circuit ~params rng in
    List.iter
      (fun p ->
        if List.length !failures < max_failures then begin
          incr checks;
          match Property.check_circuit p c with
          | Property.Pass -> ()
          | Property.Fail _ ->
            let shrunk, message = shrink_circuit ~minimize p c in
            failures :=
              {
                property = p.Property.name;
                seed;
                case;
                message;
                counterexample = Circuit shrunk;
                original_size = C.length c;
                shrunk_size = C.length shrunk;
              }
              :: !failures
        end)
      circuit_props;
    if source_props <> [] && List.length !failures < max_failures then begin
      let src = Gen.mutate rng (Qec_qasm.Printer.to_string c) in
      List.iter
        (fun p ->
          if List.length !failures < max_failures then begin
            incr checks;
            match Property.check_source p src with
            | Property.Pass -> ()
            | Property.Fail _ ->
              let shrunk, message = shrink_source ~minimize p src in
              failures :=
                {
                  property = p.Property.name;
                  seed;
                  case;
                  message;
                  counterexample = Source shrunk;
                  original_size = String.length src;
                  shrunk_size = String.length shrunk;
                }
                :: !failures
          end)
        source_props
    end;
    incr i
  done;
  {
    seed;
    count;
    cases = !cases;
    checks = !checks;
    properties = List.map (fun p -> p.Property.name) properties;
    failures = List.rev !failures;
  }

let counterexample_to_string = function
  | Circuit c -> Qec_qasm.Printer.to_string c
  | Source s -> s

(* ---------------- regression files ---------------- *)

let header_prefix = "// fuzz-"

let headers_of f =
  Printf.sprintf "// fuzz-prop: %s\n// fuzz-seed: %d\n// fuzz-case: %d\n"
    f.property f.seed f.case

let failure_to_file ~dir f =
  let slug =
    String.map (fun ch -> if ch = '/' then '-' else ch) f.property
  in
  let path =
    Filename.concat dir (Printf.sprintf "%s-s%d-c%d.qasm" slug f.seed f.case)
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (headers_of f);
      output_string oc (counterexample_to_string f.counterexample));
  path

(* Split the leading "// fuzz-*" comment block from the replayable body.
   The body is fed to the property verbatim, so even raw crash-fuzzer
   bytes survive the round trip unchanged. *)
let split_headers s =
  let len = String.length s in
  let rec go pos acc =
    if pos < len && len - pos >= String.length header_prefix
       && String.sub s pos (String.length header_prefix) = header_prefix
    then begin
      let stop =
        match String.index_from_opt s pos '\n' with
        | Some i -> i
        | None -> len - 1
      in
      go (stop + 1) (String.sub s pos (stop - pos + 1) :: acc)
    end
    else (List.rev acc, String.sub s pos (len - pos))
  in
  go 0 []

let header_value headers key =
  let prefix = Printf.sprintf "// fuzz-%s: " key in
  List.find_map
    (fun line ->
      if String.length line >= String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
    headers

let replay_string s =
  let headers, body = split_headers s in
  match header_value headers "prop" with
  | None -> Error "missing '// fuzz-prop:' header"
  | Some name -> (
    match Property.find name with
    | None -> Error (Printf.sprintf "unknown property %S" name)
    | Some p -> (
      match p.Property.check with
      | Property.Source _ -> Ok (name, Property.check_source p body)
      | Property.Circuit _ -> (
        match Qec_qasm.Frontend.of_string ~name:"<regression>" body with
        | c -> Ok (name, Property.check_circuit p c)
        | exception Qec_qasm.Lexer.Error { line; col; msg }
        | exception Qec_qasm.Parser.Error { line; col; msg } ->
          Error
            (Printf.sprintf "regression body does not parse: %d:%d: %s" line
               col msg))))

let replay_file path =
  replay_string (In_channel.with_open_bin path In_channel.input_all)
