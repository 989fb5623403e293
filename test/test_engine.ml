(* Tests for the batch compilation engine: Spec JSON round-trips, the
   placement cache, backend registry resolution, run_batch determinism
   across worker counts, and structured per-job error records. *)

module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine
module Engine_core = Qec_engine.Engine_core
module Cache = Qec_engine.Placement_cache
module Json = Qec_report.Json
module CB = Autobraid.Comm_backend
module IL = Autobraid.Initial_layout
module B = Qec_benchmarks

let () = Engine.ensure_backends ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_temp_dir f =
  let dir = Filename.temp_file "autobraid_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Json.of_string                                                       *)

let test_json_parse_scalars () =
  let ok s = Result.get_ok (Json.of_string s) in
  check_bool "null" true (ok "null" = Json.Null);
  check_bool "true" true (ok "true" = Json.Bool true);
  check_bool "int" true (ok "-42" = Json.Int (-42));
  check_bool "float" true (ok "2.5" = Json.Float 2.5);
  check_bool "exponent" true (ok "1e3" = Json.Float 1000.);
  check_bool "string" true (ok {|"hi"|} = Json.String "hi");
  check_bool "escapes" true (ok {|"a\n\"A"|} = Json.String "a\n\"A");
  check_bool "surrogate pair" true
    (ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80")

let test_json_parse_structures () =
  match Json.of_string {| {"a": [1, 2.0, "x"], "b": {"c": null}} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    check_bool "object" true
      (v
      = Json.Obj
          [
            ("a", Json.List [ Json.Int 1; Json.Float 2.; Json.String "x" ]);
            ("b", Json.Obj [ ("c", Json.Null) ]);
          ])

let test_json_parse_errors () =
  let err s =
    match Json.of_string s with Error e -> e | Ok _ -> Alcotest.fail s
  in
  check_bool "position" true (contains (err "{\n  bad") "line 2");
  check_bool "trailing" true (contains (err "1 2") "trailing");
  check_bool "unterminated" true (contains (err {|"abc|}) "unterminated");
  check_bool "bad escape" true (contains (err {|"\q"|}) "escape");
  check_bool "truncated" true (contains (err "[1,") "end of input")

let prop_json_roundtrip =
  let rec gen_json depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) small_signed_int;
          map (fun s -> Json.String s) string_printable;
        ]
    else
      oneof
        [
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) small_signed_int;
          map
            (fun l -> Json.List l)
            (list_size (int_bound 4) (gen_json (depth - 1)));
          map
            (fun kvs ->
              (* duplicate keys don't round-trip through an assoc list *)
              Json.Obj
                (List.sort_uniq
                   (fun (a, _) (b, _) -> compare a b)
                   kvs))
            (list_size (int_bound 4)
               (pair string_printable (gen_json (depth - 1))));
        ]
  in
  QCheck.Test.make ~name:"Json.of_string inverts to_string" ~count:200
    (QCheck.make (gen_json 3))
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Spec                                                                 *)

let gen_spec : Spec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* id = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  let* circuit = oneofl [ "qft9"; "bv12"; "fixtures/x.qasm" ] in
  let* backend = oneofl [ "braid"; "surgery" ] in
  let* scheduler = oneofl [ Spec.Full; Spec.Sp; Spec.Baseline ] in
  let* d = int_range 1 63 in
  let* seed = small_nat in
  let* threshold_p = float_bound_exclusive 1.0 in
  let* initial =
    oneofl [ IL.Identity; IL.Bisected; IL.Partitioned; IL.Annealed ]
  in
  let* backend_options =
    oneofl
      [
        [];
        [ ("variant", CB.Options.String "sp") ];
        [
          ("variant", CB.Options.String "full");
          ("threshold_p", CB.Options.Float 0.25);
        ];
        [ ("window", CB.Options.Int 6); ("flag", CB.Options.Bool true) ];
      ]
  in
  let* optimize = bool in
  let* best_p = bool in
  let* trace = bool in
  let* reliability = bool in
  let+ certificate = bool in
  {
    Spec.id;
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
    outputs = { Spec.trace; reliability; certificate };
  }

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"Spec JSON round-trip" ~count:300
    (QCheck.make gen_spec)
    (fun spec ->
      match Spec.of_json (Spec.to_json spec) with
      | Ok spec' -> Spec.equal spec spec'
      | Error _ -> false)

let prop_spec_roundtrip_via_text =
  QCheck.Test.make ~name:"Spec round-trips through rendered text" ~count:300
    (QCheck.make gen_spec)
    (fun spec ->
      match Json.of_string (Json.to_string (Spec.to_json spec)) with
      | Error _ -> false
      | Ok j -> (
        match Spec.of_json j with
        | Ok spec' -> Spec.equal spec spec'
        | Error _ -> false))

let test_spec_defaults_from_empty () =
  match Spec.of_json (Json.Obj [ ("circuit", Json.String "qft9") ]) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok s ->
    check_bool "everything else defaulted" true
      (Spec.equal s { Spec.default with circuit = "qft9" })

let test_spec_decode_errors () =
  let err j =
    match Spec.of_json j with Error e -> e | Ok _ -> Alcotest.fail "accepted"
  in
  check_bool "circuit required" true
    (contains (err (Json.Obj [])) "circuit");
  check_bool "unknown key" true
    (contains
       (err
          (Json.Obj
             [ ("circuit", Json.String "x"); ("frobnicate", Json.Null) ]))
       "frobnicate");
  check_bool "bad scheduler" true
    (contains
       (err
          (Json.Obj
             [
               ("circuit", Json.String "x");
               ("scheduler", Json.String "quantum");
             ]))
       "scheduler")

let test_spec_validate () =
  let ok s = Spec.validate s = Ok () in
  check_bool "default+circuit valid" true
    (ok { Spec.default with circuit = "qft9" });
  check_bool "empty circuit invalid" false (ok Spec.default);
  check_bool "d=0 invalid" false
    (ok { Spec.default with circuit = "x"; d = 0 });
  check_bool "threshold 1.0 invalid" false
    (ok { Spec.default with circuit = "x"; threshold_p = 1.0 });
  check_bool "unknown backend invalid" false
    (ok { Spec.default with circuit = "x"; backend = "nope" });
  check_bool "sp on surgery invalid" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend = "surgery";
         scheduler = Spec.Sp;
       });
  check_bool "best_p on surgery invalid" false
    (ok
       { Spec.default with circuit = "x"; backend = "surgery"; best_p = true });
  check_bool "valid backend option" true
    (ok
       {
         Spec.default with
         circuit = "x";
         backend_options = [ ("variant", CB.Options.String "sp") ];
       });
  check_bool "unknown option key invalid" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend_options = [ ("frobnicate", CB.Options.Bool true) ];
       });
  check_bool "option type mismatch invalid" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend_options = [ ("variant", CB.Options.Int 3) ];
       });
  check_bool "enum case checked" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend_options = [ ("variant", CB.Options.String "quantum") ];
       });
  check_bool "surgery owns its options" true
    (ok
       {
         Spec.default with
         circuit = "x";
         backend = "surgery";
         backend_options = [ ("ripup", CB.Options.Bool false) ];
       });
  check_bool "braid option rejected on surgery" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend = "surgery";
         backend_options = [ ("variant", CB.Options.String "sp") ];
       });
  check_bool "semantic validator runs" false
    (ok
       {
         Spec.default with
         circuit = "x";
         backend_options = [ ("threshold_p", CB.Options.Float 1.5) ];
       });
  check_bool "best_p excludes backend_options" false
    (ok
       {
         Spec.default with
         circuit = "x";
         best_p = true;
         backend_options = [ ("variant", CB.Options.String "full") ];
       });
  check_bool "baseline options decode via gp_baseline" true
    (ok
       {
         Spec.default with
         circuit = "x";
         scheduler = Spec.Baseline;
         backend_options = [ ("router", CB.Options.String "astar") ];
       });
  check_bool "best_p certificate rejected" false
    (ok
       {
         Spec.default with
         circuit = "x";
         best_p = true;
         outputs = { Spec.default.outputs with certificate = true };
       });
  check_bool "baseline rejects braid keys" false
    (ok
       {
         Spec.default with
         circuit = "x";
         scheduler = Spec.Baseline;
         backend_options = [ ("variant", CB.Options.String "sp") ];
       })

let test_manifest_forms () =
  let one = {|{"circuit": "qft9"}|} in
  let bare = Printf.sprintf "[%s, %s]" one one in
  let versioned = Printf.sprintf {|{"version": 1, "jobs": [%s]}|} one in
  check_int "bare array" 2
    (List.length (Result.get_ok (Spec.manifest_of_string bare)));
  check_int "versioned" 1
    (List.length (Result.get_ok (Spec.manifest_of_string versioned)));
  check_bool "bad version" true
    (Result.is_error (Spec.manifest_of_string {|{"version": 9, "jobs": []}|}));
  check_bool "error carries index" true
    (match Spec.manifest_of_string {|[{"circuit": "a"}, {}]|} with
    | Error e -> contains e "1"
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Comm_backend registry                                                *)

let test_registry () =
  check_bool "braid registered" true (CB.of_name "braid" <> None);
  check_bool "surgery registered" true (CB.of_name "surgery" <> None);
  check_bool "lookahead registered" true (CB.of_name "lookahead" <> None);
  check_bool "unknown" true (CB.of_name "warp" = None);
  let names = CB.names () in
  check_bool "all sorted" true (names = List.sort compare names);
  check_bool "names match entries" true
    (names = List.map (fun (e : CB.entry) -> e.CB.name) (CB.all ()));
  List.iter
    (fun b -> check_bool ("names list " ^ b) true (List.mem b names))
    [ "braid"; "surgery"; "lookahead" ]

(* register replaces by name: the latest registration wins, and the
   registry stays sorted and duplicate-free *)
let test_registry_replacement () =
  let dummy desc =
    CB.register ~name:"zz-test-dummy" ~description:desc (fun _ _ ->
        CB.by_name "braid")
  in
  dummy "first";
  dummy "second";
  (match CB.of_name "zz-test-dummy" with
  | None -> Alcotest.fail "dummy not registered"
  | Some e -> check_string "latest registration wins" "second" e.CB.description);
  let names = CB.names () in
  check_int "no duplicate entry" 1
    (List.length (List.filter (( = ) "zz-test-dummy") names));
  check_bool "still sorted" true (names = List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Options codec                                                        *)

let braid_specs =
  match CB.of_name "braid" with
  | Some e -> e.CB.options
  | None -> Alcotest.fail "braid not registered"

let test_options_codec () =
  let open CB.Options in
  (* defaults: every declared key, declaration order *)
  let d = defaults braid_specs in
  check_bool "defaults complete" true
    (List.map fst d = List.map (fun s -> s.key) braid_specs);
  check_string "variant default" "full" (get_string d "variant");
  (* strict decode: overrides land, unknown keys and mismatches error *)
  (match decode braid_specs [ ("variant", String "sp") ] with
  | Ok o ->
    check_string "override lands" "sp" (get_string o "variant");
    check_bool "untouched key keeps default" true
      (get_float o "threshold_p" = get_float d "threshold_p")
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match decode braid_specs [ ("frobnicate", Bool true) ] with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error e -> check_bool "unknown key named" true (contains e "frobnicate"));
  (match decode braid_specs [ ("variant", Int 3) ] with
  | Ok _ -> Alcotest.fail "type mismatch accepted"
  | Error e -> check_bool "mismatch names key" true (contains e "variant"));
  (* TFloat widens ints *)
  (match decode braid_specs [ ("threshold_p", Int 0) ] with
  | Ok o -> check_bool "int widened to float" true (get_float o "threshold_p" = 0.)
  | Error e -> Alcotest.failf "widening failed: %s" e);
  (* later duplicates win *)
  (match
     decode braid_specs [ ("variant", String "sp"); ("variant", String "full") ]
   with
  | Ok o -> check_string "later duplicate wins" "full" (get_string o "variant")
  | Error e -> Alcotest.failf "duplicate decode failed: %s" e)

let test_options_parse_kv () =
  let open CB.Options in
  (match parse_kv braid_specs "variant=sp" with
  | Ok kv -> check_bool "enum parses" true (kv = ("variant", String "sp"))
  | Error e -> Alcotest.failf "parse_kv failed: %s" e);
  (match parse_kv braid_specs "threshold_p=0.4" with
  | Ok kv -> check_bool "float parses" true (kv = ("threshold_p", Float 0.4))
  | Error e -> Alcotest.failf "parse_kv failed: %s" e);
  check_bool "missing '=' rejected" true
    (Result.is_error (parse_kv braid_specs "variant"));
  check_bool "unknown key rejected" true
    (Result.is_error (parse_kv braid_specs "nope=1"));
  check_bool "bad enum case rejected" true
    (Result.is_error (parse_kv braid_specs "variant=quantum"))

(* The legacy scheduler/threshold_p spec fields are merged beneath
   backend_options: a pre-redesign spec and its options-API spelling
   produce the same schedule, and an explicit option overrides the
   legacy field. *)
let test_legacy_shim_equivalence () =
  let cycles s =
    match Engine.run_spec s with
    | Ok p -> p.Engine_core.result.Autobraid.Scheduler.total_cycles
    | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine_core.message
  in
  let base = { Spec.default with circuit = "qaoa12" } in
  let legacy_sp = cycles { base with scheduler = Spec.Sp } in
  let option_sp =
    cycles
      { base with backend_options = [ ("variant", CB.Options.String "sp") ] }
  in
  check_int "legacy sp = option sp" legacy_sp option_sp;
  (* explicit option wins over the legacy field *)
  let full = cycles base in
  let overridden =
    cycles
      {
        base with
        scheduler = Spec.Sp;
        backend_options = [ ("variant", CB.Options.String "full") ];
      }
  in
  check_int "explicit option overrides legacy field" full overridden

(* Spec.resolve_options is the one place that picks a spec's option
   schema and merges the legacy fields underneath: the legacy
   scheduler/threshold_p spelling becomes braid's options, explicit
   backend_options override it, and a baseline spec decodes against the
   baseline's schema, where braid keys are unknown. *)
let test_resolve_options () =
  let resolve s =
    match Spec.resolve_options s with
    | Ok opts -> opts
    | Error e -> Alcotest.failf "resolve_options failed: %s" e
  in
  let check_float = Alcotest.(check (float 0.)) in
  let base = { Spec.default with circuit = "x" } in
  let legacy = resolve { base with scheduler = Spec.Sp; threshold_p = 0.5 } in
  check_string "legacy scheduler -> variant" "sp"
    (CB.Options.get_string legacy "variant");
  check_float "legacy threshold_p" 0.5 (CB.Options.get_float legacy "threshold_p");
  let explicit =
    resolve
      {
        base with
        scheduler = Spec.Sp;
        threshold_p = 0.5;
        backend_options =
          [
            ("variant", CB.Options.String "full");
            ("threshold_p", CB.Options.Float 0.2);
          ];
      }
  in
  check_string "explicit variant wins" "full"
    (CB.Options.get_string explicit "variant");
  check_float "explicit threshold_p wins" 0.2
    (CB.Options.get_float explicit "threshold_p");
  let baseline = { base with scheduler = Spec.Baseline } in
  check_string "baseline schema defaults" "dimension"
    (CB.Options.get_string (resolve baseline) "router");
  check_bool "baseline schema is the baseline's" true
    (List.map (fun (o : CB.Options.spec) -> o.key) (Spec.options_schema baseline)
    = [ "router" ]);
  (match
     Spec.resolve_options
       {
         baseline with
         backend_options = [ ("variant", CB.Options.String "sp") ];
       }
   with
  | Ok _ -> Alcotest.fail "baseline accepted a braid-only key"
  | Error e -> check_bool "names the key" true (contains e "variant"));
  check_bool "surgery gets no legacy keys" true
    (Result.is_ok (Spec.resolve_options { base with backend = "surgery" }));
  check_bool "unknown backend rejected" true
    (Result.is_error (Spec.resolve_options { base with backend = "nope" }))

(* Pre-redesign manifests decode unchanged: no job in the committed
   fixture acquires backend_options, and re-encoding emits no
   backend_options key. *)
let test_fixture_manifest_compat () =
  let path =
    List.find Sys.file_exists
      [ "../fixtures/batch_manifest.json"; "fixtures/batch_manifest.json" ]
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Spec.manifest_of_string text with
  | Error e -> Alcotest.failf "fixture manifest failed to decode: %s" e
  | Ok specs ->
    check_int "all jobs decode" 6 (List.length specs);
    List.iter
      (fun s ->
        check_bool "no backend_options acquired" true
          (s.Spec.backend_options = []);
        check_bool "re-encoding omits backend_options" false
          (contains (Json.to_string (Spec.to_json s)) "backend_options"))
      specs

(* ------------------------------------------------------------------ *)
(* Placement cache                                                      *)

let cells = Qec_lattice.Placement.to_array

(* The placement an uncached braid run of [circuit] makes: its trace's
   lattice side and initial cells. *)
let uncached_run ?(seed = 7) circuit =
  let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
  let _, trace =
    Autobraid.Scheduler.run_traced
      ~options:{ Autobraid.Scheduler.default_options with seed }
      timing circuit
  in
  (Qec_lattice.Grid.side trace.Autobraid.Trace.grid, trace.initial_cells)

let cache_key ?(seed = 7) circuit =
  Cache.key ~circuit ~method_:IL.Annealed ~seed

(* What the engine does: look the request up; on a miss, run uncached and
   store the placement the run made. The placement's cells and the
   verdict. *)
let cached ?(seed = 7) cache circuit =
  let key = cache_key ~seed circuit in
  match
    Cache.find cache key ~num_qubits:(Qec_circuit.Circuit.num_qubits circuit)
  with
  | verdict, Some p -> (cells p, verdict)
  | verdict, None ->
    let side, initial = uncached_run ~seed circuit in
    Cache.store cache key ~side ~cells:initial;
    (initial, verdict)

let create ?dir () =
  match Cache.create ?dir () with
  | Ok cache -> cache
  | Error msg -> Alcotest.fail msg

let entry_path dir key = Filename.concat dir (key ^ ".placement")

let test_cache_key_sensitivity () =
  let c = B.Registry.build "qft9" in
  let k ?(method_ = IL.Annealed) ?(seed = 11) circuit =
    Cache.key ~circuit ~method_ ~seed
  in
  check_string "deterministic" (k c) (k c);
  check_bool "seed changes key" true (k c <> k ~seed:12 c);
  check_bool "method changes key" true (k c <> k ~method_:IL.Identity c);
  check_bool "circuit changes key" true (k c <> k (B.Registry.build "bv12"));
  (* angles are excluded: rz(θ) streams identically for any θ *)
  let rz ?(num_qubits = 1) theta =
    Qec_circuit.Circuit.create ~num_qubits [ Qec_circuit.Gate.Rz (0, theta) ]
  in
  check_string "angle-blind" (k (rz 0.1)) (k (rz 0.9));
  check_bool "qubit count changes key" true
    (k (rz 0.1) <> k (rz ~num_qubits:2 0.1))

(* The key's digests, pinned per placement method on one fixed circuit:
   a warm --cache-dir written by an earlier build must keep hitting. *)
let test_cache_key_digests () =
  let c = B.Registry.build "qft9" in
  List.iter
    (fun (method_, digest) ->
      check_string (Spec.initial_to_string method_) digest
        (Cache.key ~circuit:c ~method_ ~seed:11))
    [
      (IL.Identity, "7997d54ff1385bb46ff1455c3179166a");
      (IL.Bisected, "1c3c3ebf07ec9191a0255b9899ba3592");
      (IL.Partitioned, "9b3d046e33532b3a28d4cb80d39355cb");
      (IL.Annealed, "805c67cb176e195a2e41275198d665b0");
    ]

let test_cache_lookup_and_store () =
  let c = B.Registry.build "qft9" in
  let key = cache_key c in
  let cache = create () in
  let find () = Cache.find cache key ~num_qubits:9 in
  (match find () with
  | Cache.Miss, None -> ()
  | _ -> Alcotest.fail "an empty cache must miss");
  let side, initial = uncached_run c in
  Cache.store cache key ~side ~cells:initial;
  let hit () =
    match find () with
    | Cache.Memory_hit, Some p -> p
    | _ -> Alcotest.fail "a stored key must hit memory"
  in
  let p1 = hit () in
  let p2 = hit () in
  let k = Cache.counters cache in
  check_int "one miss" 1 k.Cache.misses;
  check_int "two memory hits" 2 k.Cache.memory_hits;
  check_bool "fresh placement objects" true (p1 != p2);
  (* the cached value matches an uncached computation *)
  Alcotest.(check (array int)) "matches the uncached run" initial (cells p1);
  check_int "on the run's lattice" side
    (Qec_lattice.Grid.side (Qec_lattice.Placement.grid p1))

let test_cache_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let cold = create ~dir () in
  let p_cold, verdict = cached cold c in
  check_bool "cold verdict" true (verdict = Cache.Miss);
  check_int "cold miss" 1 (Cache.counters cold).Cache.misses;
  check_bool "entry on disk" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".placement")
       (Sys.readdir dir));
  (* a fresh cache over the same directory replays from disk *)
  let warm = create ~dir () in
  let p_warm, verdict = cached warm c in
  check_bool "warm verdict" true (verdict = Cache.Disk_hit);
  let k = Cache.counters warm in
  check_int "warm disk hit" 1 k.Cache.disk_hits;
  check_int "warm no misses" 0 k.Cache.misses;
  Alcotest.(check (array int)) "disk placement identical" p_cold p_warm

let test_cache_corrupt_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  Out_channel.with_open_bin (entry_path dir (cache_key c)) (fun oc ->
      output_string oc "not a cache entry\n");
  let cache = create ~dir () in
  let _ = cached cache c in
  let k = Cache.counters cache in
  check_int "corrupt = miss" 1 k.Cache.misses;
  check_int "no disk hit" 0 k.Cache.disk_hits

(* Overwrite the entry at [path] with [bytes]; then a fresh cache over
   [dir] must miss and the rerun must place exactly as [reference]. *)
let check_rewritten_is_miss ~dir ~path ~reference c what bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  let cache = create ~dir () in
  let p, verdict = cached cache c in
  let k = Cache.counters cache in
  check_bool (what ^ " is a miss") true (verdict = Cache.Miss);
  check_int (what ^ " counts one miss") 1 k.Cache.misses;
  check_int (what ^ " no disk hit") 0 k.Cache.disk_hits;
  Alcotest.(check (array int)) (what ^ " recomputes identically") reference p

(* Every single-bit corruption of a valid on-disk entry must behave as a
   miss — the md5 trailer rejects it — and the recomputed placement must
   be byte-identical to an uncorrupted run. A flipped digit that still
   parses must never be silently replayed. *)
let test_cache_bit_flip_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let reference, _ = cached (create ~dir ()) c in
  let path = entry_path dir (cache_key c) in
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  (* flip one bit in a spread of byte positions across the entry *)
  List.iter
    (fun i ->
      let b = Bytes.of_string pristine in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      check_rewritten_is_miss ~dir ~path ~reference c
        (Printf.sprintf "bit flip at %d" i)
        (Bytes.to_string b))
    (List.filter
       (fun i -> i < String.length pristine)
       [ 0; 7; String.length pristine / 2; String.length pristine - 2 ])

let test_cache_truncated_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let reference, _ = cached (create ~dir ()) c in
  let path = entry_path dir (cache_key c) in
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun keep ->
      check_rewritten_is_miss ~dir ~path ~reference c
        (Printf.sprintf "truncation to %d" keep)
        (String.sub pristine 0 keep))
    (* len-2 cuts into the md5 hex; bare trailing-newline loss alone
       still verifies, which is fine — the digest is intact *)
    [ 0; 1; String.length pristine / 3; String.length pristine - 2 ]

(* A torn write — two unlocked writers interleaving, leaving one entry's
   prefix spliced onto another's suffix — must read back as a miss, not a
   silently replayed wrong placement. The advisory lock makes this
   unreachable between locked processes; the md5 trailer is the backstop
   for everything else (NFS, kill -9 mid-rename, foreign writers). *)
let test_cache_torn_write_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let reference, _ = cached (create ~dir ()) c in
  let _other = cached ~seed:8 (create ~dir ()) c in
  let read seed =
    In_channel.with_open_bin
      (entry_path dir (cache_key ~seed c))
      In_channel.input_all
  in
  let e7 = read 7 and e8 = read 8 in
  let cut = String.length e7 / 2 in
  let torn = String.sub e7 0 cut ^ String.sub e8 cut (String.length e8 - cut) in
  check_bool "splice really differs" true (torn <> e7 && torn <> e8);
  check_rewritten_is_miss ~dir
    ~path:(entry_path dir (cache_key c))
    ~reference c "torn write" torn

(* An entry written by the previous format (it keyed the lowered circuit
   and the side) must never replay, even with an intact digest. *)
let test_cache_v2_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let reference, _ = cached (create ~dir ()) c in
  let path = entry_path dir (cache_key c) in
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  let header, payload =
    match String.index_opt pristine '\n' with
    | Some i ->
      (String.sub pristine 0 i, String.sub pristine i (String.length pristine - i))
    | None -> Alcotest.fail "entry has no header line"
  in
  check_string "current format" "autobraid-placement-cache v3" header;
  check_rewritten_is_miss ~dir ~path ~reference c "v2 entry"
    ("autobraid-placement-cache v2" ^ payload)

(* A digest-valid entry whose side is not the lattice side of its qubit
   count reads as a miss. *)
let test_cache_wrong_side_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let key = cache_key c in
  let side, initial = uncached_run c in
  Cache.store (create ~dir ()) key ~side:(side + 1) ~cells:initial;
  match Cache.find (create ~dir ()) key ~num_qubits:12 with
  | Cache.Miss, None -> ()
  | _ -> Alcotest.fail "an entry on the wrong side must miss"

(* Several cache instances hammering the same directory concurrently
   (the serve daemon next to a batch run) must leave only valid entries
   behind: a fresh cache replays every key from disk, byte-identical to
   the sequential reference. *)
let test_cache_concurrent_writers () =
  with_temp_dir @@ fun dir ->
  let c = B.Registry.build "bv12" in
  let seeds = [ 3; 4; 5 ] in
  let reference =
    let cache = create () in
    List.map (fun seed -> fst (cached ~seed cache c)) seeds
  in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let cache = create ~dir () in
            List.iter (fun seed -> ignore (cached ~seed cache c)) seeds))
  in
  List.iter Domain.join writers;
  let warm = create ~dir () in
  let replayed = List.map (fun seed -> fst (cached ~seed warm c)) seeds in
  let k = Cache.counters warm in
  check_int "all keys replay from disk" (List.length seeds) k.Cache.disk_hits;
  check_int "no recomputation" 0 k.Cache.misses;
  List.iteri
    (fun i (r, p) ->
      Alcotest.(check (array int))
        (Printf.sprintf "concurrent entry %d identical" i)
        r p)
    (List.combine reference replayed)

(* An unusable directory is an error naming it, never an exception. *)
let test_cache_unusable_dir () =
  let file = Filename.temp_file "autobraid_cache" ".file" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun dir ->
          match Cache.create ~dir () with
          | Ok _ -> Alcotest.failf "%s accepted as a cache directory" dir
          | Error msg ->
            check_bool ("error names " ^ dir) true (contains msg dir))
        [ file; Filename.concat file "cache" ])

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)

let spec ?(backend = "braid") ?(scheduler = Spec.Full) circuit =
  { Spec.default with circuit; backend; scheduler }

let test_run_spec_ok () =
  match Engine.run_spec (spec "qft9") with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine_core.message
  | Ok p ->
    check_string "backend" "braid" p.Engine_core.backend;
    check_bool "cycles > 0" true
      (p.Engine_core.result.Autobraid.Scheduler.total_cycles > 0);
    check_bool "trace present" true (p.Engine_core.trace <> None)

let test_run_spec_matches_direct_scheduler () =
  (* the Spec path is a repackaging of Scheduler.run, not a reimplementation *)
  let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
  let direct = Autobraid.Scheduler.run timing (B.Registry.build "qft9") in
  match Engine.run_spec (spec "qft9") with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine_core.message
  | Ok p ->
    check_int "same cycles" direct.Autobraid.Scheduler.total_cycles
      p.Engine_core.result.Autobraid.Scheduler.total_cycles;
    check_int "same rounds" direct.Autobraid.Scheduler.rounds
      p.Engine_core.result.Autobraid.Scheduler.rounds

let test_run_spec_baseline_certified () =
  let s =
    {
      (spec ~scheduler:Spec.Baseline "qft16") with
      outputs = { Spec.default.outputs with certificate = true };
    }
  in
  check_bool "validates" true (Spec.validate s = Ok ());
  match Engine.run_spec s with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine_core.message
  | Ok p -> (
    check_string "backend" "gp-baseline" p.Engine_core.backend;
    check_bool "trace recorded" true (p.Engine_core.trace <> None);
    let untraced =
      Gp_baseline.run (Qec_surface.Timing.make ~d:s.Spec.d ())
        (B.Registry.build "qft16")
    in
    check_int "same cycles as untraced"
      untraced.Autobraid.Scheduler.total_cycles
      p.Engine_core.result.Autobraid.Scheduler.total_cycles;
    match p.Engine_core.certificate with
    | Some cert ->
      check_bool (Qec_verify.Certifier.to_summary cert) true
        (Qec_verify.Certifier.ok cert)
    | None -> Alcotest.fail "no certificate")

let test_run_spec_errors () =
  let kind s =
    match Engine.run_spec s with
    | Error e -> e.Engine_core.kind
    | Ok _ -> "ok"
  in
  check_string "missing circuit" "circuit-not-found" (kind (spec "no_such"));
  check_string "invalid spec" "invalid-spec"
    (kind { (spec "qft9") with Spec.d = 0 });
  check_string "invalid backend caught in validate" "invalid-spec"
    (kind (spec ~backend:"warp" "qft9"))

(* A lexer error inside a QASM file reaches [load_circuit] as a
   [Parser.Error] and must keep kind [parse] and the file:line:col of the
   offending character. *)
let test_lexer_error_is_parse_error () =
  with_temp_dir @@ fun dir ->
  let file = Filename.concat dir "stray.qasm" in
  let oc = open_out file in
  output_string oc
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n\
     cx q[0], @q[1];\n";
  close_out oc;
  match Engine.run_spec (spec file) with
  | Ok _ -> Alcotest.fail "stray @ compiled"
  | Error e ->
    check_string "kind" "parse" e.Engine_core.kind;
    check_string "message" (file ^ ":5:10: unexpected character '@'")
      e.Engine_core.message

let batch_specs =
  [
    spec "qft9";
    spec ~backend:"surgery" "bv12";
    spec "no_such_circuit";
    spec ~scheduler:Spec.Baseline "bv12";
    spec "qft9" (* duplicate: exercises the cache under contention *);
  ]

let test_run_batch_order_and_errors () =
  let jobs = Engine.run_batch ~jobs:3 batch_specs in
  check_int "all jobs" (List.length batch_specs) (List.length jobs);
  List.iteri
    (fun i j -> check_int "input order" i j.Engine_core.index)
    jobs;
  match Engine_core.errors jobs with
  | [ (2, e) ] ->
    check_string "kind" "circuit-not-found" e.Engine_core.kind;
    check_bool "message" true (contains e.Engine_core.message "no_such_circuit")
  | other -> Alcotest.failf "expected exactly one error, got %d" (List.length other)

let test_run_batch_jsonl_deterministic_across_jobs () =
  let render jobs_n =
    let cache = create () in
    Engine_core.jobs_to_jsonl (Engine.run_batch ~jobs:jobs_n ~cache batch_specs)
  in
  let one = render 1 in
  check_string "jobs 1 = jobs 4" one (render 4);
  check_string "repeat run identical" one (render 4);
  check_int "five lines" (List.length batch_specs)
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' one)))

(* Each job's cache verdict is its own lookup's: with two workers
   missing and hitting side by side, the statuses add up to the cache's
   counters exactly. *)
let test_run_batch_cache_verdicts () =
  let specs =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun circuit ->
            let s = { (spec circuit) with Spec.seed } in
            [ s; s ])
          [ "ghz3"; "bv12"; "qft9" ])
      [ 1; 2; 3; 4 ]
  in
  let cache = create () in
  let jobs = Engine.run_batch ~jobs:2 ~cache specs in
  let labelled status =
    List.length (List.filter (fun j -> j.Engine_core.cache = status) jobs)
  in
  let k = Cache.counters cache in
  check_int "misses" k.Cache.misses (labelled Engine_core.Miss);
  check_int "memory hits" k.Cache.memory_hits (labelled Engine_core.Memory_hit);
  check_int "disk hits" k.Cache.disk_hits (labelled Engine_core.Disk_hit);
  check_int "every job looked up" (List.length specs)
    (k.Cache.misses + k.Cache.memory_hits + k.Cache.disk_hits)

let test_run_batch_cache_determinism () =
  with_temp_dir @@ fun dir ->
  (* cold (computes + writes disk), warm-memory, warm-disk: all three must
     schedule identically, trace included *)
  let specs =
    [ spec "qft9"; spec ~backend:"surgery" "qft9"; spec ~backend:"lookahead" "qft9" ]
  in
  let cold_cache = create ~dir () in
  let cold = Engine.run_batch ~jobs:2 ~cache:cold_cache specs in
  (* the backends share one placement per (circuit, method, seed), so
     jobs after the first may already hit it *)
  check_bool "cold run stored a placement" true
    ((Cache.counters cold_cache).Cache.misses > 0);
  let warm = Engine.run_batch ~jobs:2 ~cache:cold_cache specs in
  let disk = Engine.run_batch ~jobs:2 ~cache:(create ~dir ()) specs in
  let uncached = Engine.run_batch ~jobs:2 specs in
  check_bool "warm run hit memory" true
    ((Cache.counters cold_cache).Cache.memory_hits > 0);
  check_bool "disk run hit disk" true
    (List.exists (fun j -> j.Engine_core.cache = Engine_core.Disk_hit) disk);
  List.iter
    (fun other ->
      check_string "identical records" (Engine_core.jobs_to_jsonl cold)
        (Engine_core.jobs_to_jsonl other))
    [ warm; disk; uncached ];
  (* traces too, not just the summary rows *)
  List.iter2
    (fun a b ->
      match (a.Engine_core.outcome, b.Engine_core.outcome) with
      | Ok pa, Ok pb ->
        check_bool "same trace" true (pa.Engine_core.trace = pb.Engine_core.trace)
      | _ -> Alcotest.fail "job failed")
    cold disk

(* A manifest that repeats a few (circuit, seed) pairs across backends,
   the shape batch sweeps have. Braid and surgery share a key, so a cold
   pass places each of the 5 distinct pairs once; a warm pass and a fresh
   cache over the same directory place nothing, and all three render the
   same bytes. *)
let test_run_batch_repeated_keys () =
  with_temp_dir @@ fun dir ->
  let job ?(backend = "braid") ?(seed = 11) circuit =
    { Spec.default with circuit; backend; seed }
  in
  let specs =
    [
      job "qft20";
      job "qft20" ~backend:"surgery";
      job "qft20" ~seed:12;
      job "lr24";
      job "lr24" ~backend:"surgery";
      job "qaoa12";
      job "qaoa12";
      job "qft16";
      job "qft16" ~backend:"surgery";
      job "qft20";
    ]
  in
  let pass cache =
    let before = Cache.counters cache in
    let jobs = Engine.run_batch ~jobs:1 ~cache specs in
    let after = Cache.counters cache in
    (Engine_core.jobs_to_jsonl jobs, after.Cache.misses - before.Cache.misses)
  in
  let cache = create ~dir () in
  let cold, cold_misses = pass cache in
  let warm, warm_misses = pass cache in
  let disk_cache = create ~dir () in
  let disk, disk_misses = pass disk_cache in
  check_int "cold pass places each distinct pair once" 5 cold_misses;
  check_int "warm pass places nothing" 0 warm_misses;
  check_int "fresh cache replays from disk" 0 disk_misses;
  check_int "disk hits, one per distinct pair" 5
    (Cache.counters disk_cache).Cache.disk_hits;
  check_bool "no job failed" false (contains cold {|"status":"error"|});
  check_string "warm bytes" cold warm;
  check_string "disk bytes" cold disk

(* A threshold sweep records no trace, so it has nothing to store: its
   job bypasses the cache and renders the same record. *)
let test_best_p_bypasses_cache () =
  let specs = [ { (spec "qft9") with Spec.best_p = true } ] in
  let cache = create () in
  let cached = Engine.run_batch ~jobs:1 ~cache specs in
  List.iter
    (fun j -> check_bool "uncached" true (j.Engine_core.cache = Engine_core.Uncached))
    cached;
  let k = Cache.counters cache in
  check_int "no lookups" 0 (k.Cache.misses + k.Cache.memory_hits + k.Cache.disk_hits);
  check_string "same record bytes"
    (Engine_core.jobs_to_jsonl (Engine.run_batch ~jobs:1 specs))
    (Engine_core.jobs_to_jsonl cached)

let test_job_json_shape () =
  let jobs =
    Engine.run_batch ~jobs:1
      [ { (spec "qft9") with Spec.id = Some "job-a" }; spec "no_such" ]
  in
  let lines =
    String.split_on_char '\n' (String.trim (Engine_core.jobs_to_jsonl jobs))
  in
  check_int "two lines" 2 (List.length lines);
  let ok_line = List.nth lines 0 and err_line = List.nth lines 1 in
  check_bool "id echoed" true (contains ok_line {|"id":"job-a"|});
  check_bool "status ok" true (contains ok_line {|"status":"ok"|});
  check_bool "compile time zeroed" true
    (contains ok_line {|"compile_time_s":0.0|});
  check_bool "no timings by default" false (contains ok_line {|"elapsed_s"|});
  check_bool "status error" true (contains err_line {|"status":"error"|});
  check_bool "error kind" true
    (contains err_line {|"kind":"circuit-not-found"|});
  (* each line parses back *)
  List.iter
    (fun l -> check_bool "line parses" true (Result.is_ok (Json.of_string l)))
    lines;
  (* with timings, the cache status appears *)
  let timed = Engine_core.jobs_to_jsonl ~timings:true jobs in
  check_bool "timings add elapsed" true (contains timed {|"elapsed_s"|});
  check_bool "timings add cache" true (contains timed {|"cache":"uncached"|})

let () =
  Alcotest.run "qec_engine"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "structures" `Quick test_json_parse_structures;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip_via_text;
          Alcotest.test_case "defaults" `Quick test_spec_defaults_from_empty;
          Alcotest.test_case "decode errors" `Quick test_spec_decode_errors;
          Alcotest.test_case "validate" `Quick test_spec_validate;
          Alcotest.test_case "manifest forms" `Quick test_manifest_forms;
        ] );
      ( "registry",
        [
          Alcotest.test_case "of_name/all" `Quick test_registry;
          Alcotest.test_case "replacement" `Quick test_registry_replacement;
          Alcotest.test_case "options codec" `Quick test_options_codec;
          Alcotest.test_case "options parse_kv" `Quick test_options_parse_kv;
          Alcotest.test_case "legacy shim" `Quick test_legacy_shim_equivalence;
          Alcotest.test_case "fixture manifest compat" `Quick
            test_fixture_manifest_compat;
          Alcotest.test_case "resolve_options" `Quick test_resolve_options;
        ] );
      ( "placement_cache",
        [
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "key digests" `Quick test_cache_key_digests;
          Alcotest.test_case "lookup and store" `Quick
            test_cache_lookup_and_store;
          Alcotest.test_case "disk round-trip" `Quick test_cache_disk_roundtrip;
          Alcotest.test_case "corrupt entry" `Quick test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "bit-flipped entry" `Quick
            test_cache_bit_flip_is_miss;
          Alcotest.test_case "truncated entry" `Quick
            test_cache_truncated_entry_is_miss;
          Alcotest.test_case "torn write" `Quick test_cache_torn_write_is_miss;
          Alcotest.test_case "v2 entry" `Quick test_cache_v2_entry_is_miss;
          Alcotest.test_case "wrong side" `Quick test_cache_wrong_side_is_miss;
          Alcotest.test_case "unusable dir" `Quick test_cache_unusable_dir;
          Alcotest.test_case "concurrent writers" `Quick
            test_cache_concurrent_writers;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_spec ok" `Quick test_run_spec_ok;
          Alcotest.test_case "matches scheduler" `Quick
            test_run_spec_matches_direct_scheduler;
          Alcotest.test_case "error kinds" `Quick test_run_spec_errors;
          Alcotest.test_case "batch order + errors" `Quick
            test_run_batch_order_and_errors;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick
            test_run_batch_jsonl_deterministic_across_jobs;
          Alcotest.test_case "cache determinism" `Quick
            test_run_batch_cache_determinism;
          Alcotest.test_case "cache verdicts" `Quick
            test_run_batch_cache_verdicts;
          Alcotest.test_case "repeated keys" `Quick
            test_run_batch_repeated_keys;
          Alcotest.test_case "best_p bypasses the cache" `Quick
            test_best_p_bypasses_cache;
          Alcotest.test_case "record shape" `Quick test_job_json_shape;
          Alcotest.test_case "baseline certified" `Quick
            test_run_spec_baseline_certified;
          Alcotest.test_case "lexer error is a parse error" `Quick
            test_lexer_error_is_parse_error;
        ] );
    ]
