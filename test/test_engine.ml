(* Tests for the batch compilation engine: Spec JSON round-trips, the
   placement cache, backend registry resolution, run_batch determinism
   across worker counts, and structured per-job error records. *)

module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine
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
        CB.braid ())
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
    | Ok p -> p.Engine.result.Autobraid.Scheduler.total_cycles
    | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine.message
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

(* Pre-redesign manifests decode unchanged: no job in the committed
   fixture acquires backend_options, and re-encoding emits no
   backend_options key. *)
let test_fixture_manifest_compat () =
  let path =
    List.find Sys.file_exists
      [ "../fixtures/batch_manifest.json"; "fixtures/batch_manifest.json" ]
  in
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
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

let lowered name =
  Qec_circuit.Decompose.to_scheduler_gates (B.Registry.build name)

let test_cache_key_sensitivity () =
  let c = lowered "qft9" in
  let k ?(side = 3) ?(method_ = IL.Annealed) ?(seed = 11) circuit =
    Cache.key ~circuit ~side ~method_ ~seed
  in
  check_string "deterministic" (k c) (k c);
  check_bool "seed changes key" true (k c <> k ~seed:12 c);
  check_bool "side changes key" true (k c <> k ~side:4 c);
  check_bool "method changes key" true (k c <> k ~method_:IL.Identity c);
  check_bool "circuit changes key" true (k c <> k (lowered "bv12"));
  (* angles are excluded: rz(θ) streams identically for any θ *)
  let rz theta = Qec_circuit.Circuit.create ~num_qubits:1 [ Qec_circuit.Gate.Rz (0, theta) ] in
  check_string "angle-blind" (k (rz 0.1)) (k (rz 0.9))

let test_cache_find_or_place () =
  let c = lowered "qft9" in
  let side = max 1 (Qec_surface.Resources.lattice_side ~num_logical:(Qec_circuit.Circuit.num_qubits c)) in
  let cache = Cache.create () in
  let p1 = Cache.find_or_place cache ~circuit:c ~side ~method_:IL.Annealed ~seed:11 in
  let p2 = Cache.find_or_place cache ~circuit:c ~side ~method_:IL.Annealed ~seed:11 in
  let k = Cache.counters cache in
  check_int "one miss" 1 k.Cache.misses;
  check_int "one memory hit" 1 k.Cache.memory_hits;
  Alcotest.(check (array int))
    "replayed placement identical"
    (Qec_lattice.Placement.to_array p1)
    (Qec_lattice.Placement.to_array p2);
  check_bool "fresh placement objects" true (p1 != p2);
  (* the cached value matches an uncached computation *)
  let direct =
    IL.place ~seed:11 ~method_:IL.Annealed c (Qec_lattice.Grid.create side)
  in
  Alcotest.(check (array int))
    "matches Initial_layout.place"
    (Qec_lattice.Placement.to_array direct)
    (Qec_lattice.Placement.to_array p1)

let test_cache_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let c = lowered "bv12" in
  let side = 4 in
  let place cache =
    Cache.find_or_place cache ~circuit:c ~side ~method_:IL.Annealed ~seed:7
  in
  let cold = Cache.create ~dir () in
  let p_cold = place cold in
  check_int "cold miss" 1 (Cache.counters cold).Cache.misses;
  check_bool "entry on disk" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".placement")
       (Sys.readdir dir));
  (* a fresh cache over the same directory replays from disk *)
  let warm = Cache.create ~dir () in
  let p_warm = place warm in
  let k = Cache.counters warm in
  check_int "warm disk hit" 1 k.Cache.disk_hits;
  check_int "warm no misses" 0 k.Cache.misses;
  Alcotest.(check (array int))
    "disk placement identical"
    (Qec_lattice.Placement.to_array p_cold)
    (Qec_lattice.Placement.to_array p_warm)

let test_cache_corrupt_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = lowered "bv12" in
  let key = Cache.key ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7 in
  let path = Filename.concat dir (key ^ ".placement") in
  let oc = open_out path in
  output_string oc "not a cache entry\n";
  close_out oc;
  let cache = Cache.create ~dir () in
  let _ =
    Cache.find_or_place cache ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7
  in
  let k = Cache.counters cache in
  check_int "corrupt = miss" 1 k.Cache.misses;
  check_int "no disk hit" 0 k.Cache.disk_hits

(* Every single-bit corruption of a valid on-disk entry must behave as a
   miss — the md5 trailer rejects it — and the recomputed placement must
   be byte-identical to an uncorrupted run. A flipped digit that still
   parses must never be silently replayed. *)
let test_cache_bit_flip_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = lowered "bv12" in
  let place cache =
    Cache.find_or_place cache ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7
  in
  let reference = place (Cache.create ~dir ()) in
  let key = Cache.key ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7 in
  let path = Filename.concat dir (key ^ ".placement") in
  let pristine =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* flip one bit in a spread of byte positions across the entry *)
  let positions =
    List.filter
      (fun i -> i < String.length pristine)
      [ 0; 7; String.length pristine / 2; String.length pristine - 2 ]
  in
  List.iter
    (fun i ->
      let b = Bytes.of_string pristine in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let cache = Cache.create ~dir () in
      let p = place cache in
      let k = Cache.counters cache in
      check_int (Printf.sprintf "bit flip at %d is a miss" i) 1 k.Cache.misses;
      check_int (Printf.sprintf "bit flip at %d no disk hit" i) 0
        k.Cache.disk_hits;
      Alcotest.(check (array int))
        (Printf.sprintf "bit flip at %d recomputes identically" i)
        (Qec_lattice.Placement.to_array reference)
        (Qec_lattice.Placement.to_array p))
    positions

let test_cache_truncated_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = lowered "bv12" in
  let place cache =
    Cache.find_or_place cache ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7
  in
  let reference = place (Cache.create ~dir ()) in
  let key = Cache.key ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7 in
  let path = Filename.concat dir (key ^ ".placement") in
  let pristine =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  List.iter
    (fun keep ->
      let oc = open_out_bin path in
      output_string oc (String.sub pristine 0 keep);
      close_out oc;
      let cache = Cache.create ~dir () in
      let p = place cache in
      let k = Cache.counters cache in
      check_int (Printf.sprintf "truncation to %d is a miss" keep) 1
        k.Cache.misses;
      Alcotest.(check (array int))
        (Printf.sprintf "truncation to %d recomputes identically" keep)
        (Qec_lattice.Placement.to_array reference)
        (Qec_lattice.Placement.to_array p))
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
  let c = lowered "bv12" in
  let place ?(seed = 7) cache =
    Cache.find_or_place cache ~circuit:c ~side:4 ~method_:IL.Annealed ~seed
  in
  let reference = place (Cache.create ~dir ()) in
  let _other = place ~seed:8 (Cache.create ~dir ()) in
  let read key =
    let path = Filename.concat dir (key ^ ".placement") in
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let k7 = Cache.key ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:7 in
  let k8 = Cache.key ~circuit:c ~side:4 ~method_:IL.Annealed ~seed:8 in
  let e7 = read k7 and e8 = read k8 in
  let cut = String.length e7 / 2 in
  let torn =
    String.sub e7 0 cut ^ String.sub e8 cut (String.length e8 - cut)
  in
  check_bool "splice really differs" true (torn <> e7 && torn <> e8);
  let oc = open_out_bin (Filename.concat dir (k7 ^ ".placement")) in
  output_string oc torn;
  close_out oc;
  let cache = Cache.create ~dir () in
  let p = place cache in
  let k = Cache.counters cache in
  check_int "torn write is a miss" 1 k.Cache.misses;
  check_int "torn write no disk hit" 0 k.Cache.disk_hits;
  Alcotest.(check (array int))
    "torn write recomputes identically"
    (Qec_lattice.Placement.to_array reference)
    (Qec_lattice.Placement.to_array p)

(* Several cache instances hammering the same directory concurrently
   (the serve daemon next to a batch run) must leave only valid entries
   behind: a fresh cache replays every key from disk, byte-identical to
   the sequential reference. *)
let test_cache_concurrent_writers () =
  with_temp_dir @@ fun dir ->
  let c = lowered "bv12" in
  let seeds = [ 3; 4; 5 ] in
  let place cache seed =
    Cache.find_or_place cache ~circuit:c ~side:4 ~method_:IL.Annealed ~seed
  in
  let reference =
    let cache = Cache.create () in
    List.map (fun s -> Qec_lattice.Placement.to_array (place cache s)) seeds
  in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let cache = Cache.create ~dir () in
            List.iter (fun s -> ignore (place cache s)) seeds))
  in
  List.iter Domain.join writers;
  let warm = Cache.create ~dir () in
  let replayed =
    List.map (fun s -> Qec_lattice.Placement.to_array (place warm s)) seeds
  in
  let k = Cache.counters warm in
  check_int "all keys replay from disk" (List.length seeds) k.Cache.disk_hits;
  check_int "no recomputation" 0 k.Cache.misses;
  List.iteri
    (fun i (r, p) ->
      Alcotest.(check (array int))
        (Printf.sprintf "concurrent entry %d identical" i)
        r p)
    (List.combine reference replayed)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)

let spec ?(backend = "braid") ?(scheduler = Spec.Full) circuit =
  { Spec.default with circuit; backend; scheduler }

let test_run_spec_ok () =
  match Engine.run_spec (spec "qft9") with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine.message
  | Ok p ->
    check_string "backend" "braid" p.Engine.backend;
    check_bool "cycles > 0" true
      (p.Engine.result.Autobraid.Scheduler.total_cycles > 0);
    check_bool "trace present" true (p.Engine.trace <> None)

let test_run_spec_matches_direct_scheduler () =
  (* the Spec path is a repackaging of Scheduler.run, not a reimplementation *)
  let timing = Qec_surface.Timing.make ~d:Qec_surface.Timing.default_d () in
  let direct = Autobraid.Scheduler.run timing (B.Registry.build "qft9") in
  match Engine.run_spec (spec "qft9") with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine.message
  | Ok p ->
    check_int "same cycles" direct.Autobraid.Scheduler.total_cycles
      p.Engine.result.Autobraid.Scheduler.total_cycles;
    check_int "same rounds" direct.Autobraid.Scheduler.rounds
      p.Engine.result.Autobraid.Scheduler.rounds

let test_run_spec_baseline_certified () =
  let s =
    {
      (spec ~scheduler:Spec.Baseline "qft16") with
      outputs = { Spec.default.outputs with certificate = true };
    }
  in
  check_bool "validates" true (Spec.validate s = Ok ());
  match Engine.run_spec s with
  | Error e -> Alcotest.failf "run_spec failed: %s" e.Engine.message
  | Ok p -> (
    check_string "backend" "gp-baseline" p.Engine.backend;
    check_bool "trace recorded" true (p.Engine.trace <> None);
    let untraced =
      Gp_baseline.run (Qec_surface.Timing.make ~d:s.Spec.d ())
        (B.Registry.build "qft16")
    in
    check_int "same cycles as untraced"
      untraced.Autobraid.Scheduler.total_cycles
      p.Engine.result.Autobraid.Scheduler.total_cycles;
    match p.Engine.certificate with
    | Some cert ->
      check_bool (Qec_verify.Certifier.to_summary cert) true
        (Qec_verify.Certifier.ok cert)
    | None -> Alcotest.fail "no certificate")

let test_run_spec_errors () =
  let kind s =
    match Engine.run_spec s with
    | Error e -> e.Engine.kind
    | Ok _ -> "ok"
  in
  check_string "missing circuit" "circuit-not-found" (kind (spec "no_such"));
  check_string "invalid spec" "invalid-spec"
    (kind { (spec "qft9") with Spec.d = 0 });
  check_string "invalid backend caught in validate" "invalid-spec"
    (kind (spec ~backend:"warp" "qft9"))

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
    (fun i j -> check_int "input order" i j.Engine.index)
    jobs;
  match Engine.errors jobs with
  | [ (2, e) ] ->
    check_string "kind" "circuit-not-found" e.Engine.kind;
    check_bool "message" true (contains e.Engine.message "no_such_circuit")
  | other -> Alcotest.failf "expected exactly one error, got %d" (List.length other)

let test_run_batch_jsonl_deterministic_across_jobs () =
  let render jobs_n =
    let cache = Cache.create () in
    Engine.jobs_to_jsonl (Engine.run_batch ~jobs:jobs_n ~cache batch_specs)
  in
  let one = render 1 in
  check_string "jobs 1 = jobs 4" one (render 4);
  check_string "repeat run identical" one (render 4);
  check_int "five lines" (List.length batch_specs)
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' one)))

let test_run_batch_cache_determinism () =
  with_temp_dir @@ fun dir ->
  (* cold (computes + writes disk), warm-memory, warm-disk: all three must
     schedule identically, trace included *)
  let specs = [ spec "qft9"; spec ~backend:"surgery" "qft9" ] in
  let cold_cache = Cache.create ~dir () in
  let cold = Engine.run_batch ~jobs:2 ~cache:cold_cache specs in
  let warm = Engine.run_batch ~jobs:2 ~cache:cold_cache specs in
  let disk = Engine.run_batch ~jobs:2 ~cache:(Cache.create ~dir ()) specs in
  let uncached = Engine.run_batch ~jobs:2 specs in
  check_bool "warm run hit memory" true
    ((Cache.counters cold_cache).Cache.memory_hits > 0);
  check_bool "disk run hit disk" true
    (List.exists (fun j -> j.Engine.cache = Engine.Disk_hit) disk);
  List.iter
    (fun other ->
      check_string "identical records" (Engine.jobs_to_jsonl cold)
        (Engine.jobs_to_jsonl other))
    [ warm; disk; uncached ];
  (* traces too, not just the summary rows *)
  List.iter2
    (fun a b ->
      match (a.Engine.outcome, b.Engine.outcome) with
      | Ok pa, Ok pb ->
        check_bool "same trace" true (pa.Engine.trace = pb.Engine.trace)
      | _ -> Alcotest.fail "job failed")
    cold disk

let test_job_json_shape () =
  let jobs =
    Engine.run_batch ~jobs:1
      [ { (spec "qft9") with Spec.id = Some "job-a" }; spec "no_such" ]
  in
  let lines =
    String.split_on_char '\n' (String.trim (Engine.jobs_to_jsonl jobs))
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
  let timed = Engine.jobs_to_jsonl ~timings:true jobs in
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
        ] );
      ( "placement_cache",
        [
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "find_or_place" `Quick test_cache_find_or_place;
          Alcotest.test_case "disk round-trip" `Quick test_cache_disk_roundtrip;
          Alcotest.test_case "corrupt entry" `Quick test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "bit-flipped entry" `Quick
            test_cache_bit_flip_is_miss;
          Alcotest.test_case "truncated entry" `Quick
            test_cache_truncated_entry_is_miss;
          Alcotest.test_case "torn write" `Quick test_cache_torn_write_is_miss;
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
          Alcotest.test_case "record shape" `Quick test_job_json_shape;
          Alcotest.test_case "baseline certified" `Quick
            test_run_spec_baseline_certified;
        ] );
    ]
