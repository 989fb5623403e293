(* Tests for Qec_serve: wire-protocol totality and round-trips, the
   windowed tally behind the live statistics, and an in-process daemon
   exercised end-to-end over real Unix-domain sockets — correlation of
   out-of-order responses, byte-identity with the one-shot engine,
   admission control, malformed input resilience, queue-wait timeouts
   and graceful drain. *)

module P = Qec_serve.Protocol
module C = Qec_serve.Client
module Server = Qec_serve.Server
module Tally = Qec_telemetry.Telemetry.Tally
module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine
module Engine_core = Qec_engine.Engine_core
module Json = Qec_report.Json

let () = Engine.ensure_backends ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let spec ?(seed = 11) circuit = { Spec.default with Spec.circuit; seed }

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)

let test_request_roundtrip () =
  let s = spec "qft9" in
  (match P.decode (P.encode (P.compile_request ~id:"r1" s)) with
  | Ok (P.Compile { id = Some "r1"; op = "compile"; spec }) ->
    check_bool "spec survives" true (spec = s)
  | _ -> Alcotest.fail "compile request did not round-trip");
  (match P.decode (P.encode (P.compile_request ~op:"schedule" s)) with
  | Ok (P.Compile { id = None; op = "schedule"; _ }) -> ()
  | _ -> Alcotest.fail "schedule alias did not round-trip");
  (match P.decode (P.encode (P.batch_request ~id:"b" [ s; spec "bv12" ])) with
  | Ok (P.Batch { id = Some "b"; specs }) ->
    check_int "both jobs" 2 (List.length specs)
  | _ -> Alcotest.fail "batch request did not round-trip");
  List.iter
    (fun (line, name) ->
      match P.decode line with
      | Ok req ->
        check_bool (name ^ " id") true (P.request_id req = Some "x")
      | Error e -> Alcotest.failf "%s: %s" name e.Qec_engine.Engine_core.message)
    [
      (P.encode (P.ping_request ~id:"x" ()), "ping");
      (P.encode (P.stats_request ~id:"x" ()), "stats");
      (P.encode (P.shutdown_request ~id:"x" ()), "shutdown");
    ]

let test_decode_errors () =
  let kind line =
    match P.decode line with
    | Error e -> e.Qec_engine.Engine_core.kind
    | Ok _ -> "ok"
  in
  check_string "invalid json" "parse" (kind "{nope");
  check_string "non-object" "bad-request" (kind "[1,2]");
  check_string "missing op" "bad-request" (kind "{}");
  check_string "non-string op" "bad-request" (kind {|{"op": 3}|});
  check_string "unknown op" "bad-request" (kind {|{"op": "explode"}|});
  check_string "missing spec" "bad-request" (kind {|{"op": "compile"}|});
  check_string "bad spec" "bad-request"
    (kind {|{"op": "compile", "spec": {"circuit": 3}}|});
  check_string "unknown field" "bad-request"
    (kind {|{"op": "ping", "bogus": 1}|});
  check_string "non-string id" "bad-request" (kind {|{"op": "ping", "id": 7}|});
  check_string "empty batch" "bad-request" (kind {|{"op": "batch", "jobs": []}|})

let test_response_roundtrip () =
  let job =
    {
      Engine_core.index = 4;
      spec = spec "qft9";
      elapsed_s = 0.;
      cache = Engine_core.Uncached;
      outcome = Error { Engine_core.kind = "internal"; message = "boom" };
    }
  in
  (match P.response_of_line (P.encode (P.result_record ~request:(Some "a") job)) with
  | Ok (P.Result { request = Some "a"; job }) ->
    check_bool "job embedded" true (Json.member "index" job = Some (Json.Int 4))
  | _ -> Alcotest.fail "result record did not round-trip");
  (match
     P.response_of_line
       (P.encode
          (P.error_record ~request:None
             { Qec_engine.Engine_core.kind = "overloaded"; message = "full" }))
   with
  | Ok (P.Error_resp { request = None; kind = "overloaded"; message = "full" })
    ->
    ()
  | _ -> Alcotest.fail "error record did not round-trip");
  (match P.response_of_line (P.encode (P.pong_record ~request:(Some "p"))) with
  | Ok (P.Pong { request = Some "p"; version }) ->
    check_string "pong version" P.version version
  | _ -> Alcotest.fail "pong did not round-trip");
  (match
     P.response_of_line
       (P.encode (P.done_record ~request:(Some "b") ~ok:2 ~failed:1))
   with
  | Ok (P.Done { ok = 2; failed = 1; _ }) -> ()
  | _ -> Alcotest.fail "done did not round-trip");
  match P.response_of_line (P.encode (P.shutdown_record ~request:None)) with
  | Ok (P.Shutdown_ack _) -> ()
  | _ -> Alcotest.fail "shutdown ack did not round-trip"

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

(* A tally like the daemon's, rendered as its [stats] member. *)
let windowed () = Tally.create ()
let stats_json m =
  Json.Obj (Qec_report.Export.metrics_members (Tally.records m))

let test_metrics () =
  let m = windowed () in
  Tally.count m "a";
  Tally.count ~by:4 m "a";
  Tally.gauge m "g" 2.5;
  List.iter (Tally.sample m "s") [ 0.3; 0.1; 0.4; 0.2 ];
  check_int "counter" 5 (Tally.counter m "a");
  check_int "unknown counter" 0 (Tally.counter m "nope");
  let j = stats_json m in
  check_bool "counter exported" true
    (Option.bind (Json.member "counters" j) (Json.member "a")
    = Some (Json.Int 5));
  check_bool "gauge exported" true
    (Option.bind (Json.member "gauges" j) (Json.member "g")
    = Some (Json.Float 2.5));
  match Json.member "histograms" j with
  | Some (Json.List [ h ]) ->
    check_bool "hist name" true (Json.member "name" h = Some (Json.String "s"));
    check_bool "hist count" true (Json.member "count" h = Some (Json.Int 4));
    check_bool "hist min" true (Json.member "min" h = Some (Json.Float 0.1));
    check_bool "hist max" true (Json.member "max" h = Some (Json.Float 0.4));
    (* nearest rank, as the telemetry histograms compute it: the p-th
       percentile of n samples is the ceil(p n / 100)-th smallest *)
    check_bool "hist p50" true (Json.member "p50" h = Some (Json.Float 0.2));
    check_bool "hist p95" true (Json.member "p95" h = Some (Json.Float 0.4))
  | _ -> Alcotest.fail "expected exactly one histogram"

(* Percentiles follow the most recent samples: after a full window of
   1.0s is displaced by a full window of 3.0s, the median is 3.0. *)
let test_metrics_percentiles_follow_recent () =
  let m = windowed () in
  for _ = 1 to Tally.window do Tally.sample m "s" 1.0 done;
  for _ = 1 to Tally.window do Tally.sample m "s" 3.0 done;
  match Json.member "histograms" (stats_json m) with
  | Some (Json.List [ h ]) ->
    check_bool "count stays exact" true
      (Json.member "count" h = Some (Json.Int (2 * Tally.window)));
    check_bool "min stays exact" true
      (Json.member "min" h = Some (Json.Float 1.0));
    check_bool "p50 tracks recent samples" true
      (Json.member "p50" h = Some (Json.Float 3.0))
  | _ -> Alcotest.fail "expected exactly one histogram"

(* ------------------------------------------------------------------ *)
(* In-process daemon harness                                            *)

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "absrv%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(jobs = 2) ?(max_pending = 64) ?timeout_s f =
  let socket = next_sock () in
  let config =
    {
      (Server.default_config ~socket ()) with
      jobs;
      max_pending;
      timeout_s;
    }
  in
  let daemon =
    Domain.spawn (fun () -> Result.iter_error failwith (Server.run config))
  in
  Fun.protect
    ~finally:(fun () ->
      (match C.connect socket with
      | Ok c ->
        ignore (C.shutdown c);
        C.close c
      | Error _ -> () (* the test already drained it *));
      Domain.join daemon)
    (fun () ->
      match C.connect_retry socket with
      | Error msg -> Alcotest.failf "daemon did not come up: %s" msg
      | Ok probe ->
        C.close probe;
        f socket)

let connect socket = get_ok "connect" (C.connect socket)

(* Render a job exactly as the one-shot engine would for this spec —
   the byte-identity oracle for serve responses. *)
let one_shot_line s =
  Json.to_string
    (Engine_core.job_to_json
       {
         Engine_core.index = 0;
         spec = s;
         elapsed_s = 0.;
         cache = Engine_core.Uncached;
         outcome = Engine.run_spec s;
       })

let test_ping () =
  with_server @@ fun socket ->
  let c = connect socket in
  (match get_ok "ping" (C.ping ~id:"p" c) with
  | P.Pong { request = Some "p"; version } ->
    check_string "version" P.version version
  | _ -> Alcotest.fail "expected pong");
  C.close c

let test_compile_byte_identity () =
  with_server @@ fun socket ->
  let c = connect socket in
  let s = spec "qft9" in
  (match get_ok "compile" (C.compile ~id:"c1" c s) with
  | P.Result { request = Some "c1"; job } ->
    check_string "byte-identical to one-shot engine" (one_shot_line s)
      (C.job_line job)
  | _ -> Alcotest.fail "expected a result record");
  C.close c

let test_out_of_order_correlation () =
  with_server ~jobs:2 @@ fun socket ->
  let c = connect socket in
  (* pipeline two requests of very different cost on one connection; the
     responses may arrive in either order and must correlate by id *)
  get_ok "send slow" (C.send c (P.compile_request ~id:"slow" (spec "qft16")));
  get_ok "send fast" (C.send c (P.compile_request ~id:"fast" (spec "ghz3")));
  let read () =
    match get_ok "read" (C.read_response c) with
    | P.Result { request = Some id; job } -> (id, job)
    | _ -> Alcotest.fail "expected a result record"
  in
  let r1 = read () and r2 = read () in
  let circuit_of (_, job) =
    match Option.bind (Json.member "spec" job) (Json.member "circuit") with
    | Some (Json.String name) -> name
    | _ -> Alcotest.fail "job record without a circuit"
  in
  let find id =
    match List.find_opt (fun (i, _) -> i = id) [ r1; r2 ] with
    | Some r -> circuit_of r
    | None -> Alcotest.failf "no response correlated to %S" id
  in
  check_string "slow id -> slow circuit" "qft16" (find "slow");
  check_string "fast id -> fast circuit" "ghz3" (find "fast");
  C.close c

let test_concurrent_clients () =
  with_server ~jobs:2 @@ fun socket ->
  let serve_one circuit =
    let c = connect socket in
    let r =
      match get_ok "compile" (C.compile c (spec circuit)) with
      | P.Result { job; _ } -> C.job_line job
      | _ -> Alcotest.fail "expected a result record"
    in
    C.close c;
    (circuit, r)
  in
  let results = Qec_util.Parallel.map_jobs ~jobs:2 serve_one [ "qft9"; "bv12" ] in
  List.iter
    (fun (circuit, line) ->
      check_string
        (circuit ^ " served correctly over a concurrent connection")
        (one_shot_line (spec circuit))
        line)
    results

let test_batch_streaming () =
  with_server ~jobs:2 @@ fun socket ->
  let c = connect socket in
  let specs = [ spec "qft9"; spec "no_such_circuit"; spec "ghz3" ] in
  let records, ok_n, failed_n = get_ok "batch" (C.batch ~id:"b" c specs) in
  check_int "three streamed records" 3 (List.length records);
  check_int "two ok" 2 ok_n;
  check_int "one failed" 1 failed_n;
  let jobs =
    List.filter_map
      (function
        | P.Result { request = Some "b"; job } -> Some job
        | P.Result { request = _; _ } ->
          Alcotest.fail "batch record with wrong correlation id"
        | _ -> None)
      records
  in
  let index job =
    match Json.member "index" job with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.fail "job record without an index"
  in
  let sorted = List.sort (fun a b -> compare (index a) (index b)) jobs in
  let serve_jsonl =
    String.concat "" (List.map (fun j -> C.job_line j ^ "\n") sorted)
  in
  check_string "batch stream reassembles to run_batch JSONL"
    (Engine_core.jobs_to_jsonl ~timings:false (Engine.run_batch ~jobs:1 specs))
    serve_jsonl;
  C.close c

let test_overload () =
  (* max_pending = 0 rejects every compile deterministically while the
     control plane stays alive *)
  with_server ~jobs:1 ~max_pending:0 @@ fun socket ->
  let c = connect socket in
  (match get_ok "compile" (C.compile ~id:"x" c (spec "qft9")) with
  | P.Error_resp { request = Some "x"; kind = "overloaded"; _ } -> ()
  | P.Error_resp { kind; _ } -> Alcotest.failf "expected overloaded, got %s" kind
  | _ -> Alcotest.fail "expected an error record");
  (match get_ok "ping after overload" (C.ping c) with
  | P.Pong _ -> ()
  | _ -> Alcotest.fail "daemon died after overload");
  C.close c

let test_malformed_lines () =
  with_server @@ fun socket ->
  (* raw socket: hello, then garbage, then a valid ping on the same
     connection — the error must be a record, not a disconnect *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  (match P.response_of_line (input_line ic) with
  | Ok (P.Hello v) -> check_string "hello version" P.version v
  | _ -> Alcotest.fail "expected hello");
  let send_raw line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  send_raw "{{{ not json";
  (match P.response_of_line (input_line ic) with
  | Ok (P.Error_resp { kind = "parse"; request = None; _ }) -> ()
  | _ -> Alcotest.fail "garbage must yield a parse error record");
  send_raw {|{"op": "explode", "id": "e"}|};
  (match P.response_of_line (input_line ic) with
  | Ok (P.Error_resp { kind = "bad-request"; _ }) -> ()
  | _ -> Alcotest.fail "unknown op must yield a bad-request record");
  send_raw (P.encode (P.ping_request ()));
  (match P.response_of_line (input_line ic) with
  | Ok (P.Pong _) -> ()
  | _ -> Alcotest.fail "connection must survive malformed lines");
  Unix.close fd

let test_timeout () =
  (* an unmeetable deadline: every request times out at dequeue, with a
     structured record, and the daemon survives *)
  with_server ~jobs:1 ~timeout_s:1e-9 @@ fun socket ->
  let c = connect socket in
  (match get_ok "compile" (C.compile ~id:"t" c (spec "qft9")) with
  | P.Error_resp { request = Some "t"; kind = "timeout"; _ } -> ()
  | P.Error_resp { kind; _ } -> Alcotest.failf "expected timeout, got %s" kind
  | _ -> Alcotest.fail "expected an error record");
  (match get_ok "ping after timeout" (C.ping c) with
  | P.Pong _ -> ()
  | _ -> Alcotest.fail "daemon died after timeout");
  C.close c

let fetch_stats socket =
  let c = connect socket in
  let stats =
    match get_ok "stats" (C.stats ~id:"s" c) with
    | P.Stats_resp { request = Some "s"; stats } -> stats
    | _ -> Alcotest.fail "expected stats"
  in
  C.close c;
  stats

let member_at stats path =
  List.fold_left
    (fun acc name -> Option.bind acc (Json.member name))
    (Some stats) path

let int_at stats path =
  match member_at stats path with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "stats missing %s" (String.concat "." path)

let test_stats_and_cache_sharing () =
  with_server ~jobs:2 @@ fun socket ->
  let compile_once () =
    let c = connect socket in
    (match get_ok "compile" (C.compile c (spec "qft9")) with
    | P.Result _ -> ()
    | _ -> Alcotest.fail "expected a result");
    C.close c
  in
  (* same spec from two different connections: the second must hit the
     shared in-memory placement cache *)
  compile_once ();
  compile_once ();
  let stats = fetch_stats socket in
  let int_at = int_at stats in
  check_int "one miss" 1 (int_at [ "cache"; "misses" ]);
  check_int "one shared memory hit" 1 (int_at [ "cache"; "memory_hits" ]);
  check_int "both results ok" 2
    (int_at [ "telemetry"; "counters"; "serve.results_ok" ]);
  check_int "queue drained" 0 (int_at [ "server"; "queue_depth" ]);
  (match member_at stats [ "server"; "uptime_s" ] with
  | Some (Json.Float u) -> check_bool "uptime moves" true (u >= 0.)
  | _ -> Alcotest.fail "stats missing server.uptime_s");
  (match Json.member "server" stats with
  | Some server ->
    check_bool "version advertised" true
      (Json.member "version" server = Some (Json.String P.version))
  | None -> Alcotest.fail "stats missing server block");
  match Option.bind (Json.member "telemetry" stats) (Json.member "histograms") with
  | Some (Json.List hists) ->
    check_bool "request latency histogram present" true
      (List.exists
         (fun h -> Json.member "name" h = Some (Json.String "serve.request_s"))
         hists)
  | _ -> Alcotest.fail "stats missing telemetry histograms"

(* Each request's cache verdict comes from its own lookup: after two
   concurrent clients missing and hitting side by side, the per-verdict
   counters equal the cache's own totals. *)
let test_cache_verdict_counters () =
  with_server ~jobs:2 @@ fun socket ->
  let specs =
    List.concat_map
      (fun seed -> List.map (spec ~seed) [ "ghz3"; "bv12"; "qft9" ])
      [ 1; 2; 3; 4 ]
  in
  let client () =
    let c = connect socket in
    let _, ok, _ = get_ok "batch" (C.batch c specs) in
    C.close c;
    ok
  in
  let oks = Qec_util.Parallel.map_jobs ~jobs:2 client [ (); () ] in
  check_int "every job ok" (2 * List.length specs) (List.fold_left ( + ) 0 oks);
  let stats = fetch_stats socket in
  let counter name =
    match member_at stats [ "telemetry"; "counters"; name ] with
    | Some (Json.Int i) -> i
    | _ -> 0
  in
  List.iter
    (fun kind ->
      check_int kind
        (int_at stats [ "cache"; kind ])
        (counter ("serve.cache." ^ kind)))
    [ "memory_hits"; "disk_hits"; "misses" ];
  check_int "one lookup per job" (2 * List.length specs)
    (List.fold_left
       (fun acc kind -> acc + int_at stats [ "cache"; kind ])
       0
       [ "memory_hits"; "disk_hits"; "misses" ])

let test_graceful_drain () =
  with_server ~jobs:1 @@ fun socket ->
  let c = connect socket in
  (* work admitted before the shutdown request must still be answered *)
  get_ok "send compile" (C.send c (P.compile_request ~id:"w" (spec "qft9")));
  get_ok "send shutdown" (C.send c (P.shutdown_request ~id:"d" ()));
  let got_result = ref false and got_ack = ref false in
  for _ = 1 to 2 do
    match get_ok "read" (C.read_response c) with
    | P.Result { request = Some "w"; _ } -> got_result := true
    | P.Shutdown_ack { request = Some "d" } -> got_ack := true
    | _ -> Alcotest.fail "unexpected response during drain"
  done;
  check_bool "queued work served" true !got_result;
  check_bool "shutdown acknowledged" true !got_ack;
  C.close c
(* with_server's finally joins the daemon domain, proving the drain
   actually terminates the server *)

let () =
  Alcotest.run "qec_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "aggregates" `Quick test_metrics;
          Alcotest.test_case "percentiles follow recent samples" `Quick
            test_metrics_percentiles_follow_recent;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "byte-identity" `Quick test_compile_byte_identity;
          Alcotest.test_case "out-of-order correlation" `Quick
            test_out_of_order_correlation;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "batch streaming" `Quick test_batch_streaming;
          Alcotest.test_case "overload" `Quick test_overload;
          Alcotest.test_case "malformed lines" `Quick test_malformed_lines;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "stats + cache sharing" `Quick
            test_stats_and_cache_sharing;
          Alcotest.test_case "cache verdict counters" `Quick
            test_cache_verdict_counters;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
        ] );
    ]
