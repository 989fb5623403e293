(* Live server metrics, readable at any moment from any thread.

   Qec_telemetry buffers worker-domain records in DLS and only merges
   them into the root collector at pool join — correct for batch runs,
   useless for a `stats` request that must see the daemon's counters
   while workers are still running. So the server keeps its own
   mutex-guarded aggregates here and exports them in the same JSON shape
   as Qec_report.Export.telemetry_to_json's counters/gauges/histograms
   members (--metrics' machine-readable form). *)

module Json = Qec_report.Json

(* Latency samples are capped: a long-lived daemon must not grow without
   bound. The most recent [max_samples] observations are kept in a ring,
   so percentiles follow the daemon's current behaviour instead of
   freezing on its first requests; count/sum/min/max stay exact
   forever. *)
let max_samples = 16384

type series = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  samples : float array;
}

type t = {
  lock : Mutex.t;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  series : (string, series) Hashtbl.t;
  started_at : float;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    series = Hashtbl.create 8;
    started_at = Unix.gettimeofday ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let count ?(by = 1) t name =
  locked t @@ fun () ->
  Hashtbl.replace t.counters name
    (by + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let gauge t name v = locked t @@ fun () -> Hashtbl.replace t.gauges name v

let sample t name v =
  locked t @@ fun () ->
  let s =
    match Hashtbl.find_opt t.series name with
    | Some s -> s
    | None ->
      let s =
        {
          count = 0;
          sum = 0.;
          min_v = infinity;
          max_v = neg_infinity;
          samples = Array.make max_samples 0.;
        }
      in
      Hashtbl.add t.series name s;
      s
  in
  s.samples.(s.count mod max_samples) <- v;
  s.count <- s.count + 1;
  s.sum <- s.sum +. v;
  if v < s.min_v then s.min_v <- v;
  if v > s.max_v then s.max_v <- v

let uptime_s t = Unix.gettimeofday () -. t.started_at

let sorted_assoc tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Same member shape as Export.telemetry_to_json minus spans, phases
   and timers (span data belongs to the drain-time Perfetto export, not
   a live counter snapshot). *)
let to_json t =
  locked t @@ fun () ->
  let hist_obj (name, (s : series)) =
    let kept =
      Array.to_list (Array.sub s.samples 0 (min s.count max_samples))
    in
    (* Nearest rank, like the telemetry histograms. *)
    let percentile p =
      if kept = [] then 0. else Qec_util.Stats.percentile p kept
    in
    Json.Obj
      [
        ("name", Json.String name);
        ("count", Json.Int s.count);
        ("sum", Json.Float s.sum);
        ("min", Json.Float (if s.count = 0 then 0. else s.min_v));
        ("max", Json.Float (if s.count = 0 then 0. else s.max_v));
        ( "mean",
          Json.Float (if s.count = 0 then 0. else s.sum /. float_of_int s.count)
        );
        ("p50", Json.Float (percentile 50.));
        ("p95", Json.Float (percentile 95.));
      ]
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Int v)) (sorted_assoc t.counters))
      );
      ( "gauges",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) (sorted_assoc t.gauges))
      );
      ("histograms", Json.List (List.map hist_obj (sorted_assoc t.series)));
    ]

let counter t name =
  locked t @@ fun () ->
  Option.value ~default:0 (Hashtbl.find_opt t.counters name)
