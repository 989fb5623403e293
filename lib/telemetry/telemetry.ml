type span = {
  span_name : string;
  depth : int;
  start_s : float;
  total_s : float;
  self_s : float;
  domain : int;
  worker : int;
}

type histogram = {
  hist_name : string;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p95 : float;
}

type record =
  | Span of span
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of histogram
  | Timer of { name : string; calls : int; total_s : float }

type sink = { emit : record -> unit; close : unit -> unit }

let null = { emit = ignore; close = ignore }

let tee = function
  | [] -> null
  | [ s ] -> s
  | sinks ->
    {
      emit = (fun r -> List.iter (fun s -> s.emit r) sinks);
      close = (fun () -> List.iter (fun s -> s.close ()) sinks);
    }

type frame = { frame_name : string; start : float; mutable child_total : float }

type timer = { mutable calls : int; mutable seconds : float }

(* The cross-domain half of an installed sink. The installing (root)
   domain owns the sink; worker domains attach with [worker_scope], record
   into domain-local buffers, and merge them here — under [lock] — when
   their scope ends (i.e. at join). The root drains the merged buffers on
   [flush], so the sink itself is only ever driven from one domain. *)
type session = {
  sink : sink;
  clock : unit -> float;
  epoch : float;
  lock : Mutex.t;
  mutable wspans : (int * record list) list;
      (* per-scope span buffers tagged with the worker id, in merge order *)
  wcounters : (string, int) Hashtbl.t;
  wgauges : (string, int * float) Hashtbl.t;  (* worker id, value *)
  wsamples : (string, float list) Hashtbl.t;
  wtimers : (string, timer) Hashtbl.t;
}

(* Per-domain probe state. [root] distinguishes the installing domain
   (spans stream straight to the sink) from attached workers (spans buffer
   locally until the scope merges). All tables are domain-local, so probes
   never contend. *)
type state = {
  session : session;
  domain : int;
  worker : int;
  root : bool;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  samples : (string, float list ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  mutable stack : frame list;
  mutable buffered : record list;  (* worker spans, newest first *)
}

let dls : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* What [worker_scope] attaches to from a freshly spawned domain. *)
let current_session : session option Atomic.t = Atomic.make None

let active () = Domain.DLS.get dls
let enabled () = Option.is_some (active ())

let make_state ~session ~worker ~root =
  {
    session;
    domain = (Domain.self () :> int);
    worker;
    root;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    samples = Hashtbl.create 16;
    timers = Hashtbl.create 8;
    stack = [];
    buffered = [];
  }

let install ?(clock = Unix.gettimeofday) sink =
  let session =
    {
      sink;
      clock;
      epoch = clock ();
      lock = Mutex.create ();
      wspans = [];
      wcounters = Hashtbl.create 16;
      wgauges = Hashtbl.create 8;
      wsamples = Hashtbl.create 8;
      wtimers = Hashtbl.create 8;
    }
  in
  Atomic.set current_session (Some session);
  Domain.DLS.set dls (Some (make_state ~session ~worker:0 ~root:true))

let count ?(by = 1) name =
  match active () with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add st.counters name (ref by))

let gauge name v =
  match active () with
  | None -> ()
  | Some st -> Hashtbl.replace st.gauges name v

let sample name v =
  match active () with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.samples name with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add st.samples name (ref [ v ]))

let add_timer timers name ~calls ~seconds =
  match Hashtbl.find_opt timers name with
  | Some t ->
    t.calls <- t.calls + calls;
    t.seconds <- t.seconds +. seconds
  | None -> Hashtbl.add timers name { calls; seconds }

let timed name f =
  match active () with
  | None -> f ()
  | Some st -> (
    let t0 = st.session.clock () in
    let stop () =
      add_timer st.timers name ~calls:1 ~seconds:(st.session.clock () -. t0)
    in
    match f () with
    | x ->
      stop ();
      x
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      stop ();
      Printexc.raise_with_backtrace e bt)

let span_open name =
  match active () with
  | None -> ()
  | Some st ->
    st.stack <-
      { frame_name = name; start = st.session.clock (); child_total = 0. }
      :: st.stack

let span_close () =
  match active () with
  | None -> ()
  | Some st -> (
    match st.stack with
    | [] -> ()
    | f :: rest ->
      let total = st.session.clock () -. f.start in
      (match rest with
      | parent :: _ -> parent.child_total <- parent.child_total +. total
      | [] -> ());
      st.stack <- rest;
      let r =
        Span
          {
            span_name = f.frame_name;
            depth = List.length rest;
            start_s = f.start -. st.session.epoch;
            total_s = total;
            self_s = max 0. (total -. f.child_total);
            domain = st.domain;
            worker = st.worker;
          }
      in
      if st.root then st.session.sink.emit r
      else st.buffered <- r :: st.buffered)

let with_span name f =
  match active () with
  | None -> f ()
  | Some st -> (
    span_open name;
    match st.stack with
    | [] -> f () (* unreachable: span_open just pushed *)
    | frame :: _ ->
      Fun.protect
        ~finally:(fun () ->
          (* [f] may have raised with child spans still open: close the
             abandoned children first, then exactly our own frame, so the
             stack below us (and every parent's child_total) survives a
             failing job intact. If [f] over-closed and popped our frame
             itself, leave the rest of the stack alone. *)
          if List.memq frame st.stack then begin
            let rec unwind () =
              match st.stack with
              | [] -> ()
              | g :: _ when g == frame -> span_close ()
              | _ :: _ ->
                span_close ();
                unwind ()
            in
            unwind ()
          end)
        f)

(* ---------------- worker attach / merge ---------------- *)

let merge_into_session st =
  let s = st.session in
  Mutex.protect s.lock @@ fun () ->
  s.wspans <- (st.worker, List.rev st.buffered) :: s.wspans;
  Hashtbl.iter
    (fun name r ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt s.wcounters name) in
      Hashtbl.replace s.wcounters name (cur + !r))
    st.counters;
  Hashtbl.iter
    (fun name v ->
      (* Deterministic cross-worker rule: the lowest worker id wins. *)
      match Hashtbl.find_opt s.wgauges name with
      | Some (w, _) when w <= st.worker -> ()
      | Some _ | None -> Hashtbl.replace s.wgauges name (st.worker, v))
    st.gauges;
  Hashtbl.iter
    (fun name r ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt s.wsamples name) in
      Hashtbl.replace s.wsamples name (cur @ List.rev !r))
    st.samples;
  Hashtbl.iter
    (fun name t -> add_timer s.wtimers name ~calls:t.calls ~seconds:t.seconds)
    st.timers

let worker_scope ~worker f =
  match active () with
  | Some _ -> f () (* the installing domain, or an already-attached one *)
  | None -> (
    match Atomic.get current_session with
    | None -> f ()
    | Some session ->
      let st = make_state ~session ~worker ~root:false in
      Domain.DLS.set dls (Some st);
      Fun.protect
        ~finally:(fun () ->
          (* close spans the worker left open (e.g. on exception) *)
          while st.stack <> [] do
            span_close ()
          done;
          merge_into_session st;
          Domain.DLS.set dls None)
        f)

(* Drain worker buffers into the root state: spans go to the sink ordered
   by worker id (stable, so repeated merges from one worker keep their
   chronological order), aggregates fold into the root tables so [flush]
   emits one record per name. *)
let drain_workers st =
  let s = st.session in
  let wspans, wcounters, wgauges, wsamples, wtimers =
    Mutex.protect s.lock @@ fun () ->
    let spans = List.stable_sort (fun (a, _) (b, _) -> compare a b)
        (List.rev s.wspans)
    in
    let counters = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.wcounters [] in
    let gauges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.wgauges [] in
    let samples = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.wsamples [] in
    let timers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.wtimers [] in
    s.wspans <- [];
    Hashtbl.reset s.wcounters;
    Hashtbl.reset s.wgauges;
    Hashtbl.reset s.wsamples;
    Hashtbl.reset s.wtimers;
    (spans, counters, gauges, samples, timers)
  in
  List.iter (fun (_, rs) -> List.iter s.sink.emit rs) wspans;
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt st.counters name with
      | Some r -> r := !r + v
      | None -> Hashtbl.add st.counters name (ref v))
    wcounters;
  List.iter
    (fun (name, (_, v)) ->
      (* The root's own value wins over any worker's. *)
      if not (Hashtbl.mem st.gauges name) then Hashtbl.replace st.gauges name v)
    wgauges;
  List.iter
    (fun (name, xs) ->
      match Hashtbl.find_opt st.samples name with
      | Some r -> r := List.rev_append xs !r
      | None -> Hashtbl.add st.samples name (ref (List.rev xs)))
    wsamples;
  List.iter
    (fun (name, t) ->
      add_timer st.timers name ~calls:t.calls ~seconds:t.seconds)
    wtimers

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let flush () =
  match active () with
  | Some st when st.root ->
    drain_workers st;
    List.iter
      (fun name ->
        st.session.sink.emit
          (Counter { name; value = !(Hashtbl.find st.counters name) }))
      (sorted_keys st.counters);
    Hashtbl.reset st.counters;
    List.iter
      (fun name ->
        st.session.sink.emit (Gauge { name; value = Hashtbl.find st.gauges name }))
      (sorted_keys st.gauges);
    Hashtbl.reset st.gauges;
    List.iter
      (fun name ->
        let xs = !(Hashtbl.find st.samples name) in
        let min_v, max_v = Qec_util.Stats.min_max xs in
        st.session.sink.emit
          (Histogram
             {
               hist_name = name;
               count = List.length xs;
               sum = List.fold_left ( +. ) 0. xs;
               min_v;
               max_v;
               mean = Qec_util.Stats.mean xs;
               p50 = Qec_util.Stats.percentile 50. xs;
               p95 = Qec_util.Stats.percentile 95. xs;
             }))
      (sorted_keys st.samples);
    Hashtbl.reset st.samples;
    List.iter
      (fun name ->
        let t = Hashtbl.find st.timers name in
        st.session.sink.emit
          (Timer { name; calls = t.calls; total_s = t.seconds }))
      (sorted_keys st.timers);
    Hashtbl.reset st.timers
  | Some _ | None -> ()

let uninstall () =
  match active () with
  | Some st when st.root ->
    flush ();
    st.session.sink.close ();
    Atomic.set current_session None;
    Domain.DLS.set dls None
  | Some _ | None -> ()

let with_sink ?clock sink f =
  let prev_state = Domain.DLS.get dls in
  let prev_session = Atomic.get current_session in
  install ?clock sink;
  Fun.protect
    ~finally:(fun () ->
      uninstall ();
      Domain.DLS.set dls prev_state;
      Atomic.set current_session prev_session)
    f

(* Register the Parallel instrumentation hooks: spawned worker domains get
   a recording scope, and the work-queue loops report through the normal
   probe API. This module is linked by every entry point that uses the
   engine, so the hooks are installed before any pool spins up. *)
let () =
  Qec_util.Parallel.set_probe
    {
      Qec_util.Parallel.wrap_worker = (fun ~worker f -> worker_scope ~worker f);
      enabled;
      now = Unix.gettimeofday;
      count = (fun name by -> count ~by name);
      sample;
      span_open;
      span_close;
    }
