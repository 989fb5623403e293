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

module Tally = struct
  type timer = { mutable calls : int; mutable seconds : float }
  type gauge = { rank : int; value : float }

  (* An all-float record is stored flat, so updating it allocates
     nothing on the sampling path. *)
  type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

  type series = {
    mutable n : int;  (* observations, exact *)
    moments : moments;  (* exact over all [n] *)
    mutable kept : float array;  (* grows to [window], then a ring *)
    mutable pushed : int;  (* samples ever written into [kept] *)
  }

  type t = {
    rank : int;
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, gauge) Hashtbl.t;
    series : (string, series) Hashtbl.t;
    timers : (string, timer) Hashtbl.t;
  }

  let window = 16384

  let create ?(rank = 0) () =
    {
      rank;
      counters = Hashtbl.create 64;
      gauges = Hashtbl.create 16;
      series = Hashtbl.create 16;
      timers = Hashtbl.create 8;
    }

  let reset t =
    Hashtbl.reset t.counters;
    Hashtbl.reset t.gauges;
    Hashtbl.reset t.series;
    Hashtbl.reset t.timers

  let count ?(by = 1) t name =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters name (ref by)

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let gauge t name value =
    Hashtbl.replace t.gauges name { rank = t.rank; value }

  let series t name =
    match Hashtbl.find_opt t.series name with
    | Some s -> s
    | None ->
      let s =
        {
          n = 0;
          moments = { sum = 0.; lo = infinity; hi = neg_infinity };
          kept = [||];
          pushed = 0;
        }
      in
      Hashtbl.add t.series name s;
      s

  (* Double [kept] up to the window, then overwrite the oldest sample. *)
  let keep s v =
    let len = Array.length s.kept in
    if s.pushed = len && len < window then begin
      let grown = Array.make (min window (max 16 (2 * len))) 0. in
      Array.blit s.kept 0 grown 0 len;
      s.kept <- grown
    end;
    s.kept.(s.pushed mod window) <- v;
    s.pushed <- s.pushed + 1

  let observe s ~n ~sum ~lo ~hi =
    let m = s.moments in
    s.n <- s.n + n;
    m.sum <- m.sum +. sum;
    if lo < m.lo then m.lo <- lo;
    if hi > m.hi then m.hi <- hi

  let sample t name v =
    let s = series t name in
    observe s ~n:1 ~sum:v ~lo:v ~hi:v;
    keep s v

  let add_timer t name ~calls ~seconds =
    match Hashtbl.find_opt t.timers name with
    | Some tm ->
      tm.calls <- tm.calls + calls;
      tm.seconds <- tm.seconds +. seconds
    | None -> Hashtbl.add t.timers name { calls; seconds }

  let time t name seconds = add_timer t name ~calls:1 ~seconds

  let oldest_first s =
    let len = Array.length s.kept in
    if s.pushed <= len then Array.sub s.kept 0 s.pushed
    else
      let oldest = s.pushed mod len in
      Array.append
        (Array.sub s.kept oldest (len - oldest))
        (Array.sub s.kept 0 oldest)

  let merge ~into src =
    Hashtbl.iter (fun name r -> count ~by:!r into name) src.counters;
    Hashtbl.iter
      (fun name (g : gauge) ->
        match Hashtbl.find_opt into.gauges name with
        | Some cur when cur.rank <= g.rank -> ()
        | Some _ | None -> Hashtbl.replace into.gauges name g)
      src.gauges;
    Hashtbl.iter
      (fun name s ->
        let d = series into name in
        let m = s.moments in
        observe d ~n:s.n ~sum:m.sum ~lo:m.lo ~hi:m.hi;
        Array.iter (keep d) (oldest_first s))
      src.series;
    Hashtbl.iter
      (fun name tm -> add_timer into name ~calls:tm.calls ~seconds:tm.seconds)
      src.timers

  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let histogram (name, s) =
    let xs = oldest_first s in
    Array.stable_sort Float.compare xs;
    let m = s.moments in
    Histogram
      {
        hist_name = name;
        count = s.n;
        sum = m.sum;
        min_v = m.lo;
        max_v = m.hi;
        mean = m.sum /. float_of_int s.n;
        p50 = Qec_util.Stats.nearest_rank 50. xs;
        p95 = Qec_util.Stats.nearest_rank 95. xs;
      }

  let records t =
    List.map (fun (name, r) -> Counter { name; value = !r }) (sorted t.counters)
    @ List.map
        (fun (name, g) -> Gauge { name; value = g.value })
        (sorted t.gauges)
    @ List.map histogram (sorted t.series)
    @ List.map
        (fun (name, tm) ->
          Timer { name; calls = tm.calls; total_s = tm.seconds })
        (sorted t.timers)
end

type frame = { frame_name : string; start : float; mutable child_total : float }

(* The cross-domain half of an installed sink. The installing (root)
   domain owns the sink; worker domains attach with [worker_scope], record
   into domain-local tallies, and merge them into [pending] — under [lock]
   — when their scope ends (i.e. at join). The root drains [pending] on
   [flush], so the sink itself is only ever driven from one domain. *)
type session = {
  sink : sink;
  clock : unit -> float;
  epoch : float;
  lock : Mutex.t;
  mutable wspans : (int * record list) list;
      (* per-scope span buffers tagged with the worker id, in merge order *)
  pending : Tally.t;
}

(* Per-domain probe state. [root] distinguishes the installing domain
   (spans stream straight to the sink) from attached workers (spans buffer
   locally until the scope merges). The tally is domain-local, so probes
   never contend; its rank is the worker id, so on merge the root's gauges
   win, then the lowest worker's. *)
type state = {
  session : session;
  domain : int;
  worker : int;
  root : bool;
  tally : Tally.t;
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
    tally = Tally.create ~rank:worker ();
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
      pending = Tally.create ();
    }
  in
  Atomic.set current_session (Some session);
  Domain.DLS.set dls (Some (make_state ~session ~worker:0 ~root:true))

let count ?by name =
  match active () with None -> () | Some st -> Tally.count ?by st.tally name

let gauge name v =
  match active () with None -> () | Some st -> Tally.gauge st.tally name v

let sample name v =
  match active () with None -> () | Some st -> Tally.sample st.tally name v

let timed name f =
  match active () with
  | None -> f ()
  | Some st -> (
    let t0 = st.session.clock () in
    let stop () =
      Tally.time st.tally name (st.session.clock () -. t0)
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
  Tally.merge ~into:s.pending st.tally

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
   chronological order), aggregates merge into the root's tally so [flush]
   emits one record per name. *)
let drain_workers st =
  let s = st.session in
  let wspans =
    Mutex.protect s.lock @@ fun () ->
    let spans =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev s.wspans)
    in
    s.wspans <- [];
    Tally.merge ~into:st.tally s.pending;
    Tally.reset s.pending;
    spans
  in
  List.iter (fun (_, rs) -> List.iter s.sink.emit rs) wspans

let flush () =
  match active () with
  | Some st when st.root ->
    drain_workers st;
    List.iter st.session.sink.emit (Tally.records st.tally);
    Tally.reset st.tally
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
