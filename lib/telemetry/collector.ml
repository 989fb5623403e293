module TP = Qec_util.Tableprint

type t = { mutable rev : Telemetry.record list }

type phase = {
  phase_name : string;
  calls : int;
  total_s : float;
  self_s : float;
}

let create () = { rev = [] }

let sink c =
  { Telemetry.emit = (fun r -> c.rev <- r :: c.rev); close = ignore }

let records c = List.rev c.rev

let counters c =
  List.filter_map
    (function
      | Telemetry.Counter { name; value } -> Some (name, value) | _ -> None)
    (records c)

let counter c name = Option.value ~default:0 (List.assoc_opt name (counters c))

let gauges c =
  List.filter_map
    (function
      | Telemetry.Gauge { name; value } -> Some (name, value) | _ -> None)
    (records c)

let gauge_opt c name = List.assoc_opt name (gauges c)

let histograms c =
  List.filter_map
    (function Telemetry.Histogram h -> Some h | _ -> None)
    (records c)

let histogram_opt c name =
  List.find_opt
    (fun (h : Telemetry.histogram) -> h.hist_name = name)
    (histograms c)

let timers c =
  List.filter_map
    (function
      | Telemetry.Timer { name; calls; total_s } -> Some (name, calls, total_s)
      | _ -> None)
    (records c)

let spans c =
  List.filter_map (function Telemetry.Span s -> Some s | _ -> None) (records c)

let lanes c =
  List.map (fun (s : Telemetry.span) -> (s.domain, s.worker)) (spans c)
  |> List.sort_uniq compare

let phases c =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Telemetry.span) ->
      match Hashtbl.find_opt tbl s.span_name with
      | None ->
        order := s.span_name :: !order;
        Hashtbl.add tbl s.span_name (ref (1, s.total_s, s.self_s))
      | Some r ->
        let n, t, sf = !r in
        r := (n + 1, t +. s.total_s, sf +. s.self_s))
    (spans c);
  List.rev !order
  |> List.map (fun name ->
         let calls, total_s, self_s = !(Hashtbl.find tbl name) in
         { phase_name = name; calls; total_s; self_s })
  |> List.sort (fun a b -> compare b.self_s a.self_s)

let phase_table c =
  let t =
    TP.create
      ~headers:
        [
          ("phase", TP.Left);
          ("calls", TP.Right);
          ("total (s)", TP.Right);
          ("self (s)", TP.Right);
          ("self %", TP.Right);
        ]
  in
  let ps = phases c in
  let denom =
    max epsilon_float (List.fold_left (fun acc p -> acc +. p.self_s) 0. ps)
  in
  List.iter
    (fun p ->
      TP.add_row t
        [
          p.phase_name;
          string_of_int p.calls;
          Printf.sprintf "%.4f" p.total_s;
          Printf.sprintf "%.4f" p.self_s;
          Printf.sprintf "%.1f" (100. *. p.self_s /. denom);
        ])
    ps;
  t

let print_phases c = if spans c <> [] then TP.print (phase_table c)

let print_summary c =
  if spans c <> [] then begin
    print_endline "per-phase self-time:";
    TP.print (phase_table c)
  end;
  (match counters c with
  | [] -> ()
  | cs ->
    print_endline "counters:";
    let t = TP.create ~headers:[ ("counter", TP.Left); ("value", TP.Right) ] in
    List.iter (fun (name, v) -> TP.add_row t [ name; string_of_int v ]) cs;
    TP.print t);
  (match gauges c with
  | [] -> ()
  | gs ->
    print_endline "gauges:";
    let t = TP.create ~headers:[ ("gauge", TP.Left); ("value", TP.Right) ] in
    List.iter (fun (name, v) -> TP.add_row t [ name; Printf.sprintf "%g" v ]) gs;
    TP.print t);
  (match histograms c with
  | [] -> ()
  | hs ->
    print_endline "samples:";
    let t =
      TP.create
        ~headers:
          [
            ("sample", TP.Left);
            ("count", TP.Right);
            ("mean", TP.Right);
            ("p50", TP.Right);
            ("p95", TP.Right);
            ("max", TP.Right);
          ]
    in
    List.iter
      (fun (h : Telemetry.histogram) ->
        TP.add_row t
          [
            h.hist_name;
            string_of_int h.count;
            Printf.sprintf "%.3f" h.mean;
            Printf.sprintf "%.3f" h.p50;
            Printf.sprintf "%.3f" h.p95;
            Printf.sprintf "%.3f" h.max_v;
          ])
      hs;
    TP.print t);
  match timers c with
  | [] -> ()
  | ts ->
    print_endline "timers:";
    let t =
      TP.create
        ~headers:
          [ ("timer", TP.Left); ("calls", TP.Right); ("total (s)", TP.Right) ]
    in
    List.iter
      (fun (name, calls, total_s) ->
        TP.add_row t
          [ name; string_of_int calls; Printf.sprintf "%.4f" total_s ])
      ts;
    TP.print t
