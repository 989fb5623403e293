let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shared shortest-round-trip printer: telemetry JSONL renders floats
   byte-identically to report JSON (Qec_report.Json uses the same one). *)
let num = Qec_util.Floatfmt.repr

let line (r : Telemetry.record) =
  match r with
  | Telemetry.Span s ->
    Printf.sprintf
      {|{"type":"span","name":"%s","depth":%d,"domain":%d,"worker":%d,"start_s":%s,"total_s":%s,"self_s":%s}|}
      (escape s.span_name) s.depth s.domain s.worker (num s.start_s)
      (num s.total_s) (num s.self_s)
  | Telemetry.Counter { name; value } ->
    Printf.sprintf {|{"type":"counter","name":"%s","value":%d}|} (escape name)
      value
  | Telemetry.Gauge { name; value } ->
    Printf.sprintf {|{"type":"gauge","name":"%s","value":%s}|} (escape name)
      (num value)
  | Telemetry.Histogram h ->
    Printf.sprintf
      {|{"type":"histogram","name":"%s","count":%d,"sum":%s,"min":%s,"max":%s,"mean":%s,"p50":%s,"p95":%s}|}
      (escape h.hist_name) h.count (num h.sum) (num h.min_v) (num h.max_v)
      (num h.mean) (num h.p50) (num h.p95)
  | Telemetry.Timer { name; calls; total_s } ->
    Printf.sprintf {|{"type":"timer","name":"%s","calls":%d,"total_s":%s}|}
      (escape name) calls (num total_s)

let sink write =
  { Telemetry.emit = (fun r -> write (line r ^ "\n")); close = ignore }

let channel_sink ?(close = false) oc =
  {
    Telemetry.emit =
      (fun r ->
        output_string oc (line r);
        output_char oc '\n');
    close =
      (fun () ->
        flush oc;
        if close then close_out oc);
  }
