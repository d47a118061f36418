type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;
}

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
  ]

let per_layer =
  [
    ("trace.generate_s", "s");
    ("trace.contacts", "count");
    ("spacetime.snapshot_s", "s");
    ("spacetime.steps", "count");
    ("paths.enumerate_s", "s");
    ("paths.enumerate_p50_ms", "ms");
    ("paths.enumerate_p90_ms", "ms");
    ("paths.arrivals", "count");
    ("paths.steps", "count");
    ("paths.minor_mwords", "Mwords");
    ("paths.promoted_mwords", "Mwords");
    ("paths.major_gcs", "count");
    ("paths.explosion_s", "s");
    ("forwarding.factory_s", "s");
    ("engine.run_s", "s");
    ("engine.setup_s", "s");
    ("engine.drain_s", "s");
    ("engine.finish_s", "s");
    ("engine.events", "count");
    ("engine.transmissions", "count");
    ("engine.minor_mwords", "Mwords");
    ("runner.overhead_s", "s");
    ("parallel.cells_per_s_j2", "1/s");
    ("parallel.scaling_eff", "ratio");
    ("metrics.pool_s", "s");
    ("store.find_s", "s");
    ("store.put_s", "s");
    ("store.hits", "count");
    ("store.misses", "count");
    ("store.bytes", "bytes");
    ("codec.encode_s", "s");
    ("codec.decode_s", "s");
    ("serve.contact_s", "s");
    ("serve.advance_s", "s");
    ("serve.advance_p90_ms", "ms");
    ("serve.paths_p90_ms", "ms");
    ("serve.delivery_p90_ms", "ms");
    ("serve.query_p90_ms", "ms");
    ("serve.snapshot_s", "s");
    ("serve.busy_share", "ratio");
    ("serve.capacity_x", "ratio");
    ("serve.delivered", "count");
    ("serve.expired", "count");
    ("window.ingest_s", "s");
    ("window.trace_s", "s");
    ("window.peak", "count");
    ("gen.late_p90_ms", "ms");
    ("trace_overhead_ratio", "ratio");
    ("trace_coverage", "ratio");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The harness's one machine-readable line. Every metric of the chosen
   family appears; a layer the workload never calls reports 0. A
   non-finite value would not be valid JSON, so it makes the run
   incorrect instead. *)
let json ~trace r =
  let catalogue, values = if trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  let value name = Option.value ~default:0. (List.assoc_opt name values) in
  let finite = List.for_all (fun (name, _) -> Float.is_finite (value name)) catalogue in
  let metric (name, unit_) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (json_number (if finite then value name else 0.))
      unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.correct && finite) r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))

let print_human ~trace r =
  let catalogue, values = if trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  List.iter
    (fun (name, unit_) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      Printf.printf "metric %-26s %14.6g %s\n" name v unit_)
    catalogue;
  List.iter (fun n -> Printf.printf "%s\n" n) r.notes
