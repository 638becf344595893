(* The benchmark's metric catalogue: name and unit of every metric, in
   print order.  BENCHMARK.json lists the same names. *)

let apps = [ "nbody"; "kmeans"; "adpredictor"; "rush_larsen"; "bezier" ]

(* Timed runs (tracing off). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("suite_s", "s");
    ("flow_s.geomean", "s");
    ("req_latency_s.p50", "s");
    ("req_latency_s.p90", "s");
    ("goodput_rps", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* Traced runs.  The per-app medians come first: with 2-8 samples per
   app in a flow-cold run, they spread too far from run to run to carry
   a bound, so the end-to-end gate is their geometric mean. *)
let per_layer =
  List.map (fun a -> ("flow_s." ^ a, "s")) apps
  @ [
    ("srclang.resolve_s", "s");
    ("flow.task.self_s", "s");
    ("flow.analyse_s", "s");
    ("flow.fanout_s", "s");
    ("flow.assemble_s", "s");
    ("flow.retries", "count");
    ("flow.task.failures", "count");
    ("interp.self_s", "s");
    ("interp.runs", "count");
    ("interp.steps", "count");
    ("interp.steps_per_s", "1/s");
    ("interp.vm_coverage", "ratio");
    ("dse.self_s", "s");
    ("dse.points", "count");
    ("cache.self_s", "s");
    ("cache.run.hit_ratio", "ratio");
    ("cache.task.hit_ratio", "ratio");
    ("cache.dsept.hit_ratio", "ratio");
    ("cache.bytes_read", "B");
    ("cache.bytes_written", "B");
    ("cache.waits", "count");
    ("cache.corrupt", "count");
    ("pool.idle_s", "s");
    ("pool.steals", "count");
    ("pool.spawned", "count");
    ("pool.queue_depth.max", "count");
    ("serve.service_s.p50", "s");
    ("serve.service_s.p90", "s");
    ("serve.wait_s.mean", "s");
    ("serve.http_rtt_s.p50", "s");
    ("serve.polls_per_req", "count");
    ("serve.queue_depth.max", "count");
    ("serve.shed", "count");
    ("serve.ratelimited", "count");
    ("serve.latency_s.budgeted.p50", "s");
    ("serve.latency_s.unbudgeted.p50", "s");
    ("trace.overhead", "ratio");
    ("unattributed_share", "ratio");
    ("loadgen.late_s.max", "s");
    ("error_rate", "ratio");
  ]
