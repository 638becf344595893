(* The flow workloads: the paper's five apps, uninformed mode, evaluation
   workload, run in-process through [Request.run].

   - flow-cold: every flow starts from an empty cache directory with the
     memory tier cleared, so it interprets, models and writes the cache.
   - flow-warm: set-up populates one cache directory; every flow clears
     the memory tier and replays from the disk tier, as a fresh
     [psaflow run] does. *)

open Pb_sys

type mode = Cold | Warm

(* Flows finishing within this many seconds count towards goodput. *)
let limit_s = function Cold -> 10.0 | Warm -> 0.1

(* Set-ups per run; flow-warm's runs five cold flows, so it is done twice. *)
let setups = function Cold -> 3 | Warm -> 2

let eval_spec app = { Pb_check.app; informed = false; quick = false; budget = None }

(* Flows per app in one pass.  A cold nbody flow takes about four times
   as long as each of the others, so on flow-cold the others run twice
   per pass: their medians rest on twice the samples, and a pass (13-15 s
   on a 2-vCPU VM) still ends early enough in a 20 s run to start another. *)
let reps mode app = match (mode, app) with Cold, "nbody" | Warm, _ -> 1 | Cold, _ -> 2

(* Host-speed samples are taken before a flow when the last is this many
   seconds old: before every cold flow, about every fifth warm one. *)
let cal_every = 0.03

(* Seeded flow orders, one per pass. *)
let orders mode ~seed n =
  let st = Random.State.make [| seed |] in
  let flows = List.concat_map (fun app -> List.init (reps mode app) (fun _ -> app)) Pb_names.apps in
  Array.init n (fun _ ->
      let a = Array.of_list flows in
      Pb_stat.shuffle st a;
      Array.to_list a)

let fresh_cache () =
  let d = fresh "cache" in
  Cache.set_dir (Some d);
  Cache.clear_memory ();
  d

let drop_cache d =
  Cache.set_dir None;
  Cache.clear_memory ();
  rm_rf d

(* One set-up: load the goldens, generate the pass orders, then warm the
   process — flow-cold runs the quick spec of each app once on a
   throw-away cache; flow-warm populates the cache directory the timed
   flows will read. *)
let setup mode ~seed t =
  let goldens = Pb_check.load_goldens () in
  let ord = orders mode ~seed 4096 in
  let dir =
    match mode with
    | Cold ->
      List.iter
        (fun app ->
          let d = fresh_cache () in
          ignore (Pb_check.flow t goldens { (eval_spec app) with quick = true });
          drop_cache d)
        Pb_names.apps;
      None
    | Warm ->
      let d = fresh_cache () in
      List.iter
        (fun app ->
          Cache.clear_memory ();
          ignore (Pb_check.flow t goldens (eval_spec app));
          Gc.full_major ())
        Pb_names.apps;
      Cache.set_dir None;
      Cache.clear_memory ();
      Some d
  in
  (goldens, ord, dir)

(* Pool workers parked before tracing started hold idle spans the trace
   never sees; waking them makes every worker re-park under a recorded
   span, and closes open idle spans before the trace stops. *)
let wake_workers () =
  let n = Util.Pool.default_jobs () in
  if n > 1 then begin
    ignore
      (Util.Pool.Fut.await_all
         (List.init (2 * n) (fun _ -> Util.Pool.Fut.spawn (fun () -> Unix.sleepf 0.0002))));
    Unix.sleepf 0.001
  end

type acc = {
  mutable untraced : float list;  (* suite seconds per untraced pass *)
  mutable traced : float list;
  per_app : (string, float list) Hashtbl.t;
  mutable lat : float list;
  mutable good : int;
  mutable busy_s : float;
  layer : (string, float) Hashtbl.t;  (* traced-pass sums *)
}

let add acc name v =
  Hashtbl.replace acc.layer name (v +. Option.value (Hashtbl.find_opt acc.layer name) ~default:0.0)

let phase_names =
  [
    ("flow.analyse_s", "target-independent analysis");
    ("flow.fanout_s", "branch fan-out");
    ("flow.assemble_s", "assemble designs");
  ]

let self_cats =
  [
    ("flow.task.self_s", "task");
    ("interp.self_s", "interp-run");
    ("dse.self_s", "dse-point");
    ("cache.self_s", "cache-lookup");
  ]

let counters =
  [
    "flow.retries"; "flow.task.failures"; "interp.runs"; "interp.steps"; "vm.steps.planned";
    "pool.steals"; "pool.spawned"; "pool.idle_ns";
  ]

let cache_fields = [ "mem_hits"; "disk_hits"; "misses"; "waits"; "corrupt"; "bytes_read"; "bytes_written" ]

(* Fold one traced pass into the layer sums. *)
let account acc ~before ~after ~windows =
  let spans = Pb_selftime.spans (Obs.Trace.events ()) in
  List.iter
    (fun (m, cat) -> add acc m (Pb_selftime.self_s ~keep:(fun s -> s.cat = cat) spans))
    self_cats;
  List.iter
    (fun (m, name) ->
      add acc m (Pb_selftime.dur_s ~keep:(fun s -> s.cat = "flow" && s.name = name) spans))
    phase_names;
  add acc "dse.points"
    (float_of_int (List.length (List.filter (fun s -> s.Pb_selftime.cat = "dse-point") spans)));
  List.iter (fun c -> add acc c (delta ~before ~after (String.equal c))) counters;
  List.iter
    (fun kind ->
      List.iter
        (fun f ->
          add acc
            (Printf.sprintf "cache.%s.%s" kind f)
            (delta ~before ~after (String.equal (Printf.sprintf "cache.%s.%s" kind f))))
        cache_fields)
    [ "run"; "task"; "dsept"; "dsefr" ];
  (* attribution inside each flow's window: what the program's spans
     cover, minus the benchmark's own flow span *)
  let domains = float_of_int (max 1 (Util.Pool.default_jobs ())) in
  let wrapper s = s.Pb_selftime.cat = "section" in
  List.iter
    (fun (lo, hi) ->
      let inside s = s.Pb_selftime.b_us >= lo *. 1e6 && s.e_us <= hi *. 1e6 in
      let covered = Pb_selftime.covered_s ~lo_us:(lo *. 1e6) ~hi_us:(hi *. 1e6) spans in
      let own = Pb_selftime.self_s ~keep:(fun s -> wrapper s && inside s) spans in
      add acc "attributed_s" (covered -. own);
      add acc "window_s" (domains *. (hi -. lo)))
    windows

let pass acc mode goldens t cal ~traced order =
  if traced then begin
    Obs.Trace.start ();
    wake_workers ()
  end;
  let before = if traced then metrics () else [] in
  let windows = ref [] and times = ref [] in
  let suite = ref 0.0 in
  List.iter
    (fun app ->
      Pb_speed.maybe cal ~every:cal_every;
      let s = eval_spec app in
      let d = match mode with Cold -> Some (fresh_cache ()) | Warm -> Cache.clear_memory (); None in
      if traced then begin
        let t0 = now () in
        ignore
          (Obs.Trace.with_span ~name:("perfbench:resolve " ^ app) ~kind:Obs.Trace.Section
             (fun _ -> Request.resolve (Pb_check.request_spec s)));
        add acc "srclang.resolve_s" (now () -. t0)
      end;
      let t0, dt, ok = Pb_check.flow t goldens s in
      times := Printf.sprintf "%s %.4f@%.4f" app dt (List.hd cal.Pb_speed.samples) :: !times;
      (* each cold flow is measured on its own: collect its garbage now
         rather than in whichever flow the seeded order runs next *)
      Option.iter
        (fun d ->
          drop_cache d;
          Gc.full_major ())
        d;
      suite := !suite +. dt;
      if traced then windows := (t0, t0 +. dt) :: !windows
      else begin
        let l = Option.value (Hashtbl.find_opt acc.per_app app) ~default:[] in
        Hashtbl.replace acc.per_app app (dt :: l);
        acc.lat <- dt :: acc.lat;
        acc.busy_s <- acc.busy_s +. dt;
        if ok && dt <= limit_s mode then acc.good <- acc.good + 1
      end)
    order;
  Printf.eprintf "pass%s: %.4f s, calibration %.4f s (%s)\n%!"
    (if traced then " traced" else "")
    !suite (List.hd cal.Pb_speed.samples)
    (String.concat ", " (List.rev !times));
  if traced then begin
    wake_workers ();
    let after = metrics () in
    Obs.Trace.stop ();
    account acc ~before ~after ~windows:!windows;
    acc.traced <- !suite :: acc.traced
  end
  else acc.untraced <- !suite :: acc.untraced

let ratio a b = if b > 0.0 then a /. b else 0.0

let layer_metrics acc t =
  let n = float_of_int (List.length acc.traced) in
  let sum name = Option.value (Hashtbl.find_opt acc.layer name) ~default:0.0 in
  let per name = sum name /. n in
  let hit kind =
    let g f = sum (Printf.sprintf "cache.%s.%s" kind f) in
    ratio (g "mem_hits" +. g "disk_hits") (g "mem_hits" +. g "disk_hits" +. g "misses")
  in
  let all_kinds f =
    List.fold_left (fun a k -> a +. sum (Printf.sprintf "cache.%s.%s" k f)) 0.0
      [ "run"; "task"; "dsept"; "dsefr" ]
    /. n
  in
  let mets = metrics () in
  [
    ("srclang.resolve_s", per "srclang.resolve_s");
    ("flow.task.self_s", per "flow.task.self_s");
    ("flow.analyse_s", per "flow.analyse_s");
    ("flow.fanout_s", per "flow.fanout_s");
    ("flow.assemble_s", per "flow.assemble_s");
    ("flow.retries", per "flow.retries");
    ("flow.task.failures", per "flow.task.failures");
    ("interp.self_s", per "interp.self_s");
    ("interp.runs", per "interp.runs");
    ("interp.steps", per "interp.steps");
    ("interp.steps_per_s", ratio (sum "interp.steps") (sum "interp.self_s"));
    ("interp.vm_coverage", ratio (sum "vm.steps.planned") (sum "interp.steps"));
    ("dse.self_s", per "dse.self_s");
    ("dse.points", per "dse.points");
    ("cache.self_s", per "cache.self_s");
    ("cache.run.hit_ratio", hit "run");
    ("cache.task.hit_ratio", hit "task");
    ("cache.dsept.hit_ratio", hit "dsept");
    ("cache.bytes_read", all_kinds "bytes_read");
    ("cache.bytes_written", all_kinds "bytes_written");
    ("cache.waits", all_kinds "waits");
    ("cache.corrupt", all_kinds "corrupt");
    ("pool.idle_s", per "pool.idle_ns" /. 1e9);
    ("pool.steals", per "pool.steals");
    ("pool.spawned", per "pool.spawned");
    ("pool.queue_depth.max", get mets "pool.queue_depth");
    ("trace.overhead", ratio (Pb_stat.median acc.traced) (Pb_stat.median acc.untraced));
    ("unattributed_share", 1.0 -. ratio (sum "attributed_s") (sum "window_s"));
    ("error_rate", ratio (float_of_int t.Pb_check.failed) (float_of_int t.attempted));
  ]
  |> List.map (fun (n, v) -> (n, v, ""))

let run mode ~seed ~seconds ~trace =
  let t = Pb_check.tally () in
  let cal = Pb_speed.create ~domains:(Util.Pool.default_jobs ()) in
  let (goldens, ord, dir), setup_times, setup_cal =
    Pb_speed.timed_setups cal ~n:(setups mode) ~k:3
      ~setup:(fun () -> setup mode ~seed t)
      ~teardown:(fun (_, _, d) -> Option.iter rm_rf d)
  in
  Cache.set_dir dir;
  (* set-up runs cold flows; peak_rss_mb covers the timed passes only *)
  Gc.full_major ();
  reset_peak_rss ();
  let acc =
    {
      untraced = [];
      traced = [];
      per_app = Hashtbl.create 8;
      lat = [];
      good = 0;
      busy_s = 0.0;
      layer = Hashtbl.create 64;
    }
  in
  Obs.Metrics.reset ();
  let t_start = now () in
  let k = ref 0 in
  while
    now () -. t_start < seconds || acc.untraced = [] || (trace && acc.traced = [])
  do
    let traced = trace && !k mod 2 = 1 in
    pass acc mode goldens t cal ~traced ord.(!k mod Array.length ord);
    incr k
  done;
  Option.iter drop_cache dir;
  let lat = acc.lat in
  let samples app = Option.value (Hashtbl.find_opt acc.per_app app) ~default:[] in
  let time = Pb_speed.adjust cal `Time and rate = Pb_speed.adjust cal `Rate in
  let medians = List.map (fun app -> Pb_stat.median (samples app)) Pb_names.apps in
  let e2e =
    [
      Pb_speed.adjust cal ~cal_s:setup_cal `Time
        ("setup_s", Pb_stat.median setup_times, Printf.sprintf "median of %d set-ups" (setups mode));
      time
        ( "suite_s",
          List.fold_left ( +. ) 0.0 medians,
          Printf.sprintf "sum of the per-app medians, %d passes" (List.length acc.untraced) );
      time ("flow_s.geomean", Pb_stat.geomean medians, "geometric mean of the per-app medians");
      time ("req_latency_s.p50", Pb_stat.median lat, Printf.sprintf "n=%d flows" (List.length lat));
      time
        ( "req_latency_s.p90",
          Pb_stat.percentile lat 90.0,
          match Pb_stat.tail_percentile (List.length lat) with
          | Some p -> Printf.sprintf "n=%d; tail rule gives p%d" (List.length lat) p
          | None -> Printf.sprintf "n=%d; fewer than 11 samples, no tail percentile" (List.length lat) );
      rate
        ( "goodput_rps",
          ratio (float_of_int acc.good) acc.busy_s,
          Printf.sprintf "correct flows within %gs per busy second" (limit_s mode) );
      ("peak_rss_mb", peak_rss_mb 0, "VmHWM of the benchmark process over the timed passes");
    ]
  in
  Pb_speed.report cal;
  let per_app =
    List.map
      (fun app ->
        let l = samples app in
        ("flow_s." ^ app, Pb_stat.median l, Printf.sprintf "median, n=%d untraced" (List.length l)))
      Pb_names.apps
  in
  let layers = if trace then per_app @ layer_metrics acc t else [] in
  (t, e2e, layers)
