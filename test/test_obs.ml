(* Tests for lib/obs: the metrics registry (counters, gauges, histogram
   percentiles), the span tracer and flight recorder (nesting/ordering
   under pool parallelism, Chrome-trace JSON validity, the recorder
   window), the JSON codec, and flow provenance determinism (same seed
   => byte-identical --why text). *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* ---- metrics registry ---- *)

let test_counter_and_gauge () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.Counter.set c 0;
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 41;
  checki "counter accumulates" 42 (Obs.Metrics.Counter.value c);
  check "intern returns the same instrument" true
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "test.obs.counter") = 42);
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.Gauge.set g 1.5;
  Obs.Metrics.Gauge.add g 0.25;
  checkf "gauge set+add" 1.75 (Obs.Metrics.Gauge.value g);
  (match Obs.Metrics.find "test.obs.counter" with
   | Some (Obs.Metrics.Count 42) -> ()
   | _ -> Alcotest.fail "snapshot value for counter");
  match Obs.Metrics.find "test.obs.gauge" with
  | Some (Obs.Metrics.Value v) -> checkf "snapshot value for gauge" 1.75 v
  | _ -> Alcotest.fail "snapshot value for gauge"

let test_instrument_class_clash () =
  ignore (Obs.Metrics.counter "test.obs.clash");
  match Obs.Metrics.gauge "test.obs.clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter as a gauge must fail"

let test_histogram_percentiles () =
  let h = Obs.Metrics.histogram "test.obs.hist" in
  (* insert 1..100 in a scrambled but deterministic order *)
  List.iter
    (fun i -> Obs.Metrics.Histogram.observe h (float_of_int ((i * 37 mod 100) + 1)))
    (List.init 100 Fun.id);
  checki "count" 100 (Obs.Metrics.Histogram.count h);
  checkf "sum" 5050.0 (Obs.Metrics.Histogram.sum h);
  (* linear interpolation between order statistics of 1..100 *)
  checkf "p0" 1.0 (Obs.Metrics.Histogram.percentile h 0.0);
  checkf "p50" 50.5 (Obs.Metrics.Histogram.percentile h 50.0);
  checkf "p90" 90.1 (Obs.Metrics.Histogram.percentile h 90.0);
  checkf "p99" 99.01 (Obs.Metrics.Histogram.percentile h 99.0);
  checkf "p100" 100.0 (Obs.Metrics.Histogram.percentile h 100.0);
  match Obs.Metrics.find "test.obs.hist" with
  | Some (Obs.Metrics.Summary { count; min; max; p50; _ }) ->
    checki "summary count" 100 count;
    checkf "summary min" 1.0 min;
    checkf "summary max" 100.0 max;
    checkf "summary p50" 50.5 p50
  | _ -> Alcotest.fail "snapshot value for histogram"

let test_histogram_empty_and_single () =
  let h = Obs.Metrics.histogram "test.obs.hist1" in
  check "empty percentile is nan" true
    (Float.is_nan (Obs.Metrics.Histogram.percentile h 50.0));
  Obs.Metrics.Histogram.observe h 7.0;
  checkf "single-value p50" 7.0 (Obs.Metrics.Histogram.percentile h 50.0);
  checkf "single-value p99" 7.0 (Obs.Metrics.Histogram.percentile h 99.0)

(* ---- span tracer ---- *)

let export_string () =
  let buf = Buffer.create 4096 in
  Obs.Trace.export_json buf;
  Buffer.contents buf

let test_disabled_tracing_is_transparent () =
  check "disabled by default here" false (Obs.Trace.enabled ());
  let r =
    Obs.Trace.with_span ~name:"ignored" ~kind:Obs.Trace.Section (fun sp ->
        Obs.Trace.add_attr sp "k" (Obs.Trace.Int 1);
        7)
  in
  checki "body result passes through" 7 r

let test_span_nesting_single_domain () =
  Obs.Trace.start ();
  Obs.Trace.with_span ~name:"outer" ~kind:Obs.Trace.Flow (fun _ ->
      Obs.Trace.with_span ~name:"inner" ~kind:Obs.Trace.Task (fun _ -> ()));
  Obs.Trace.stop ();
  match Obs.Trace.events () with
  | [ b_outer; b_inner; e_inner; e_outer ] ->
    checks "outer opens first" "outer" b_outer.Obs.Trace.ev_name;
    check "outer B" true (b_outer.Obs.Trace.ev_ph = `B);
    checks "inner nests inside" "inner" b_inner.Obs.Trace.ev_name;
    check "inner closes before outer" true
      (e_inner.Obs.Trace.ev_ph = `E
      && e_inner.Obs.Trace.ev_name = "inner"
      && e_outer.Obs.Trace.ev_ph = `E
      && e_outer.Obs.Trace.ev_name = "outer");
    check "timestamps non-decreasing" true
      (b_outer.Obs.Trace.ev_ts <= b_inner.Obs.Trace.ev_ts
      && b_inner.Obs.Trace.ev_ts <= e_inner.Obs.Trace.ev_ts
      && e_inner.Obs.Trace.ev_ts <= e_outer.Obs.Trace.ev_ts)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_spans_under_pool_parallelism () =
  let saved = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs 4;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Obs.Trace.start ();
  let items = List.init 16 Fun.id in
  let out =
    Obs.Trace.with_span ~name:"fanout" ~kind:Obs.Trace.Flow (fun _ ->
        Util.Pool.map
          (fun i ->
            Obs.Trace.with_span ~name:(Printf.sprintf "item-%d" i)
              ~kind:Obs.Trace.Task (fun sp ->
                Obs.Trace.add_attr sp "i" (Obs.Trace.Int i);
                i * i))
          items)
  in
  Obs.Trace.stop ();
  checki "map result intact" 16 (List.length out);
  check "map order intact" true (out = List.map (fun i -> i * i) items);
  (* every domain track in the merged stream must be balanced with
     non-decreasing timestamps; the validator checks both *)
  match Obs.Trace_json.validate_string (export_string ()) with
  | Error e -> Alcotest.failf "parallel trace invalid: %s" e
  | Ok su ->
    (* 16 item spans (one per work item, wrapped in pool spans when the
       pool actually fans out) + the fanout span *)
    checki "task spans" 16
      (try List.assoc "task" su.Obs.Trace_json.su_cats with Not_found -> 0);
    checki "flow spans" 1
      (try List.assoc "flow" su.Obs.Trace_json.su_cats with Not_found -> 0);
    check "at least one domain track" true
      (List.length su.Obs.Trace_json.su_tids >= 1)

let test_trace_json_valid_and_restart_clears () =
  Obs.Trace.start ();
  Obs.Trace.with_span ~name:"a" ~kind:Obs.Trace.Section (fun _ -> ());
  Obs.Trace.stop ();
  (match Obs.Trace_json.validate_string (export_string ()) with
   | Ok su -> checki "one span = two events" 2 su.Obs.Trace_json.su_events
   | Error e -> Alcotest.failf "trace invalid: %s" e);
  (* start () discards the previous recording *)
  Obs.Trace.start ();
  Obs.Trace.stop ();
  checki "restart clears spans" 0 (List.length (Obs.Trace.events ()))

let test_validator_rejects_malformed () =
  (match Obs.Trace_json.validate_string "{ not json" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "parser must reject malformed input");
  let unbalanced =
    {|{"traceEvents":[{"ph":"B","name":"x","cat":"task","pid":1,"tid":0,"ts":1.0}]}|}
  in
  match Obs.Trace_json.validate_string unbalanced with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validator must reject an unclosed span"

let test_interp_run_observers () =
  (* each interp-run span names its run's observer set beside the
     backend and statement counts, so observed runs show in a trace *)
  let p = Parser.parse_program "void knl() { } int main() { knl(); return 0; }" in
  Obs.Trace.start ();
  ignore (Machine.run ~backend:`Vm p);
  ignore (Machine.run ~config:(Memo.analysis_config ~kernel:"knl" ()) ~backend:`Vm p);
  Obs.Trace.stop ();
  let runs =
    List.filter
      (fun (ev : Obs.Trace.event) ->
        ev.Obs.Trace.ev_ph = `B && ev.Obs.Trace.ev_name = "interp-run")
      (Obs.Trace.events ())
  in
  let observers (ev : Obs.Trace.event) =
    List.filter_map
      (fun k -> List.assoc_opt k ev.Obs.Trace.ev_attrs)
      [ "backend"; "profile_loops"; "trace_aliases"; "regions"; "steps"; "planned" ]
  in
  match runs with
  | [ plain; observed ] ->
    check "plain run's observers" true
      (match observers plain with
       | [ Str "vm"; Bool false; Bool false; Int 0; Int _; Int _ ] -> true
       | _ -> false);
    check "observed run's observers" true
      (match observers observed with
       | [ Str "vm"; Bool true; Bool true; Int 1; Int _; Int _ ] -> true
       | _ -> false)
  | _ -> Alcotest.failf "expected 2 interp-run spans, got %d" (List.length runs)

let test_recorder_window_while_armed () =
  Obs.Trace.start ();
  for i = 1 to 2000 do
    Obs.Trace.with_span ~name:(Printf.sprintf "s%d" i) ~kind:Obs.Trace.Section ignore
  done;
  Obs.Trace.stop ();
  checki "the tracer keeps every span" 4000 (List.length (Obs.Trace.events ()));
  let tid = Obs.Json.int (Domain.self () :> int) in
  let names =
    List.filter_map
      (fun j ->
        match (Obs.Json.member "tid" j, Obs.Json.member "name" j) with
        | Some t, Some (Str n) when t = tid -> Some n
        | _ -> None)
      (Obs.Trace.journal ())
  in
  checki "the recorder keeps the newest 512" 512 (List.length names);
  checks "oldest survivor" "s1489" (List.hd names);
  checks "newest record" "s2000" (List.nth names 511)

let test_point_events_journal_only () =
  Obs.Trace.start ();
  Obs.Trace.with_span ~name:"outer" ~kind:Obs.Trace.Task (fun _ ->
      Obs.Trace.point ~kind:"retry" ~detail:"task-failed" "site-a");
  Obs.Trace.stop ();
  let kinds =
    List.filter_map
      (fun j ->
        match (Obs.Json.member "kind" j, Obs.Json.member "name" j) with
        | Some (Str k), Some (Str n) -> Some (k, n)
        | _ -> None)
      (Obs.Trace.journal ())
  in
  check "journal: point event, then the span" true
    (kinds = [ ("retry", "site-a"); ("span", "outer") ]);
  check "the export holds the span only" true
    (List.for_all
       (fun (ev : Obs.Trace.event) -> ev.Obs.Trace.ev_name = "outer")
       (Obs.Trace.events ()));
  match Obs.Trace_json.validate_string (export_string ()) with
  | Ok su -> checki "one span = two events" 2 su.Obs.Trace_json.su_events
  | Error e -> Alcotest.failf "trace invalid: %s" e

(* ---- JSON codec ---- *)

let json_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 8) in
  let num =
    oneof
      [
        (* integral, either sign, past 1e15 *)
        map float_of_int int;
        (* any magnitude down to subnormals *)
        map2 ldexp (float_range (-1.0) 1.0) (int_range (-1074) 1023);
        (* timestamps rounded to three decimals *)
        map (fun f -> Float.round (f *. 1e3) /. 1e3) (float_range (-1e12) 1e12);
      ]
  in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) num;
        map (fun s -> Obs.Json.Str s) bytes;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Obs.Json.List l) (list_size (0 -- 4) (self (depth - 1))));
            ( 1,
              map
                (fun l -> Obs.Json.Obj l)
                (list_size (0 -- 4) (pair bytes (self (depth - 1)))) );
          ])
    3

let prop_json_round_trip =
  QCheck.Test.make ~name:"json: parse inverts to_string" ~count:500
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun v -> Obs.Json.parse (Obs.Json.to_string v) = Ok v)

let test_json_printer () =
  checks "compact, in member order, raw bytes kept"
    "{\"b\":[1,-2.5,true,null],\"a\\\\\":\"x\\\"y\\n\\u0001\255\"}"
    (Obs.Json.to_string
       (Obj
          [
            ("b", List [ Num 1.0; Num (-2.5); Bool true; Null ]);
            ("a\\", Str "x\"y\n\001\255");
          ]));
  checks "non-finite numbers print as null" "[null,null,null]"
    (Obs.Json.to_string
       (List [ Num Float.nan; Num Float.infinity; Num Float.neg_infinity ]));
  checks "shortest round-trip forms" "[0.1,1e+15,123456.789,0.30000000000000004]"
    (Obs.Json.to_string (List [ Num 0.1; Num 1e15; Num 123456.789; Num (0.1 +. 0.2) ]))

let test_json_unicode_escapes () =
  let str text =
    match Obs.Json.parse text with Ok (Str s) -> Some s | _ -> None
  in
  check "escapes decode to UTF-8, surrogate pairs joined" true
    (str {|"\u00e9 \ud83d\ude00 \u0041\u20ac"|}
    = Some "\xc3\xa9 \xf0\x9f\x98\x80 A\xe2\x82\xac");
  List.iter
    (fun (what, text) -> check what true (str text = None))
    [
      ("lone high surrogate", {|"\ud83d"|});
      ("high surrogate before a non-surrogate", {|"\ud83d\u0041"|});
      ("lone low surrogate", {|"\ude00"|});
      ("non-hex digit", {|"\u12g4"|});
      ("truncated escape", {|"\u12"|});
    ]

(* ---- provenance determinism ---- *)

let why_of_run app =
  match
    Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
  with
  | Ok rep -> Report.why_text rep
  | Error e -> Alcotest.fail e

let test_why_deterministic () =
  (* --why must not depend on run-to-run state (timings, domain
     scheduling): with the cache off, two runs of the same flow render
     byte-identical provenance, sequentially and under --jobs 4 *)
  Cache.set_dir None;
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs 1;
  let seq1 = why_of_run Nbody.app in
  let seq2 = why_of_run Nbody.app in
  checks "same seed, same --why" seq1 seq2;
  Util.Pool.set_default_jobs 4;
  let par = why_of_run Nbody.app in
  checks "--jobs 4 renders the same --why" seq1 par;
  check "trail mentions the branch decision" true
    (String.length seq1 > 0
    &&
    let has_sub sub =
      let n = String.length seq1 and m = String.length sub in
      let rec go i = i + m <= n && (String.sub seq1 i m = sub || go (i + 1)) in
      go 0
    in
    has_sub "branch" && has_sub "uncached")

let suite =
  [
    Alcotest.test_case "metrics: counter + gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "metrics: class clash rejected" `Quick
      test_instrument_class_clash;
    Alcotest.test_case "metrics: histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "metrics: histogram edge cases" `Quick
      test_histogram_empty_and_single;
    Alcotest.test_case "trace: disabled is transparent" `Quick
      test_disabled_tracing_is_transparent;
    Alcotest.test_case "trace: span nesting" `Quick test_span_nesting_single_domain;
    Alcotest.test_case "trace: spans under pool parallelism" `Quick
      test_spans_under_pool_parallelism;
    Alcotest.test_case "trace: JSON valid, restart clears" `Quick
      test_trace_json_valid_and_restart_clears;
    Alcotest.test_case "trace: validator rejects malformed" `Quick
      test_validator_rejects_malformed;
    Alcotest.test_case "trace: interp-run spans name their observers" `Quick
      test_interp_run_observers;
    Alcotest.test_case "trace: armed, the recorder keeps the newest 512" `Quick
      test_recorder_window_while_armed;
    Alcotest.test_case "trace: point events reach the journal only" `Quick
      test_point_events_journal_only;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    Alcotest.test_case "json: compact printer, one number format" `Quick
      test_json_printer;
    Alcotest.test_case "json: \\u escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "provenance: --why deterministic" `Quick
      test_why_deterministic;
  ]
