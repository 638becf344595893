(* Run ledger and flight recorder: schema round-trip, determinism of the
   stable record fields across --jobs levels, corruption tolerance on
   load, report/diff aggregation, and journal flushing on injected
   faults. *)

let check msg = Alcotest.(check bool) msg

let check_int msg = Alcotest.(check int) msg

let check_str msg = Alcotest.(check string) msg

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "psa-ledger-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let sample_record () =
  {
    Obs.Ledger.r_meta =
      {
        m_git_rev = "abcdef0123456789";
        m_cmdline = "psaflow run nbody --quick \"quoted\"";
        m_jobs = 4;
        m_unix_time = 1754650000.125;
      };
    r_stable =
      {
        s_kind = "run";
        s_app = "nbody";
        s_mode = "informed";
        s_workload = [ ("N", 64); ("STEPS", 1) ];
        s_backend = "vm";
        s_ir_version = 3;
        s_status = 3;
        s_decision = "gpu";
        s_best = Some "HIP 2080Ti";
        s_best_cost = Some 1.25e-7;
        s_designs =
          [
            {
              ds_target = "HIP 2080Ti";
              ds_device = "NVIDIA GeForce RTX 2080 Ti";
              ds_time_s = Some 0.000159;
              ds_speedup = Some 75.625;
              ds_feasible = true;
              ds_valid = true;
            };
            {
              ds_target = "oneAPI S10";
              ds_device = "Intel PAC Stratix 10";
              ds_time_s = None;
              ds_speedup = None;
              ds_feasible = false;
              ds_valid = false;
            };
          ];
        s_failures =
          [
            {
              fs_path = "fpga";
              fs_class = "timeout";
              fs_site = "FPGA/Generate oneAPI Design";
              fs_attempts = 3;
              fs_msg = "interpreter step budget exhausted\n(line two)";
            };
          ];
      };
    r_metrics =
      [
        ("cache.task.mem_hits", 30.0); ("cache.task.misses", 12.0);
        ("flow.retries", 2.0);
        ("flow.task.seconds.count", 34.0); ("flow.task.seconds.p50", 7.4e-05);
      ];
  }

(* ---- schema round-trip ---- *)

let test_roundtrip () =
  let r = sample_record () in
  let json = Obs.Ledger.to_json r in
  match Obs.Ledger.of_json json with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check "record round-trips through its one-line JSON" true (r = r');
    check_str "serialization is deterministic" json (Obs.Ledger.to_json r');
    (* a future schema is rejected, not misread *)
    let bumped =
      Printf.sprintf "{\"schema\":%d,\"meta\":{},\"stable\":{}}"
        (Obs.Ledger.schema_version + 1)
    in
    check "foreign schema version is rejected" true
      (Result.is_error (Obs.Ledger.of_json bumped))

let test_append_load () =
  with_dir @@ fun dir ->
  let r = sample_record () in
  (match Obs.Ledger.append ~dir r with
  | Error e -> Alcotest.fail e
  | Ok path ->
    check "record file is published under the ledger dir" true
      (Sys.file_exists path && Filename.dirname path = dir));
  (match Obs.Ledger.append ~dir r with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let recs, skipped = Obs.Ledger.load ~dir in
  check_int "both records load" 2 (List.length recs);
  check_int "nothing skipped" 0 skipped;
  check_int "count sees both files" 2 (Obs.Ledger.count ~dir);
  List.iter (fun r' -> check "loaded record equals appended" true (r = r')) recs

(* ---- stable fields byte-identical across --jobs ---- *)

let test_stable_across_jobs () =
  let saved_dir = Cache.dir () in
  let saved_jobs = Util.Pool.default_jobs () in
  Cache.set_dir None;
  Fun.protect ~finally:(fun () ->
      Cache.set_dir saved_dir;
      Util.Pool.set_default_jobs saved_jobs)
  @@ fun () ->
  let stable_at jobs =
    Util.Pool.set_default_jobs jobs;
    Cache.clear_memory ();
    match
      Engine.run ~workload:Nbody.app.App.app_test_overrides
        ~mode:Pipeline.Uninformed Nbody.app
    with
    | Error e -> Alcotest.fail e
    | Ok rep ->
      Obs.Ledger.stable_json
        (Run_record.of_report ~cmdline:"fixed" ~status:0 ~mode:Pipeline.Uninformed
           rep)
  in
  let reference = stable_at 1 in
  check "stable fields nonempty" true (String.length reference > 2);
  List.iter
    (fun jobs ->
      check_str
        (Printf.sprintf "stable record fields byte-identical at --jobs %d" jobs)
        reference (stable_at jobs))
    [ 4 ]

(* ---- corrupt / truncated record files are skipped, not fatal ---- *)

let test_corruption_skipped () =
  with_dir @@ fun dir ->
  let r = sample_record () in
  let path1 = Result.get_ok (Obs.Ledger.append ~dir r) in
  let _path2 = Result.get_ok (Obs.Ledger.append ~dir r) in
  let path3 = Result.get_ok (Obs.Ledger.append ~dir r) in
  (* flip one payload byte of the first record *)
  let contents = In_channel.with_open_bin path1 In_channel.input_all in
  let b = Bytes.of_string contents in
  let i = Bytes.length b - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Out_channel.with_open_bin path1 (fun oc -> Out_channel.output_bytes oc b);
  (* truncate the third mid-payload *)
  let contents3 = In_channel.with_open_bin path3 In_channel.input_all in
  Out_channel.with_open_bin path3 (fun oc ->
      Out_channel.output_string oc
        (String.sub contents3 0 (String.length contents3 / 2)));
  (* declared lengths past either end of the file: a reader that trusts
     them raises Invalid_argument("Bytes.create") or runs out of memory *)
  List.iter
    (fun (name, len) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf "psaflow-run v%d %s %s\n{}\n" Obs.Ledger.schema_version
               (Digest.to_hex (Digest.string "{}\n")) len)))
    [ ("r9-negative.psarun", "-1"); ("r9-huge.psarun", "999999999999999") ];
  let before = Obs.Metrics.find "ledger.skipped" in
  let recs, skipped = Obs.Ledger.load ~dir in
  check_int "one intact record survives" 1 (List.length recs);
  check_int "four damaged files skipped" 4 skipped;
  (match (before, Obs.Metrics.find "ledger.skipped") with
  | Some (Obs.Metrics.Count b), Some (Obs.Metrics.Count a) ->
    check_int "ledger.skipped counted the skips" 4 (a - b)
  | _ -> Alcotest.fail "ledger.skipped counter missing");
  (* a foreign-version record file is skipped the same way *)
  let r2, sk2 = Obs.Ledger.load ~dir in
  check "load is repeatable" true (List.length r2 = 1 && sk2 = 4)

(* ---- the checksummed record reader is total ---- *)

(* [record] with the payload length its header declares replaced *)
let with_length record len =
  let eol = String.index record '\n' in
  match String.split_on_char ' ' (String.sub record 0 eol) with
  | [ tag; version; digest; _ ] ->
    String.concat " " [ tag; version; digest; len ]
    ^ String.sub record eol (String.length record - eol)
  | _ -> record

(* Any damage to a valid checksummed record (a truncation, a flipped
   byte, a rewritten length field) reads back as a classified error or
   as the original payload: never an exception, never another payload. *)
type damage =
  | Truncate of int  (** keep this many per mille of the bytes *)
  | Flip of int * int  (** per-mille position, xor mask *)
  | Length of string  (** replacement length field *)
  | Length_off of int  (** the true length plus this *)

let show_damage = function
  | Truncate k -> Printf.sprintf "truncate to %d/1000" k
  | Flip (k, m) -> Printf.sprintf "flip byte at %d/1000 with %#x" k m
  | Length l -> Printf.sprintf "length field %S" l
  | Length_off d -> Printf.sprintf "length field off by %d" d

let prop_checksummed_reader_total =
  let open QCheck.Gen in
  let damage =
    oneof
      [
        map (fun k -> Truncate k) (0 -- 1000);
        map2 (fun k m -> Flip (k, m)) (0 -- 999) (1 -- 255);
        map
          (fun l -> Length l)
          (oneofl
             [
               "-1"; "0"; "999999999999999"; string_of_int max_int;
               "99999999999999999999"; "x"; ""; "0x10"; "1_0";
             ]);
        map (fun d -> Length_off d) (-3 -- 3);
      ]
  in
  QCheck.Test.make ~count:500 ~name:"checksummed reader: damaged records never raise"
    (QCheck.make
       ~print:(fun (payload, d) ->
         Printf.sprintf "%d-byte payload, %s" (String.length payload) (show_damage d))
       (pair (string_size (0 -- 200)) damage))
    (fun (payload, d) ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let path = Filename.concat dir "r.psarun" in
      ignore
        (Result.get_ok (Obs.Atomic_io.write_checksummed ~tag:"t" ~version:1 path payload));
      let record = In_channel.with_open_bin path In_channel.input_all in
      let at k = k * String.length record / 1000 in
      let damaged =
        match d with
        | Truncate k -> String.sub record 0 (at k)
        | Flip (k, m) ->
          let b = Bytes.of_string record in
          let i = at k in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor m));
          Bytes.to_string b
        | Length l -> with_length record l
        | Length_off off ->
          with_length record (string_of_int (String.length payload + off))
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged);
      match Obs.Atomic_io.read_checksummed ~tag:"t" ~version:1 path with
      | Ok p -> p = payload
      | Error _ -> true)

let test_missing_dir_empty () =
  let dir = fresh_dir () in
  let recs, skipped = Obs.Ledger.load ~dir in
  check "missing directory is an empty ledger" true (recs = [] && skipped = 0);
  check_int "count of missing dir" 0 (Obs.Ledger.count ~dir)

(* ---- report / diff / stats over synthetic populations ---- *)

let test_report_empty () =
  let text = Obs.Ledger_report.report ([], 0) in
  check "empty-ledger report is a one-liner, not an error" true
    (text = "ledger: 0 records\n");
  let text = Obs.Ledger_report.report ([], 3) in
  check "skips are reported" true
    (text = "ledger: 0 records (3 skipped: corrupt or foreign version)\n")

let test_report_aggregates () =
  let r = sample_record () in
  let text = Obs.Ledger_report.report ([ r; r ], 0) in
  let has needle = contains ~needle text in
  check "population counted" true (has "ledger: 2 records");
  check "failure taxonomy present" true (has "timeout");
  check "cache hit rate reconstructed" true (has "cache:");
  check "latency percentiles reconstructed" true (has "flow.task.seconds");
  check "report is deterministic" true
    (text = Obs.Ledger_report.report ([ r; r ], 0))

let test_diff_regression () =
  let base = sample_record () in
  let ok =
    {
      base with
      Obs.Ledger.r_stable = { base.Obs.Ledger.r_stable with s_failures = [] };
      r_metrics = [ ("bench.section.runs", 1.0) ];
    }
  in
  (* identical populations: no regression *)
  let _, reg = Obs.Ledger_report.diff ~label_a:"A" ~label_b:"B" ([ ok ], 0) ([ ok ], 0) in
  check "identical ledgers do not regress" false reg;
  (* 2x slower section: regression *)
  let slow = { ok with Obs.Ledger.r_metrics = [ ("bench.section.runs", 2.0) ] } in
  let text, reg =
    Obs.Ledger_report.diff ~label_a:"A" ~label_b:"B" ([ ok ], 0) ([ slow ], 0)
  in
  check "2x slower section regresses" true reg;
  check "verdict line names the regression" true
    (contains ~needle:"verdict: REGRESSION" text);
  (* within tolerance: no regression *)
  let near = { ok with Obs.Ledger.r_metrics = [ ("bench.section.runs", 1.04) ] } in
  let _, reg =
    Obs.Ledger_report.diff ~label_a:"A" ~label_b:"B" ([ ok ], 0) ([ near ], 0)
  in
  check "growth within tolerance passes" false reg;
  (* a failure (class, site) pair absent from A: regression *)
  let failed =
    {
      ok with
      Obs.Ledger.r_stable =
        {
          ok.Obs.Ledger.r_stable with
          s_failures = base.Obs.Ledger.r_stable.s_failures;
        };
    }
  in
  let _, reg =
    Obs.Ledger_report.diff ~label_a:"A" ~label_b:"B" ([ ok ], 0) ([ failed ], 0)
  in
  check "new failure pair regresses" true reg

let test_stats_table () =
  let r = sample_record () in
  let text = Obs.Ledger_report.stats ([ r; r ], 0) in
  let lines = String.split_on_char '\n' text in
  check "stats has header + one (app, mode) row" true (List.length lines >= 3);
  check "row names the app" true
    (List.exists
       (fun l -> String.length l > 5 && String.sub l 0 5 = "nbody")
       lines)

(* ---- flight recorder: events survive to JSONL on faults ---- *)

let test_journal_flush_on_fault () =
  with_dir @@ fun dir ->
  (* start + stop: fresh buffers, tracer off *)
  Obs.Trace.start ();
  Obs.Trace.stop ();
  (match Util.Faultsim.parse "task:journal-test@1,seed=7" with
  | Error e -> Alcotest.fail e
  | Ok spec -> Util.Faultsim.arm spec);
  Fun.protect ~finally:Util.Faultsim.disarm @@ fun () ->
  check "armed fault fires" true
    (Util.Faultsim.fire Util.Faultsim.Task_site ~site:"journal-test");
  let file = Filename.concat dir "fault.journal.jsonl" in
  Unix.mkdir dir 0o755;
  (match Obs.Trace.write_journal file with
  | Error e -> Alcotest.fail e
  | Ok n -> check "journal holds at least the fault event" true (n >= 1));
  let contents = In_channel.with_open_bin file In_channel.input_all in
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
  in
  check "journal flushed as JSONL" true (lines <> []);
  let fault_line =
    List.find_opt
      (fun l ->
        match Obs.Json.parse l with
        | Ok j -> (
          match (Obs.Json.member "kind" j, Obs.Json.member "name" j) with
          | Some (Str "fault"), Some (Str site) -> site = "journal-test"
          | _ -> false)
        | Error _ -> false)
      lines
  in
  check "the injected fault is on the record" true (fault_line <> None)

let test_journal_ring_bounded () =
  Obs.Trace.start ();
  Obs.Trace.stop ();
  for i = 1 to 2000 do
    Obs.Trace.point ~kind:"span" ~detail:"test" (Printf.sprintf "ev%d" i)
  done;
  let evs = Obs.Trace.journal () in
  check "ring keeps a bounded recent window" true
    (List.length evs <= 512 && List.length evs > 0);
  (* the window is the most recent events, in order *)
  match List.rev evs with
  | last :: _ ->
    check_str "last event survives" "ev2000"
      (match Obs.Json.member "name" last with Some (Str s) -> s | _ -> "")
  | [] -> Alcotest.fail "no events"

let suite =
  [
    Alcotest.test_case "record JSON round-trip + version gate" `Quick test_roundtrip;
    Alcotest.test_case "append/load over a directory" `Quick test_append_load;
    Alcotest.test_case "stable fields byte-identical across --jobs" `Slow
      test_stable_across_jobs;
    Alcotest.test_case "corrupt/truncated records skipped, counted" `Quick
      test_corruption_skipped;
    QCheck_alcotest.to_alcotest prop_checksummed_reader_total;
    Alcotest.test_case "missing dir is an empty ledger" `Quick test_missing_dir_empty;
    Alcotest.test_case "report on empty ledger" `Quick test_report_empty;
    Alcotest.test_case "report reconstructs rates and percentiles" `Quick
      test_report_aggregates;
    Alcotest.test_case "diff regression verdicts" `Quick test_diff_regression;
    Alcotest.test_case "stats population table" `Quick test_stats_table;
    Alcotest.test_case "journal captures injected faults to JSONL" `Quick
      test_journal_flush_on_fault;
    Alcotest.test_case "journal ring is bounded" `Quick test_journal_ring_bounded;
  ]
