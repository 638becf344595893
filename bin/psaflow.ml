(* psaflow - end-to-end design automation CLI.

   Runs the implemented PSA-flow (Fig. 4) on the benchmark suite: informed
   mode lets the Fig. 3 strategy pick one target, uninformed mode generates
   every design.  Also regenerates the paper's evaluation artifacts
   (Fig. 5, Table I, Fig. 6) and prints the task repository. *)

open Cmdliner

let mode_conv =
  Arg.enum [ ("informed", Pipeline.Informed); ("uninformed", Pipeline.Uninformed) ]

let app_arg =
  let doc =
    "Benchmark to run (nbody, kmeans, adpredictor, rush_larsen, bezier), or a \
     path to a mini-C++ source file when --file is given."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let file_arg =
  let doc = "Treat APP as a path to a mini-C++ source file and run the flow on it." in
  Arg.(value & flag & info [ "file"; "f" ] ~doc)

let scale_arg =
  let doc =
    "Outer-trip extrapolation factor for --file programs (default 1; values \
     below 1 count as 1)."
  in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let mode_arg =
  let doc = "Branch-point A strategy: informed (Fig. 3 PSA) or uninformed (all paths)." in
  Arg.(value & opt mode_conv Pipeline.Uninformed & info [ "mode"; "m" ] ~doc)

let quick_arg =
  let doc = "Use the small test workload instead of the evaluation workload." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let explain_arg =
  let doc = "Print the PSA decision trail and the task log." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let emit_arg =
  let doc = "Write the generated design sources into $(docv)." in
  Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"DIR" ~doc)

let diff_arg =
  let doc = "Print a unified diff of each generated design against the reference source." in
  Arg.(value & flag & info [ "diff" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains used for parallel flow execution (branch fan-out, \
     suite runs, DSE sweeps). Defaults to the recommended domain count; \
     $(b,--jobs 1) forces the fully sequential reference semantics."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let interp_arg =
  let doc =
    "Interpreter backend: $(b,vm) (default; superinstruction VM over the \
     typed flat IR, hosted by the tree walker) or $(b,ast) (reference tree \
     walker alone). Both produce bit-identical results; the walker exists \
     as the semantic oracle and for debugging."
  in
  let backend_conv = Arg.enum [ ("ast", `Ast); ("vm", `Vm) ] in
  Arg.(value & opt (some backend_conv) None & info [ "interp" ] ~docv:"BACKEND" ~doc)

let trace_arg =
  let doc =
    "Record a span trace of the whole command (flow phases, tasks, branch \
     fan-out, DSE points, interpreter runs, cache lookups, pool tasks) and \
     write it to $(docv) as Chrome trace-event JSON; open it in Perfetto or \
     chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let why_arg =
  let doc =
    "Print each design's provenance: the ordered tasks, \
     branch decisions with the analysis facts that justified them, and DSE \
     sweeps with their explored point counts."
  in
  Arg.(value & flag & info [ "why" ] ~doc)

let cache_arg =
  let doc =
    "Directory of the persistent evaluation cache (interpreter runs are \
     content-addressed and replayed on warm runs), or $(b,off) to disable \
     caching entirely. Default $(b,.psa-cache)."
  in
  Arg.(value & opt string ".psa-cache" & info [ "cache" ] ~docv:"DIR|off" ~doc)

let strict_arg =
  let doc =
    "Fail fast: the first task failure aborts the whole run (exit 1) instead \
     of pruning that branch path and continuing with the surviving designs."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let faults_arg =
  let doc =
    "Arm the deterministic fault-injection harness with $(docv): \
     comma-separated rules $(b,task:SITE), $(b,cache:KIND) or \
     $(b,pool:worker), each optionally suffixed $(b,@N) (fire only on the \
     N-th matching occurrence) and/or $(b,%P) (fire with probability P, \
     seeded), plus $(b,seed=N). Task sites are $(i,SCOPE/NAME) as printed \
     by $(b,psaflow tasks), matched by substring. Example: $(b,--faults \
     'task:FPGA/Generate oneAPI Design@1,seed=7')."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let ledger_arg =
  let doc =
    "Directory of the persistent run ledger: every $(b,psaflow run) appends \
     one structured record (spec, decision, designs, failures, metrics \
     snapshot) for later $(b,psaflow report)/$(b,diff)/$(b,stats) analysis, \
     or $(b,off) to disable. Default $(b,.psa-runs)."
  in
  Arg.(value & opt string ".psa-runs" & info [ "ledger" ] ~docv:"DIR|off" ~doc)

let journal_arg =
  let doc =
    "Flush the always-on flight-recorder journal (a bounded per-domain ring \
     of recent span/retry/fault events) to $(docv) as JSONL when the command \
     finishes. Without this flag the journal is written only when a run \
     fails (next to its ledger record)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let apply_cache = function
  | "off" -> Cache.set_dir None
  | dir -> Cache.set_dir (Some dir)

let ledger_dir = function "off" -> None | dir -> Some dir

let cmdline () = String.concat " " (Array.to_list Sys.argv)

(* A ledger failure never fails the run it observes. *)
let append_record ledger record =
  match ledger with
  | None -> None
  | Some dir -> (
    match Obs.Ledger.append ~dir record with
    | Ok path -> Some path
    | Error msg ->
      Printf.eprintf "warning: ledger append failed: %s\n" msg;
      None)

(* Journal policy: --journal always flushes; a failed run additionally
   preserves the flight recorder next to its ledger record, so the
   events leading up to the failure survive the process. *)
let finish_journal ~journal ~status ~rec_path =
  (match journal with
  | None -> ()
  | Some file -> (
    match Obs.Trace.write_journal file with
    | Ok n -> Printf.printf "wrote journal %s (%d events)\n" file n
    | Error msg -> Printf.eprintf "failed to write journal %s: %s\n" file msg));
  match rec_path with
  | Some p when status <> 0 && journal = None ->
    let jf = Filename.chop_suffix p ".psarun" ^ ".journal.jsonl" in
    (match Obs.Trace.write_journal jf with
    | Ok n -> Printf.eprintf "flight recorder: %s (%d events)\n" jf n
    | Error msg -> Printf.eprintf "failed to write journal %s: %s\n" jf msg)
  | _ -> ()

let apply_faults = function
  | None -> Ok ()
  | Some spec -> (
    match Util.Faultsim.parse spec with
    | Ok s ->
      Util.Faultsim.arm s;
      Ok ()
    | Error msg -> Error msg)

let apply_jobs = function Some n -> Util.Pool.set_default_jobs n | None -> ()

(* Tracing wraps the whole command so the exported file covers every
   span the run produced; a failed write turns success into failure. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
    Obs.Trace.start ();
    let code = Fun.protect ~finally:Obs.Trace.stop f in
    (match Obs.Trace.write_file file with
     | Ok () ->
       Printf.printf "wrote trace %s\n" file;
       code
     | Error msg ->
       Printf.eprintf "failed to write trace %s: %s\n" file msg;
       max code 1)

let apply_interp = function
  | Some b -> Machine.set_default_backend b
  | None -> ()

(* The VM's step coverage, from the counts the metrics block prints
   (the task log's first line already names the backend).  No wall-clock
   figure appears: --explain is byte-identical at any --jobs level and
   across reruns, and throughput is measured by [bench/main.exe interp]
   instead. *)
let print_vm_coverage () =
  let count name = Obs.Metrics.Counter.value (Obs.Metrics.counter name) in
  let steps = count "interp.steps" in
  if Machine.default_backend () = `Vm && steps > 0 then
    Printf.printf "\nvm coverage: %.3f of interpreted statements planned\n"
      (float_of_int (count "vm.steps.planned") /. float_of_int steps)

(* Per-loop plan outcomes for --explain: what the lowering pass decided for
   every for statement in the app, plus any loops whose plan bailed back to
   the walker at runtime.  Both sources are deterministic sets in
   program order, so the output is byte-identical at any --jobs. *)
let print_vm_plan app =
  let report = Ir_lower.plan_report (App.program app) in
  if report <> [] then begin
    let bails = Machine.plan_bail_sites () in
    Printf.printf "\nvm loop plans:\n";
    List.iter
      (fun (loc, outcome) ->
        let reasons =
          List.filter_map
            (fun (l, r) -> if l = loc then Some r else None)
            bails
        in
        let status =
          match (outcome : Ir_lower.outcome) with
          | Unplannable reason -> Printf.sprintf "unplannable: %s" reason
          | Planned { levels; sites } ->
            let shape =
              Printf.sprintf "%d level%s, %d site%s" levels
                (if levels = 1 then "" else "s")
                sites
                (if sites = 1 then "" else "s")
            in
            (match reasons with
             | [] -> Printf.sprintf "planned (%s)" shape
             | rs ->
               Printf.sprintf "planned (%s), bailed: %s" shape
                 (String.concat ", " rs))
        in
        Printf.printf "  %-32s %s\n" (Loc.to_string loc) status)
      report
  end

(* Scheduling and wall-clock telemetry (pool.* steal/idle/queue
   instruments, *.seconds timings, single-flight waits) varies with
   work-stealing order and machine speed, so printing it would break
   the guarantee that --explain output is byte-identical at any --jobs
   level.  The shared Obs.Metrics.jobs_invariant predicate decides;
   bench --json and ledger records still carry everything. *)
let print_metrics () =
  let metrics =
    List.filter
      (fun (name, _) -> Obs.Metrics.jobs_invariant name)
      (Obs.Metrics.snapshot ())
  in
  if metrics <> [] then begin
    Printf.printf "\nmetrics:\n";
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Count n -> if n <> 0 then Printf.printf "  %-28s %d\n" name n
        | Obs.Metrics.Value f ->
          if f <> 0.0 then Printf.printf "  %-28s %.4g\n" name f
        | Obs.Metrics.Summary { count; sum; p50; p90; p99; _ } ->
          if count > 0 then
            Printf.printf "  %-28s n=%d sum=%.4g p50=%.4g p90=%.4g p99=%.4g\n" name
              count sum p50 p90 p99)
      metrics
  end

let print_cache_dir () =
  match Cache.dir () with
  | None -> Printf.printf "\ncache disabled\n"
  | Some dir -> Printf.printf "\nevaluation cache: %s\n" dir

(* The flow's source: a suite slug, or with --file a mini-C++ file,
   resolved by [Request] exactly as the daemon resolves inline sources. *)
let source_of ~file ~scale arg =
  if not file then Ok (Request.Builtin arg)
  else
    match In_channel.with_open_bin arg In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | text ->
      let name = Filename.remove_extension (Filename.basename arg) in
      Ok (Request.Inline { name; text; scale })

let resolve ?(file = false) ?(scale = 1) ~mode ~quick arg =
  Result.bind (source_of ~file ~scale arg) (fun sp_source ->
      Request.resolve
        {
          Request.sp_source;
          sp_mode = mode;
          sp_quick = quick;
          sp_step_budget = None;
          sp_jobs_hint = None;
        })

let emit_designs dir (rep : Engine.report) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (d : Design.t) ->
      let file =
        Printf.sprintf "%s/%s_%s.cpp" dir rep.Engine.rep_app.App.app_slug
          (String.map
             (function ' ' -> '_' | c -> c)
             (String.lowercase_ascii (Target.short d.Design.d_target)))
      in
      (* temp file + atomic rename: an interrupted run never leaves a
         half-written source under the requested name *)
      match
        Obs.Atomic_io.write_file file (Pretty.program_to_string d.Design.d_program)
      with
      | Ok () -> Printf.printf "wrote %s\n" file
      | Error msg -> Printf.eprintf "failed to write %s: %s\n" file msg)
    rep.Engine.rep_designs

let run_cmd =
  let run slug file scale mode quick explain why emit diff jobs interp cache
      strict faults trace ledger journal =
    apply_jobs jobs;
    apply_interp interp;
    apply_cache cache;
    let ledger = ledger_dir ledger in
    let cmdline = cmdline () in
    (* a run that never reaches the engine still leaves a ledger trace *)
    let record_failure ~app ~workload ~msg =
      let status = 1 in
      let rec_path =
        append_record ledger
          (Run_record.of_failure ~cmdline ~status ~app
             ~mode:(Pipeline.mode_name mode) ~workload msg)
      in
      finish_journal ~journal ~status ~rec_path;
      status
    in
    match apply_faults faults with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok () -> (
      with_trace trace @@ fun () ->
      match resolve ~file ~scale ~mode ~quick slug with
      | Error msg ->
        prerr_endline msg;
        record_failure ~app:slug ~workload:[] ~msg
      | Ok (app, workload) ->
        (match Engine.run ~workload ~strict ~mode app with
         | Error msg ->
           Printf.eprintf "flow failed: %s\n" msg;
           record_failure ~app:app.App.app_slug ~workload ~msg
         | Ok rep ->
           let status = Request.status_of_report rep in
           (* append before printing: the --explain footer counts this
              run's record too, and printing can no longer change what
              the flow recorded *)
           let rec_path =
             append_record ledger (Run_record.of_report ~cmdline ~status ~mode rep)
           in
           (* the same bytes psaflowd serves for this spec (serve-check
              compares them) *)
           print_string (Report.run_text rep);
           if why then begin
             print_newline ();
             print_string (Report.why_text rep)
           end;
           if explain then begin
             print_newline ();
             print_string (Report.log_text rep);
             print_vm_coverage ();
             print_vm_plan app;
             print_cache_dir ();
             print_metrics ();
             (* population size only: counts are a property of the ledger
                directory, not of this run's scheduling *)
             match ledger with
             | Some dir ->
               Printf.printf "\nledger: %s (%d records)\n" dir
                 (Obs.Ledger.count ~dir)
             | None -> ()
           end;
           (match emit with Some dir -> emit_designs dir rep | None -> ());
           if diff then begin
             let reference = Pretty.program_to_string (App.program app) in
             List.iter
               (fun (d : Design.t) ->
                 Printf.printf "\n--- reference\n+++ %s\n%s"
                   (Design.label d)
                   (Util.Diff.unified ~old_text:reference
                      (Pretty.program_to_string d.Design.d_program)))
               rep.Engine.rep_designs
           end;
           finish_journal ~journal ~status ~rec_path;
           status))
  in
  let doc =
    "Run the PSA-flow on one benchmark (or, with --file, on any mini-C++ \
     source) and print the evaluated designs."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"the flow failed outright (or $(b,--strict) aborted it)."
    :: Cmd.Exit.info 2 ~doc:"invalid $(b,--faults) specification."
    :: Cmd.Exit.info Request.exit_partial
         ~doc:
           "partial success: task failures pruned some branch paths, but at \
            least one design was produced."
    :: Cmd.Exit.info Request.exit_none
         ~doc:"total failure: every branch path was pruned; no design survived."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(const run $ app_arg $ file_arg $ scale_arg $ mode_arg $ quick_arg
          $ explain_arg $ why_arg $ emit_arg $ diff_arg $ jobs_arg $ interp_arg
          $ cache_arg $ strict_arg $ faults_arg $ trace_arg $ ledger_arg
          $ journal_arg)

let apps_cmd =
  let run () =
    List.iter
      (fun (a : App.t) ->
        Printf.printf "%-12s %-28s %s\n" a.app_slug a.app_name a.app_descr)
      Suite.all;
    0
  in
  let doc = "List the benchmark applications." in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const run $ const ())

let tasks_cmd =
  let run () =
    let table = Util.Table.create ~headers:[ "scope"; "task"; "kind"; "dynamic" ] in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (t : Task.t) ->
        (* tasks shared by several device paths appear once *)
        let key = (Task.scope_label t.Task.scope, t.Task.name) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          Util.Table.add_row table
            [
              Task.scope_label t.Task.scope;
              t.Task.name;
              Task.kind_letter t.Task.kind;
              (if t.Task.dynamic then "yes" else "");
            ]
        end)
      Pipeline.repository;
    Util.Table.print table;
    0
  in
  let doc = "Print the repository of codified design-flow tasks (Fig. 4)." in
  Cmd.v (Cmd.info "tasks" ~doc) Term.(const run $ const ())

let with_reports quick f =
  let reports = Runs.ok_reports (Runs.collect ~quick ()) in
  if reports = [] then begin
    prerr_endline "no successful flow runs";
    1
  end
  else begin
    f reports;
    0
  end

let fig5_cmd =
  let run quick jobs interp cache trace =
    apply_jobs jobs;
    apply_interp interp;
    apply_cache cache;
    with_trace trace (fun () ->
        with_reports quick (fun reports ->
            print_string (Fig5.render (Fig5.of_reports reports))))
  in
  let doc = "Regenerate Fig. 5 (speedups of all generated designs)." in
  Cmd.v (Cmd.info "fig5" ~doc)
    Term.(const run $ quick_arg $ jobs_arg $ interp_arg $ cache_arg $ trace_arg)

let table1_cmd =
  let run quick jobs interp cache trace =
    apply_jobs jobs;
    apply_interp interp;
    apply_cache cache;
    with_trace trace (fun () ->
        with_reports quick (fun reports ->
            print_string (Table1.render (Table1.of_reports reports))))
  in
  let doc = "Regenerate Table I (added lines of code per design)." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const run $ quick_arg $ jobs_arg $ interp_arg $ cache_arg $ trace_arg)

let fig6_cmd =
  let run quick jobs interp cache trace =
    apply_jobs jobs;
    apply_interp interp;
    apply_cache cache;
    with_trace trace (fun () ->
        with_reports quick (fun reports ->
            print_string (Fig6.render (Fig6.of_reports reports))))
  in
  let doc = "Regenerate Fig. 6 (FPGA vs GPU cost across price ratios)." in
  Cmd.v (Cmd.info "fig6" ~doc)
    Term.(const run $ quick_arg $ jobs_arg $ interp_arg $ cache_arg $ trace_arg)

let dot_cmd =
  let run mode =
    print_string (Graph.to_dot ~name:"psaflow" (Pipeline.full_flow mode));
    0
  in
  let doc = "Print the implemented PSA-flow as a Graphviz digraph (Fig. 4)." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ mode_arg)

let budget_cmd =
  let run slug budget quick jobs interp cache trace =
    apply_jobs jobs;
    apply_interp interp;
    apply_cache cache;
    with_trace trace @@ fun () ->
    match resolve ~mode:Pipeline.Informed ~quick slug with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (app, workload) ->
      (match Engine.run_budgeted ~workload ~budget app with
       | Error msg ->
         Printf.eprintf "flow failed: %s\n" msg;
         1
       | Ok br ->
         Printf.printf "%s under a budget of $%g per run\n\n" app.App.app_name budget;
         List.iter
           (fun (a : Engine.attempt) ->
             Printf.printf "  tried %-5s -> %s\n" a.Engine.at_branch
               (match a.Engine.at_design, a.Engine.at_cost with
                | Some d, Some c ->
                  Printf.sprintf "%s, %.3g s, $%.3g%s"
                    (Target.short d.Design.d_target)
                    (Option.value d.Design.d_time_s ~default:Float.nan)
                    c
                    (if a.Engine.at_within then " (within budget)" else " (over budget)")
                | _, _ -> "no feasible design"))
           br.Engine.br_attempts;
         (match br.Engine.br_accepted with
          | Some { Engine.at_design = Some d; _ } ->
            Printf.printf "\naccepted: %s%s\n" (Design.label d)
              (if br.Engine.br_within_budget then ""
               else " - nothing fits the budget; cheapest design reported")
          | _ -> print_endline "\nno design could be produced");
         0)
  in
  let budget_arg =
    let doc = "Budget in USD per execution of the hotspot." in
    Arg.(required & pos 1 (some float) None & info [] ~docv:"USD" ~doc)
  in
  let doc = "Run the informed flow under a monetary budget (Fig. 3's cost feedback)." in
  Cmd.v (Cmd.info "budget" ~doc)
    Term.(
      const run $ app_arg $ budget_arg $ quick_arg $ jobs_arg $ interp_arg
      $ cache_arg $ trace_arg)

(* ---- ledger analysis: report | diff | stats ---- *)

let ledger_pos n name =
  let doc = Printf.sprintf "%s: a ledger directory or a single record file." name in
  Arg.(value & pos n string ".psa-runs" & info [] ~docv:"LEDGER" ~doc)

let warn_skipped skipped =
  if skipped > 0 then
    Printf.eprintf "warning: skipped %d unreadable record file%s\n" skipped
      (if skipped = 1 then "" else "s")

let report_cmd =
  let run path =
    match Obs.Ledger.load_path path with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok ((_, skipped) as pop) ->
      warn_skipped skipped;
      print_string (Obs.Ledger_report.report pop);
      0
  in
  let doc =
    "Aggregate a run ledger: population by kind/app/status, failure \
     taxonomy, cache hit rates, latency percentiles, interpreter \
     throughput and mean section timings — reconstructed purely from \
     persisted records, nothing rerun."
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ ledger_pos 0 "Ledger")

let tol_arg =
  let doc =
    "Relative growth tolerance for mean section times (a 0.05 s absolute \
     noise floor always applies)."
  in
  Arg.(value & opt float 0.20 & info [ "tol" ] ~docv:"FRACTION" ~doc)

let diff_ledger_cmd =
  let run a b tol =
    match (Obs.Ledger.load_path a, Obs.Ledger.load_path b) with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      2
    | Ok pa, Ok pb ->
      warn_skipped (snd pa);
      warn_skipped (snd pb);
      let text, regression =
        Obs.Ledger_report.diff ~tol ~label_a:a ~label_b:b pa pb
      in
      print_string text;
      if regression then 1 else 0
  in
  let doc =
    "Compare two ledgers (B against baseline A): per-metric deltas with \
     thresholds and a regression verdict. Exits 1 on regression — wire it \
     into CI."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"B regresses against A."
    :: Cmd.Exit.info 2 ~doc:"a ledger could not be read."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "diff" ~doc ~exits)
    Term.(const run $ ledger_pos 0 "Baseline A" $ ledger_pos 1 "Candidate B" $ tol_arg)

let stats_cmd =
  let run path =
    match Obs.Ledger.load_path path with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok ((_, skipped) as pop) ->
      warn_skipped skipped;
      print_string (Obs.Ledger_report.stats pop);
      0
  in
  let doc = "Per-(app, mode) population table over a run ledger." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ ledger_pos 0 "Ledger")

let main =
  let doc = "auto-generating diverse heterogeneous designs (PSA-flows)" in
  Cmd.group (Cmd.info "psaflow" ~doc)
    [ run_cmd; apps_cmd; tasks_cmd; dot_cmd; budget_cmd; fig5_cmd; table1_cmd;
      fig6_cmd; report_cmd; diff_ledger_cmd; stats_cmd ]

let () = exit (Cmd.eval' main)
