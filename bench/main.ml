(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation section
   from five uninformed PSA-flow runs:

     Fig. 5  - hotspot speedups of all generated designs (+ Auto-Selected)
     Table I - added lines of code per generated design
     Fig. 6  - FPGA-vs-GPU cost across price ratios

   and runs Bechamel micro-benchmarks of the pipeline stages behind each
   experiment (grouped per figure/table), so regressions in the flow
   machinery itself are visible.

   An ablation study (each optimising transform disabled in turn) and the
   micro-benchmarks round out the evaluation.

   Usage:
     main.exe                 everything (evaluation workloads)
     main.exe --quick         test workloads (fast smoke run)
     main.exe --jobs N        domains for parallel flow execution (1 = sequential)
     main.exe --json FILE     dump per-section wall-clock times as JSON
     main.exe --interp B      default interpreter backend: ast | vm
     main.exe --cache D       evaluation-cache directory (default .psa-cache; off = disabled)
     main.exe --faults SPEC   arm the deterministic fault-injection harness
     main.exe --trace FILE    write a Chrome trace-event span trace of the run
     main.exe --ledger D      run-ledger directory for the bench record
                              (default .psa-runs; off = disabled)
     main.exe fig5 table1 fig6 ablation micro interp    any subset, in any order *)

let argv = Array.to_list Sys.argv

let quick = List.exists (fun a -> a = "--quick" || a = "-q") argv

let opt_value flag =
  let rec find = function
    | a :: v :: _ when a = flag -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let () =
  match opt_value "--jobs" with
  | None -> ()
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Util.Pool.set_default_jobs n
    | None ->
      prerr_endline "bench: --jobs expects an integer";
      exit 2)

let () =
  match opt_value "--interp" with
  | None -> ()
  | Some v -> (
    match Machine.backend_of_string v with
    | Some b -> Machine.set_default_backend b
    | None ->
      prerr_endline "bench: --interp expects 'ast' or 'vm'";
      exit 2)

let () =
  match opt_value "--cache" with
  | None -> Cache.set_dir (Some ".psa-cache")
  | Some "off" -> Cache.set_dir None
  | Some dir -> Cache.set_dir (Some dir)

let () =
  match opt_value "--faults" with
  | None -> ()
  | Some spec -> (
    match Util.Faultsim.parse spec with
    | Ok s -> Util.Faultsim.arm s
    | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)

let json_file = opt_value "--json"

let ledger =
  match opt_value "--ledger" with
  | Some "off" -> None
  | Some dir -> Some dir
  | None -> Some ".psa-runs"

let trace_file = opt_value "--trace"

let () = if trace_file <> None then Obs.Trace.start ()

let wants section =
  let named = [ "runs"; "fig5"; "table1"; "fig6"; "micro"; "ablation"; "interp" ] in
  let requested = List.filter (fun a -> List.mem a named) argv in
  requested = [] || List.mem section requested

(* ---- per-section wall-clock accounting (for --json) ---- *)

(* Every section timing reads the one process-anchored clock
   (Obs.Monotonic) and lands in the metrics registry as
   bench.section.<name>, next to the subsystem counters. *)
let timings : (string * float) list ref = ref []

let timed name f =
  Obs.Trace.with_span ~name ~kind:Obs.Trace.Section @@ fun _ ->
  let t0 = Obs.Monotonic.now_s () in
  let r = f () in
  let dt = Obs.Monotonic.now_s () -. t0 in
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge ("bench.section." ^ name)) dt;
  timings := (name, dt) :: !timings;
  r

(* interpreter throughput per backend (statements/s), filled by the
   "interp" section and reported under "statements_per_sec" in the JSON *)
let throughput : (string * float) list ref = ref []

(* per-app VM step coverage (planned statements / total statements), filled
   by the "interp" section and reported under "vm_coverage" in the JSON *)
let vm_coverage : (string * float) list ref = ref []

(* VM step coverage of the "runs" section's five uninformed flows: the
   profiled analysis runs real flows perform, unlike the unprofiled
   evaluation workloads behind [vm_coverage].  None when the flows
   interpreted nothing (every run replayed from a warm cache). *)
let flow_vm_coverage : float option ref = ref None

let write_json path ~total =
  let open Obs.Json in
  let nums kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let doc =
    Obj
      ([
         ("quick", Bool quick);
         ("jobs", int (Util.Pool.default_jobs ()));
         (* lets compare.exe --jobs-speedup skip its gate on hosts with too
            few cores to show a parallel speedup at all *)
         ("cores", int (Domain.recommended_domain_count ()));
         (* provenance: which code and configuration produced these
            numbers; compare.exe prints both sides' meta when a gate fails *)
         ( "meta",
           Obj
             [
               ("schema", int Obs.Ledger.schema_version);
               ("git_rev", Str Run_record.git_rev);
               ("ir_version", int Ir.version);
               ("backend", Str (Machine.backend_name (Machine.default_backend ())));
               ("cmdline", Str (String.concat " " argv));
             ] );
         ("sections", nums (List.rev !timings @ [ ("total", total) ]));
         ("statements_per_sec", nums !throughput);
         ("vm_coverage", nums !vm_coverage);
       ]
      @ Option.fold ~none:[]
          ~some:(fun c -> [ ("flow_vm_coverage", Num c) ])
          !flow_vm_coverage
      @ [
          (* flat name -> number map via the shared Obs.Metrics.flatten:
             histograms arrive as .count/.sum/.p50/.p90/.p99 entries, and
             every cache tier's cache.<kind>.* counters are here *)
          ("metrics", nums (Obs.Metrics.flatten (Obs.Metrics.snapshot ())));
        ])
  in
  (* temp file + atomic rename: a crashed bench never leaves a truncated
     JSON where compare.exe expects a complete one *)
  match Obs.Atomic_io.write_file path (to_string doc ^ "\n") with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "bench: cannot write %s: %s\n" path msg;
    exit 1

(* ---- experiment regeneration ---- *)

let reports = lazy (Runs.ok_reports (Runs.collect ~quick ()))

let count name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let run_experiments () =
  let steps0 = count "interp.steps" in
  let planned0 = count "vm.steps.planned" in
  let reports = timed "runs" (fun () -> Lazy.force reports) in
  let steps = count "interp.steps" - steps0 in
  if steps > 0 then
    flow_vm_coverage :=
      Some (float_of_int (count "vm.steps.planned" - planned0) /. float_of_int steps);
  if wants "fig5" then
    timed "fig5" (fun () ->
        print_newline ();
        print_string (Fig5.render (Fig5.of_reports reports)));
  if wants "table1" then
    timed "table1" (fun () ->
        print_newline ();
        print_string (Table1.render (Table1.of_reports reports)));
  if wants "fig6" then
    timed "fig6" (fun () ->
        print_newline ();
        print_string (Fig6.render (Fig6.of_reports reports)))

(* ---- micro-benchmarks ---- *)

let nbody_program = App.program Nbody.app

let tiny_config =
  { Machine.default_config with
    overrides = App.machine_overrides [ ("N", 64); ("STEPS", 1) ] }

let micro_inputs =
  lazy
    (let art = Artifact.create Nbody.app ~workload:[ ("N", 64); ("STEPS", 1) ] in
     match Graph.run Pipeline.target_independent art with
     | Ok [ oc ] ->
       let art = oc.Graph.oc_artifact in
       let kp = Artifact.kprofile_exn art in
       let hip = Result.get_ok (Hip.generate art.Artifact.art_program ~kernel:"knl") in
       let ks =
         Result.get_ok
           (Kstatic.of_kernel hip.Hip.hip_program ~fname:hip.Hip.hip_body_fn
              ~thread_index:"i")
       in
       (art, kp, hip, ks)
     | _ -> failwith "micro bench setup failed")

let micro_tests =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"psaflow"
    [
      (* Fig. 5's machinery: frontend, profiling, analyses, codegen, models *)
      t "fig5/parse_nbody" (fun () -> ignore (App.program Nbody.app));
      t "fig5/interpret_nbody_64" (fun () ->
          ignore (Machine.run ~config:tiny_config nbody_program));
      t "fig5/hotspot_detect" (fun () ->
          ignore (Hotspot.detect ~config:tiny_config nbody_program));
      t "fig5/dependence_analysis" (fun () ->
          let lm = List.hd (Query.loops nbody_program) in
          ignore (Dependence.analyse_loop nbody_program lm));
      t "fig5/hip_codegen" (fun () ->
          let art, _, _, _ = Lazy.force micro_inputs in
          ignore (Hip.generate art.Artifact.art_program ~kernel:"knl"));
      t "fig5/gpu_model_estimate" (fun () ->
          let _, kp, _, ks = Lazy.force micro_inputs in
          ignore (Gpu_model.estimate Device.rtx_2080_ti ks kp Gpu_model.default_params));
      t "fig5/cpu_model_openmp" (fun () ->
          let _, kp, _, _ = Lazy.force micro_inputs in
          ignore (Cpu_model.openmp Device.epyc_7543 ~threads:32 kp));
      (* Table I's machinery: emission + LOC accounting *)
      t "table1/pretty_print" (fun () -> ignore (Pretty.program_to_string nbody_program));
      t "table1/loc_count" (fun () -> ignore (Loc_count.program_loc nbody_program));
      (* Fig. 6's machinery: FPGA resource model, the Fig. 2 DSE, cost curve *)
      t "fig6/fpga_resource_model" (fun () ->
          let _, _, _, ks = Lazy.force micro_inputs in
          ignore (Fpga_model.resources_of Device.pac_stratix10 ks ~unroll:8));
      t "fig6/unroll_until_overmap_dse" (fun () ->
          let _, kp, hip, ks = Lazy.force micro_inputs in
          ignore
            (Unroll_dse.run Device.pac_stratix10 ks kp ~zero_copy:true
               hip.Hip.hip_program ~kernel_fn:hip.Hip.hip_launch_fn));
      t "fig6/cost_curve" (fun () ->
          ignore
            (List.map
               (fun r -> Cost.relative_cost ~fpga_s:1e-3 ~gpu_s:4e-4 ~price_ratio:r)
               Fig6.price_ratios));
    ]

let run_micro () =
  let open Bechamel in
  ignore (Lazy.force micro_inputs);
  (* the micro section times raw stage latencies; drop the suite's cached
     artifacts from the memory tier and compact first, so Bechamel's GC
     stabilization does not scale with however much the preceding
     sections (cold or warm) left live *)
  Cache.clear_memory ();
  Gc.compact ();
  (* quick mode is a smoke run: a tiny sampling quota keeps the (fixed,
     quota-bound) Bechamel time from dominating the whole bench *)
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ()
    else Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances micro_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let table = Util.Table.create ~headers:[ "micro-benchmark"; "time/run" ] in
  Util.Table.set_aligns table [ Util.Table.Left; Util.Table.Right ];
  List.iter
    (fun (name, est) ->
      let cell =
        match Analyze.OLS.estimates est with
        | Some (ns :: _) ->
          if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        | Some [] | None -> "?"
      in
      Util.Table.add_row table [ name; cell ])
    (List.sort compare rows);
  print_newline ();
  print_endline "Micro-benchmarks of the pipeline stages (Bechamel, OLS time/run)";
  Util.Table.print table

(* ---- interpreter throughput ---- *)

let run_interp_throughput () =
  (* always the evaluation workloads: interpreter throughput is measured
     on the kernels the DSE hot path actually interprets, where the
     per-run lowering/compilation cost is amortised the way it is in a
     flow; quick mode only drops the repetitions *)
  let reps = if quick then 1 else 3 in
  let inputs =
    List.map
      (fun (app : App.t) ->
        let config =
          { Machine.default_config with
            overrides = App.machine_overrides app.App.app_eval_overrides }
        in
        (app.App.app_name, config, App.program app))
      Suite.all
  in
  (* per-app (planned, total) statements of the Vm leg; coverage is
     deterministic, so accumulating across reps leaves the ratio exact *)
  let cov : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let measure backend =
    let steps = ref 0 in
    let t0 = Obs.Monotonic.now_s () in
    for _ = 1 to reps do
      List.iter
        (fun (name, config, p) ->
          let p0 = count "vm.steps.planned" in
          let r = Machine.run ~config ~backend p in
          let run_steps = r.Machine.counters.Counters.steps in
          steps := !steps + run_steps;
          if backend = `Vm then begin
            let planned, total =
              Option.value (Hashtbl.find_opt cov name) ~default:(0, 0)
            in
            Hashtbl.replace cov name
              (planned + (count "vm.steps.planned" - p0), total + run_steps)
          end)
        inputs
    done;
    let dt = Obs.Monotonic.now_s () -. t0 in
    (float_of_int !steps /. dt, !steps)
  in
  let ast_sps, steps = measure `Ast in
  let vm_sps, _ = measure `Vm in
  throughput := [ ("ast", ast_sps); ("vm", vm_sps) ];
  vm_coverage :=
    List.filter_map
      (fun (name, _, _) ->
        match Hashtbl.find_opt cov name with
        | Some (planned, total) when total > 0 ->
          Some (name, float_of_int planned /. float_of_int total)
        | _ -> None)
      inputs;
  let table = Util.Table.create ~headers:[ "backend"; "statements/s"; "speedup" ] in
  Util.Table.set_aligns table [ Util.Table.Left; Util.Table.Right; Util.Table.Right ];
  Util.Table.add_row table [ "ast (tree walker)"; Printf.sprintf "%.2e" ast_sps; "1.00x" ];
  Util.Table.add_row table
    [ "vm (superinstructions)";
      Printf.sprintf "%.2e" vm_sps;
      Printf.sprintf "%.2fx" (vm_sps /. ast_sps) ];
  print_newline ();
  Printf.printf
    "Interpreter throughput - five suite apps, evaluation workloads, %d rep%s (%d statements/run)\n"
    reps
    (if reps = 1 then "" else "s")
    (steps / reps);
  Util.Table.print table;
  let ctable = Util.Table.create ~headers:[ "app"; "vm step coverage" ] in
  Util.Table.set_aligns ctable [ Util.Table.Left; Util.Table.Right ];
  List.iter
    (fun (name, c) -> Util.Table.add_row ctable [ name; Printf.sprintf "%.3f" c ])
    !vm_coverage;
  print_newline ();
  print_endline
    "VM step coverage - planned statements / total statements per app";
  Util.Table.print ctable

let run_ablation () =
  (* the transforms' individual contributions, on the two accelerator-won
     benchmarks: N-Body (GPU) and AdPredictor (FPGA) *)
  (match Ablation.gpu ~quick Nbody.app with
   | Ok rows ->
     print_newline ();
     print_string
       (Ablation.render ~title:"Ablation - N-Body HIP design on the RTX 2080 Ti" rows)
   | Error e -> Printf.eprintf "gpu ablation failed: %s\n" e);
  match Ablation.fpga ~quick Adpredictor.app with
  | Ok rows ->
    print_newline ();
    print_string
      (Ablation.render ~title:"Ablation - AdPredictor oneAPI design on the Stratix10" rows)
  | Error e -> Printf.eprintf "fpga ablation failed: %s\n" e

let () =
  let t0 = Obs.Monotonic.now_s () in
  if wants "runs" || wants "fig5" || wants "table1" || wants "fig6" then
    run_experiments ();
  if wants "ablation" then timed "ablation" run_ablation;
  if wants "micro" then timed "micro" run_micro;
  if wants "interp" then timed "interp" run_interp_throughput;
  (match json_file with
   | Some path -> write_json path ~total:(Obs.Monotonic.now_s () -. t0)
   | None -> ());
  (* one bench-kind ledger record per invocation: the bench.section.*
     gauges and subsystem counters it snapshots are what `psaflow diff`
     gates on in report-check *)
  (match ledger with
   | None -> ()
   | Some dir -> (
     let record =
       Run_record.base ~kind:"bench" ~app:"suite"
         ~mode:(if quick then "quick" else "eval")
         ~workload:[] ~status:0
         ~cmdline:(String.concat " " argv)
     in
     match Obs.Ledger.append ~dir record with
     | Ok _ -> ()
     | Error msg -> Printf.eprintf "bench: ledger append failed: %s\n" msg));
  match trace_file with
  | None -> ()
  | Some path ->
    Obs.Trace.stop ();
    (match Obs.Trace.write_file path with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "bench: cannot write trace %s: %s\n" path msg;
       exit 1)
