(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation section
   from five uninformed PSA-flow runs:

     Fig. 5  - hotspot speedups of all generated designs (+ Auto-Selected)
     Table I - added lines of code per generated design
     Fig. 6  - FPGA-vs-GPU cost across price ratios

   plus an ablation study (each optimising transform disabled in turn)
   and the interpreter's throughput on both backends.  Each section's
   wall-clock time goes to the --json dump, which bench/compare.exe
   gates on; the VM's step-coverage floors are exact counts and live in
   the test suite (test/test_coverage.ml).

   Usage:
     main.exe                 everything (evaluation workloads)
     main.exe --quick         test workloads (fast smoke run)
     main.exe --jobs N        domains for parallel flow execution (1 = sequential)
     main.exe --json FILE     dump per-section wall-clock times as JSON
     main.exe --interp B      default interpreter backend: ast | vm
     main.exe --cache D       evaluation-cache directory (default .psa-cache; off = disabled)
     main.exe --trace FILE    write a Chrome trace-event span trace of the run
     main.exe runs fig5 table1 fig6 ablation interp    any subset, in any
                              order (runs: the five flows, no figure) *)

let argv = Array.to_list Sys.argv

let section_names = [ "runs"; "fig5"; "table1"; "fig6"; "ablation"; "interp" ]

let value_flags = [ "--jobs"; "--json"; "--interp"; "--cache"; "--trace" ]

(* one pass over the arguments: anything that is neither a flag above
   nor a section name is an error, not silently ignored *)
let quick, opts, requested =
  let rec parse quick opts reqs = function
    | [] -> (quick, List.rev opts, List.rev reqs)
    | ("--quick" | "-q") :: rest -> parse true opts reqs rest
    | flag :: v :: rest when List.mem flag value_flags ->
      parse quick ((flag, v) :: opts) reqs rest
    | s :: rest when List.mem s section_names -> parse quick opts (s :: reqs) rest
    | a :: _ ->
      Printf.eprintf
        "bench: unexpected argument %S\n\
         usage: main.exe [--quick] [--jobs N] [--json FILE] [--interp ast|vm]\n\
        \       [--cache DIR|off] [--trace FILE] [%s]...\n"
        a
        (String.concat "|" section_names);
      exit 2
  in
  parse false [] [] (List.tl argv)

let opt_value flag = List.assoc_opt flag opts

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

let json_file = opt_value "--json"

let trace_file = opt_value "--trace"

let () = if trace_file <> None then Obs.Trace.start ()

let wants section = requested = [] || List.mem section requested

(* ---- per-section wall-clock accounting (for --json) ---- *)

(* Every section timing reads the one process-anchored clock
   (Obs.Monotonic); the --json "sections" object is their only record. *)
let timings : (string * float) list ref = ref []

let timed name f =
  Obs.Trace.with_span ~name ~kind:Obs.Trace.Section @@ fun _ ->
  let t0 = Obs.Monotonic.now_s () in
  let r = f () in
  timings := (name, Obs.Monotonic.now_s () -. t0) :: !timings;
  r

(* interpreter throughput per backend (statements/s), filled by the
   "interp" section and reported under "statements_per_sec" in the JSON *)
let throughput : (string * float) list ref = ref []

let write_json path ~total =
  let open Obs.Json in
  let nums kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let doc =
    Obj
      [
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
        (* flat name -> number map via the shared Obs.Metrics.flatten:
           histograms arrive as .count/.sum/.p50/.p90/.p99 entries, and
           every cache tier's cache.<kind>.* counters are here *)
        ("metrics", nums (Obs.Metrics.flatten (Obs.Metrics.snapshot ())));
      ]
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

let run_experiments () =
  let reports = timed "runs" (fun () -> Lazy.force reports) in
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
        (config, App.program app))
      Suite.all
  in
  let measure backend =
    let steps = ref 0 in
    let t0 = Obs.Monotonic.now_s () in
    for _ = 1 to reps do
      List.iter
        (fun (config, p) ->
          let r = Machine.run ~config ~backend p in
          steps := !steps + r.Machine.counters.(Counters.steps))
        inputs
    done;
    let dt = Obs.Monotonic.now_s () -. t0 in
    (float_of_int !steps /. dt, !steps)
  in
  let ast_sps, steps = measure `Ast in
  let vm_sps, _ = measure `Vm in
  throughput := [ ("ast", ast_sps); ("vm", vm_sps) ];
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
  Util.Table.print table

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
  if wants "interp" then timed "interp" run_interp_throughput;
  (match json_file with
   | Some path -> write_json path ~total:(Obs.Monotonic.now_s () -. t0)
   | None -> ());
  match trace_file with
  | None -> ()
  | Some path ->
    Obs.Trace.stop ();
    (match Obs.Trace.write_file path with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "bench: cannot write trace %s: %s\n" path msg;
       exit 1)