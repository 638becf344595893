(* Tests for the PSA-flow core: graph execution with branch points, the
   codified task repository, the informed strategy (Fig. 3), the engine
   end-to-end on every benchmark (test workloads), cost models, and the
   experiment harnesses. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---- graph semantics ---- *)

let tag name =
  Task.make ~name ~kind:Task.Transform ~scope:Task.Target_independent (fun art ->
      Ok (Artifact.log art name))

let failing name =
  Task.make ~name ~kind:Task.Transform ~scope:Task.Target_independent (fun _ ->
      Error "boom")

let dummy_artifact () = Artifact.create Nbody.app ~workload:[ ("N", 8); ("STEPS", 1) ]

let test_graph_seq_order () =
  let node = Graph.Seq [ Graph.Task (tag "a"); Graph.Task (tag "b") ] in
  match Graph.run node (dummy_artifact ()) with
  | Ok [ oc ] ->
    let log = oc.Graph.oc_artifact.Artifact.art_log in
    check "a before b" true
      (match log with "a" :: _ :: "b" :: _ -> true | _ -> false)
  | _ -> Alcotest.fail "one outcome expected"

let test_graph_task_error_aborts () =
  let node = Graph.Seq [ Graph.Task (tag "a"); Graph.Task (failing "bad") ] in
  match Graph.run node (dummy_artifact ()) with
  | Error msg -> check "error names task" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "should fail"

let branch name paths select = Graph.Branch { Graph.bp_name = name; bp_select = select; bp_paths = paths }

let test_graph_branch_select_one () =
  let node =
    branch "A" [ ("x", Graph.Task (tag "x")); ("y", Graph.Task (tag "y")) ]
      (fun _ -> Graph.select [ "y" ])
  in
  match Graph.run node (dummy_artifact ()) with
  | Ok [ oc ] ->
    check "path recorded" true (oc.Graph.oc_path = [ ("A", "y") ])
  | _ -> Alcotest.fail "one outcome"

let test_graph_branch_select_all () =
  let node =
    branch "A" [ ("x", Graph.Task (tag "x")); ("y", Graph.Task (tag "y")) ]
      Graph.select_all
  in
  match Graph.run node (dummy_artifact ()) with
  | Ok outcomes -> checki "fan out" 2 (List.length outcomes)
  | Error e -> Alcotest.fail e

let test_graph_branch_unknown_path () =
  let node = branch "A" [ ("x", Graph.Task (tag "x")) ] (fun _ -> Graph.select [ "zz" ]) in
  match Graph.run node (dummy_artifact ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown path must error"

let test_graph_branch_empty_selection_prunes () =
  let node = branch "A" [ ("x", Graph.Task (tag "x")) ] (fun _ -> Graph.select []) in
  match Graph.run node (dummy_artifact ()) with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty selection should prune"

let test_graph_nested_branches () =
  let inner = branch "B" [ ("p", Graph.Task (tag "p")); ("q", Graph.Task (tag "q")) ] Graph.select_all in
  let node = branch "A" [ ("x", inner) ] (fun _ -> Graph.select [ "x" ]) in
  match Graph.run node (dummy_artifact ()) with
  | Ok outcomes ->
    checki "two leaves" 2 (List.length outcomes);
    check "paths composed" true
      (List.for_all
         (fun oc -> List.length oc.Graph.oc_path = 2)
         outcomes)
  | Error e -> Alcotest.fail e

let test_graph_with_select () =
  let node =
    branch "A" [ ("x", Graph.Task (tag "x")); ("y", Graph.Task (tag "y")) ]
      (fun _ -> Graph.select [ "x" ])
  in
  let node = Graph.with_select node ~branch:"A" Graph.select_all in
  match Graph.run node (dummy_artifact ()) with
  | Ok outcomes -> checki "now fans out" 2 (List.length outcomes)
  | Error e -> Alcotest.fail e

let test_graph_tasks_listing () =
  let node = Graph.Seq [ Graph.Task (tag "a"); branch "A" [ ("x", Graph.Task (tag "x")) ] Graph.select_all ] in
  checki "two tasks" 2 (List.length (Graph.tasks node))

(* ---- repository (Fig. 4 shape) ---- *)

let test_repository_counts () =
  let repo = Pipeline.repository in
  let by_scope scope =
    List.length (List.filter (fun (t : Task.t) -> t.Task.scope = scope) repo)
  in
  checki "eight target-independent tasks" 8 (by_scope Task.Target_independent);
  check "has GPU tasks" true (by_scope Task.Gpu_scope >= 5);
  check "has FPGA tasks" true (by_scope Task.Fpga_scope >= 4);
  checki "two CPU tasks" 2 (by_scope Task.Cpu_omp);
  check "device-specific DSE tasks" true
    (by_scope (Task.Gpu_device "1080") = 1
     && by_scope (Task.Gpu_device "2080") = 1
     && by_scope (Task.Fpga_device "A10") = 1);
  (* names from the paper's table must be present *)
  let names = List.map (fun (t : Task.t) -> t.Task.name) repo in
  List.iter
    (fun expected -> check expected true (List.mem expected names))
    [
      "Identify Hotspot Loops"; "Hotspot Loop Extraction"; "Pointer Analysis";
      "Arithmetic Intensity Analysis"; "Data In/Out Analysis";
      "Loop Dependence Analysis"; "Loop Trip-Count Analysis";
      "Remove Array += Dependency"; "Generate oneAPI Design";
      "Unroll Fixed Loops"; "Zero-Copy Data Transfer"; "Generate HIP Design";
      "Employ HIP Pinned Memory"; "Introduce Shared Mem Buf";
      "Employ Specialised Math Fns"; "Multi-Thread Parallel Loops";
      "OMP Num. Threads DSE";
    ]

let test_repository_dynamic_flags () =
  let dynamic =
    List.filter_map
      (fun (t : Task.t) -> if t.Task.dynamic then Some t.Task.name else None)
      Pipeline.repository
  in
  (* the paper's clock-marked tasks *)
  List.iter
    (fun name -> check name true (List.mem name dynamic))
    [ "Identify Hotspot Loops"; "Pointer Analysis"; "Data In/Out Analysis";
      "Loop Trip-Count Analysis" ]

(* ---- informed PSA on every benchmark ---- *)

let analysed_artifacts = Hashtbl.create 8

let analysed app =
  match Hashtbl.find_opt analysed_artifacts (app : App.t).app_slug with
  | Some art -> art
  | None ->
    let art = Artifact.create app ~workload:app.App.app_test_overrides in
    (match Graph.run Pipeline.target_independent art with
     | Ok [ oc ] ->
       Hashtbl.replace analysed_artifacts app.App.app_slug oc.Graph.oc_artifact;
       oc.Graph.oc_artifact
     | Ok _ -> Alcotest.fail "unexpected fan-out"
     | Error e -> Alcotest.fail e)

let decision app =
  match Psa.decide (analysed app) with
  | Ok d -> d.Psa.dec_path
  | Error e -> Alcotest.fail e

let test_psa_nbody_gpu () = checks "nbody -> gpu" "gpu" (decision Nbody.app)
let test_psa_kmeans_cpu () = checks "kmeans -> cpu" "cpu" (decision Kmeans.app)
let test_psa_adpredictor_fpga () = checks "adpredictor -> fpga" "fpga" (decision Adpredictor.app)
let test_psa_rush_larsen_gpu () = checks "rush larsen -> gpu" "gpu" (decision Rush_larsen.app)
let test_psa_bezier_gpu () = checks "bezier -> gpu" "gpu" (decision Bezier.app)

let test_psa_reasons_nonempty () =
  match Psa.decide (analysed Nbody.app) with
  | Ok d -> check "has reasoning trail" true (List.length d.Psa.dec_reasons >= 3)
  | Error e -> Alcotest.fail e

let test_psa_threshold_sensitivity () =
  (* with an absurdly high X everything is memory-bound: nbody falls to cpu *)
  let config = { Psa.default_config with Psa.x_threshold = 1e12 } in
  match Psa.decide ~config (analysed Nbody.app) with
  | Ok d -> checks "nbody under huge X" "cpu" d.Psa.dec_path
  | Error e -> Alcotest.fail e

let test_psa_missing_facts () =
  let art = Artifact.create Nbody.app ~workload:[] in
  match Psa.decide art with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must demand analysis facts"

(* ---- engine end-to-end (test workloads) ---- *)

let engine_reports = Hashtbl.create 8

let report ?(mode = Pipeline.Uninformed) app =
  let key = ((app : App.t).app_slug, mode) in
  match Hashtbl.find_opt engine_reports key with
  | Some r -> r
  | None ->
    (match Engine.run ~workload:app.App.app_test_overrides ~mode app with
     | Ok r ->
       Hashtbl.replace engine_reports key r;
       r
     | Error e -> Alcotest.fail e)

let test_engine_uninformed_counts () =
  (* uninformed mode yields 5 designs; Rush Larsen's FPGA ones are present
     but infeasible *)
  List.iter
    (fun (app : App.t) ->
      let r = report app in
      checki (app.app_slug ^ " designs") 5 (List.length r.Engine.rep_designs))
    Suite.all

let test_engine_designs_valid () =
  List.iter
    (fun (app : App.t) ->
      let r = report app in
      List.iter
        (fun (d : Design.t) ->
          check
            (Printf.sprintf "%s %s output valid" app.app_slug (Target.short d.Design.d_target))
            true d.Design.d_valid)
        r.Engine.rep_designs)
    Suite.all

(* every emitted design must be a well-typed program — a design the
   typechecker rejects would not compile with the target toolchain, and
   the VM would run it entirely on the closure fallback *)
let test_engine_designs_typecheck () =
  List.iter
    (fun mode ->
      List.iter
        (fun (app : App.t) ->
          let r = report ~mode app in
          List.iter
            (fun (d : Design.t) ->
              match Typecheck.check_program d.Design.d_program with
              | Ok () -> ()
              | Error errs ->
                Alcotest.failf "%s %s design is ill-typed: %s" app.app_slug
                  (Target.short d.Design.d_target)
                  (String.concat "; "
                     (List.map
                        (fun (e : Typecheck.error) ->
                          Loc.to_string e.Typecheck.loc ^ ": " ^ e.Typecheck.msg)
                        errs)))
            r.Engine.rep_designs)
        Suite.all)
    [ Pipeline.Uninformed; Pipeline.Informed ]

let test_engine_rush_larsen_fpga_infeasible () =
  let r = report Rush_larsen.app in
  List.iter
    (fun short ->
      match Engine.design_for r ~short with
      | Some d -> check (short ^ " infeasible") false d.Design.d_feasible
      | None -> Alcotest.fail "design missing")
    [ "oneAPI A10"; "oneAPI S10" ]

let test_engine_rush_larsen_keeps_dp () =
  let r = report Rush_larsen.app in
  match Engine.design_for r ~short:"HIP 2080Ti" with
  | Some d -> check "precision guard kept DP" false d.Design.d_sp
  | None -> Alcotest.fail "design missing"

let test_engine_informed_single_branch () =
  let r = report ~mode:Pipeline.Informed Kmeans.app in
  checki "one design on cpu branch" 1 (List.length r.Engine.rep_designs);
  match r.Engine.rep_designs with
  | [ d ] -> check "it is OMP" true (Target.short d.Design.d_target = "OMP")
  | _ -> Alcotest.fail "expected one design"

let test_engine_loc_positive () =
  let r = report Nbody.app in
  List.iter
    (fun (d : Design.t) ->
      check "adds code" true (d.Design.d_loc_added_pct > 0.0))
    r.Engine.rep_designs

let test_engine_omp_cheapest_loc () =
  let r = report Bezier.app in
  let loc short =
    match Engine.design_for r ~short with
    | Some d -> d.Design.d_loc_added_pct
    | None -> Alcotest.fail "missing"
  in
  check "OMP adds least code" true
    (loc "OMP" < loc "HIP 2080Ti" && loc "OMP" < loc "oneAPI A10")

let test_engine_speedups_positive () =
  let r = report Nbody.app in
  List.iter
    (fun (d : Design.t) ->
      if d.Design.d_feasible then
        check "speedup defined" true
          (match d.Design.d_speedup with Some s -> s > 0.0 | None -> false))
    r.Engine.rep_designs

let test_engine_best_design () =
  let r = report Nbody.app in
  match Engine.best_design r with
  | Some best ->
    List.iter
      (fun (d : Design.t) ->
        match d.Design.d_speedup, best.Design.d_speedup with
        | Some s, Some sb -> check "best is max" true (sb +. 1e-9 >= s)
        | _, _ -> ())
      r.Engine.rep_designs
  | None -> Alcotest.fail "no best design"

(* ---- targets and pipeline shape ---- *)

let test_target_labels () =
  let omp = Target.Omp { threads = 16 } in
  checks "omp label" "OpenMP CPU (16 threads)" (Target.label omp);
  checks "omp short" "OMP" (Target.short omp);
  let gpu = Target.Gpu { spec = Device.gtx_1080_ti; params = Gpu_model.default_params } in
  checks "gpu short" "HIP 1080Ti" (Target.short gpu);
  let fpga = Target.Fpga { spec = Device.pac_stratix10; params = Fpga_model.default_params } in
  checks "fpga short" "oneAPI S10" (Target.short fpga);
  check "device names distinct" true
    (Target.device_name gpu <> Target.device_name fpga)

let test_graph_to_dot () =
  let dot = Graph.to_dot (Pipeline.full_flow Pipeline.Uninformed) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "digraph" true (contains "digraph" dot);
  check "branch A diamond" true (contains "branch A" dot);
  check "task box" true (contains "Identify Hotspot Loops" dot);
  check "edge labels" true (contains "label=\"fpga\"" dot)

let test_pipeline_shape () =
  (* branch point A must offer exactly the three paper targets *)
  let rec find_branch name = function
    | Graph.Task _ -> None
    | Graph.Seq nodes -> List.find_map (find_branch name) nodes
    | Graph.Branch bp ->
      if bp.Graph.bp_name = name then Some bp
      else List.find_map (fun (_, n) -> find_branch name n) bp.Graph.bp_paths
  in
  let flow = Pipeline.full_flow Pipeline.Uninformed in
  (match find_branch "A" flow with
   | Some bp ->
     Alcotest.(check (list string)) "branch A paths" [ "cpu"; "gpu"; "fpga" ]
       (List.map fst bp.Graph.bp_paths)
   | None -> Alcotest.fail "no branch A");
  (match find_branch "B" flow with
   | Some bp ->
     Alcotest.(check (list string)) "branch B devices" [ "A10"; "S10" ]
       (List.map fst bp.Graph.bp_paths)
   | None -> Alcotest.fail "no branch B");
  match find_branch "C" flow with
  | Some bp ->
    Alcotest.(check (list string)) "branch C devices" [ "1080"; "2080" ]
      (List.map fst bp.Graph.bp_paths)
  | None -> Alcotest.fail "no branch C"

(* ---- cost ---- *)

let test_cost_monetary () =
  let target = Target.Omp { threads = 32 } in
  Alcotest.(check (float 1e-12)) "1 hour at cpu price" 2.0
    (Cost.monetary_cost Cost.default_pricing target ~time_s:3600.0)

let test_cost_relative_and_crossover () =
  Alcotest.(check (float 1e-12)) "relative cost" 1.0
    (Cost.relative_cost ~fpga_s:1.0 ~gpu_s:2.0 ~price_ratio:2.0);
  Alcotest.(check (float 1e-12)) "crossover" 2.0
    (Cost.crossover_ratio ~fpga_s:1.0 ~gpu_s:2.0)

let test_cost_cheapest () =
  let omp = Target.Omp { threads = 32 } in
  let gpu = Target.Gpu { spec = Device.rtx_2080_ti; params = Gpu_model.default_params } in
  match Cost.cheapest Cost.default_pricing [ (omp, 10.0); (gpu, 1.0) ] with
  | Some (t, _, _) -> check "gpu cheaper here" true (t == gpu)
  | None -> Alcotest.fail "no answer"

(* ---- budget feedback (Fig. 3's cost evaluation loop) ---- *)

(* the branch-point feedback test: an attempt is within budget exactly
   when its monetary cost is at most the budget *)
let check_within_rule (br : Engine.budget_report) =
  List.iter
    (fun (a : Engine.attempt) ->
      check "within iff cost <= budget" a.Engine.at_within
        (match a.Engine.at_cost with Some c -> c <= br.Engine.br_budget | None -> false))
    br.Engine.br_attempts

let test_budget_generous_keeps_decision () =
  let app = Kmeans.app in
  match
    Engine.run_budgeted ~workload:app.App.app_test_overrides ~budget:1000.0 app
  with
  | Error e -> Alcotest.fail e
  | Ok br ->
    check "within budget" true br.Engine.br_within_budget;
    check_within_rule br;
    checki "first attempt accepted" 1 (List.length br.Engine.br_attempts);
    (match br.Engine.br_accepted with
     | Some a -> checks "keeps informed branch" "cpu" a.Engine.at_branch
     | None -> Alcotest.fail "no accepted attempt")

let test_budget_zero_falls_through () =
  let app = Kmeans.app in
  match Engine.run_budgeted ~workload:app.App.app_test_overrides ~budget:0.0 app with
  | Error e -> Alcotest.fail e
  | Ok br ->
    check "over budget" false br.Engine.br_within_budget;
    check_within_rule br;
    check "tried every branch" true (List.length br.Engine.br_attempts >= 3);
    (match br.Engine.br_accepted with
     | Some a ->
       (* the fallback is the cheapest attempt overall *)
       List.iter
         (fun (x : Engine.attempt) ->
           match x.Engine.at_cost, a.Engine.at_cost with
           | Some cx, Some ca -> check "cheapest chosen" true (ca <= cx +. 1e-18)
           | _, _ -> ())
         br.Engine.br_attempts
     | None -> Alcotest.fail "fallback expected")

let test_budget_attempt_costs_consistent () =
  let app = Nbody.app in
  match Engine.run_budgeted ~workload:app.App.app_test_overrides ~budget:1e-7 app with
  | Error e -> Alcotest.fail e
  | Ok br ->
    List.iter
      (fun (a : Engine.attempt) ->
        match a.Engine.at_design, a.Engine.at_cost with
        | Some d, Some c ->
          let t = Option.get d.Design.d_time_s in
          let expected =
            Cost.monetary_cost br.Engine.br_pricing d.Design.d_target ~time_s:t
          in
          Alcotest.(check (float 1e-15)) "cost = price x time" expected c
        | _, _ -> ())
      br.Engine.br_attempts

(* ---- bring-your-own-program generality ---- *)

(* the flow must work on programs outside the benchmark suite: a 1D Jacobi
   smoothing stencil (parallel map with +-1 neighbour reads, memory-bound) *)
let stencil_app =
  {
    App.app_name = "Jacobi Stencil (user program)";
    app_slug = "stencil";
    app_descr = "three-point smoothing over a 1D field";
    app_source =
      "const int N = 2048;\n\
       const int SWEEPS = 4;\n\
       int main() {\n\
       double a[N];\n\
       double b[N];\n\
       for (int i = 0; i < N; i++) { a[i] = rand01(); b[i] = 0.0; }\n\
       for (int s = 0; s < SWEEPS; s++) {\n\
       for (int i = 1; i < N - 1; i++) {\n\
       b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];\n\
       }\n\
       for (int i = 1; i < N - 1; i++) { a[i] = b[i]; }\n\
       }\n\
       double checksum = 0.0;\n\
       for (int i = 0; i < N; i++) { checksum += a[i]; }\n\
       print_float(checksum);\n\
       return 0; }";
    app_eval_overrides = [ ("N", 8192); ("SWEEPS", 8) ];
    app_test_overrides = [ ("N", 1024); ("SWEEPS", 2) ];
    app_outer_scale = 16;
  }

let test_user_program_informed () =
  match
    Engine.run ~workload:stencil_app.App.app_test_overrides ~mode:Pipeline.Informed
      stencil_app
  with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    (* a three-flop-per-24-byte stencil is memory-bound: CPU branch *)
    checks "stencil -> cpu" "cpu" rep.Engine.rep_decision.Psa.dec_path;
    List.iter
      (fun (d : Design.t) -> check "valid design" true d.Design.d_valid)
      rep.Engine.rep_designs

let test_user_program_uninformed () =
  match
    Engine.run ~workload:stencil_app.App.app_test_overrides ~mode:Pipeline.Uninformed
      stencil_app
  with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    checki "five designs for a user program" 5 (List.length rep.Engine.rep_designs);
    List.iter
      (fun (d : Design.t) ->
        check
          (Printf.sprintf "stencil %s valid" (Target.short d.Design.d_target))
          true d.Design.d_valid)
      rep.Engine.rep_designs

(* ---- learned PSA (future-work extension) ---- *)

let test_ml_features_extraction () =
  match Psa_ml.features_of (analysed Nbody.app) with
  | Error e -> Alcotest.fail e
  | Ok ft ->
    check "parallel flag" true (ft.Psa_ml.ft_outer_parallel = 1.0);
    check "dep inner flag" true (ft.Psa_ml.ft_dep_inner = 1.0);
    check "intensity positive" true (ft.Psa_ml.ft_log_intensity > 0.0);
    checki "vector dims" 7 (Array.length (Psa_ml.to_vector ft))

let test_ml_features_require_analysis () =
  match Psa_ml.features_of (Artifact.create Nbody.app ~workload:[]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must require analyses"

let ml_examples () =
  List.filter_map (fun (a : App.t) -> Psa_ml.label_of_report (report a)) Suite.all

let test_ml_training_and_recall () =
  let examples = ml_examples () in
  checki "five labelled examples" 5 (List.length examples);
  match Psa_ml.train examples with
  | Error e -> Alcotest.fail e
  | Ok model ->
    (* 1-NN must recall its own training points *)
    List.iter
      (fun (e : Psa_ml.example) ->
        checks "recall" e.Psa_ml.ex_label (Psa_ml.predict model e.Psa_ml.ex_features))
      examples;
    check "labels cover all three branches" true
      (List.sort compare (Psa_ml.labels model) = [ "cpu"; "fpga"; "gpu" ])

let test_ml_leave_one_out_vs_informed () =
  (* with one benchmark held out, the learned strategy should agree with
     the hand-written Fig. 3 tree on most of the suite *)
  let examples = ml_examples () in
  let agreements = ref 0 in
  List.iteri
    (fun i (held : Psa_ml.example) ->
      let training = List.filteri (fun j _ -> j <> i) examples in
      match Psa_ml.train training with
      | Error e -> Alcotest.fail e
      | Ok model ->
        if Psa_ml.predict model held.Psa_ml.ex_features = held.Psa_ml.ex_label then
          incr agreements)
    examples;
  check "leave-one-out accuracy >= 3/5" true (!agreements >= 3)

let test_ml_strategy_pluggable () =
  let examples = ml_examples () in
  let model = Result.get_ok (Psa_ml.train examples) in
  match Psa_ml.strategy model (analysed Kmeans.app) with
  | Ok { Graph.sel_paths = [ branch ]; _ } -> checks "kmeans stays on cpu" "cpu" branch
  | Ok _ -> Alcotest.fail "one branch expected"
  | Error e -> Alcotest.fail e

let test_ml_empty_training () =
  check "empty training rejected" true
    (match Psa_ml.train [] with Error _ -> true | Ok _ -> false)

(* ---- runtime scheduler (Section IV-D extension) ---- *)

let sched_alternatives () = Scheduler.alternatives_of_report (report Bezier.app)

let jobs n = List.init n (fun i -> { Scheduler.job_id = i; job_scale = 1.0 })

let default_pool = { Scheduler.cpu_instances = 1; gpu_instances = 1; fpga_instances = 1 }

let test_scheduler_alternatives () =
  check "several alternatives" true (List.length (sched_alternatives ()) >= 4)

let test_scheduler_min_cost_vs_makespan () =
  let alternatives = sched_alternatives () in
  let js = jobs 12 in
  let cost_s =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_cost ~pool:default_pool ~alternatives js)
  in
  let fast_s =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_makespan ~pool:default_pool ~alternatives js)
  in
  check "min-cost never dearer" true
    (cost_s.Scheduler.sc_total_cost <= fast_s.Scheduler.sc_total_cost +. 1e-15);
  check "min-makespan never slower" true
    (fast_s.Scheduler.sc_makespan_s <= cost_s.Scheduler.sc_makespan_s +. 1e-12)

let test_scheduler_parallelism_helps () =
  let alternatives = sched_alternatives () in
  let js = jobs 8 in
  let one =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_makespan
         ~pool:{ Scheduler.cpu_instances = 0; gpu_instances = 1; fpga_instances = 0 }
         ~alternatives js)
  in
  let two =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_makespan
         ~pool:{ Scheduler.cpu_instances = 0; gpu_instances = 2; fpga_instances = 0 }
         ~alternatives js)
  in
  check "two instances halve the makespan" true
    (two.Scheduler.sc_makespan_s < 0.6 *. one.Scheduler.sc_makespan_s)

let test_scheduler_job_scale () =
  let alternatives = sched_alternatives () in
  let s1 =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_makespan ~pool:default_pool ~alternatives
         [ { Scheduler.job_id = 0; job_scale = 1.0 } ])
  in
  let s2 =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_makespan ~pool:default_pool ~alternatives
         [ { Scheduler.job_id = 0; job_scale = 3.0 } ])
  in
  Alcotest.(check (float 1e-9)) "time scales with the job"
    (3.0 *. s1.Scheduler.sc_makespan_s) s2.Scheduler.sc_makespan_s

let test_scheduler_empty_pool () =
  check "empty pool rejected" true
    (match
       Scheduler.run ~policy:Scheduler.Min_cost
         ~pool:{ Scheduler.cpu_instances = 0; gpu_instances = 0; fpga_instances = 0 }
         ~alternatives:(sched_alternatives ()) (jobs 1)
     with
     | Error _ -> true
     | Ok _ -> false)

let test_scheduler_render () =
  let sc =
    Result.get_ok
      (Scheduler.run ~policy:Scheduler.Min_cost ~pool:default_pool
         ~alternatives:(sched_alternatives ()) (jobs 3))
  in
  check "renders" true (String.length (Scheduler.render sc) > 100)

(* ---- experiments harnesses (on the quick reports) ---- *)

let all_reports = lazy (List.map (fun a -> report a) Suite.all)

let test_fig5_rows () =
  let rows = Fig5.of_reports (Lazy.force all_reports) in
  checki "five rows" 5 (List.length rows);
  let rl = List.find (fun r -> r.Fig5.f5_app = "rush_larsen") rows in
  check "rl fpga bars absent" true (rl.Fig5.f5_a10 = None && rl.Fig5.f5_s10 = None);
  check "render mentions apps" true (String.length (Fig5.render rows) > 200)

let test_fig5_informed_matches_best () =
  let rows = Fig5.of_reports (Lazy.force all_reports) in
  List.iter
    (fun r -> check (r.Fig5.f5_app ^ " informed=best") true r.Fig5.f5_informed_is_best)
    rows

let test_table1_rows () =
  let rows = Table1.of_reports (Lazy.force all_reports) in
  checki "five rows" 5 (List.length rows);
  let avg = Table1.average rows in
  check "average omp small" true
    (match avg.Table1.t1_omp with Some v -> v < 25.0 | None -> false);
  let rl = List.find (fun r -> r.Table1.t1_app = "rush_larsen") rows in
  check "rl fpga loc excluded" true (rl.Table1.t1_a10 = None)

let test_fig6_series () =
  let series = Fig6.of_reports (Lazy.force all_reports) in
  (* rush larsen lacks FPGA designs: at most 4 series *)
  check "some series" true (List.length series >= 3);
  List.iter
    (fun s ->
      check "monotone in price ratio" true
        (let costs = List.map snd s.Fig6.f6_points in
         List.sort compare costs = costs);
      check "crossover positive" true (s.Fig6.f6_crossover > 0.0))
    series

let test_ablation_smoke () =
  (match Ablation.fpga ~quick:true Adpredictor.app with
   | Error e -> Alcotest.fail e
   | Ok rows ->
     check "several variants" true (List.length rows >= 4);
     let full = List.find (fun r -> r.Ablation.ab_variant = "full") rows in
     check "full has a time" true (full.Ablation.ab_time_s <> None);
     let unrolls =
       List.find (fun r -> r.Ablation.ab_variant = "without Unroll Fixed Loops") rows
     in
     check "fixed-loop unrolling matters" true
       (match unrolls.Ablation.ab_slowdown with Some s -> s > 1.5 | None -> false);
     check "renders" true (String.length (Ablation.render ~title:"t" rows) > 80))

let test_report_rendering () =
  let r = report Kmeans.app in
  check "table renders" true (String.length (Report.design_table r) > 100);
  check "decision text" true (String.length (Report.decision_text r) > 40);
  check "summary" true (String.length (Report.summary_line r) > 20)

let suite =
  [
    Alcotest.test_case "graph seq order" `Quick test_graph_seq_order;
    Alcotest.test_case "graph task error aborts" `Quick test_graph_task_error_aborts;
    Alcotest.test_case "graph branch select one" `Quick test_graph_branch_select_one;
    Alcotest.test_case "graph branch select all" `Quick test_graph_branch_select_all;
    Alcotest.test_case "graph unknown path" `Quick test_graph_branch_unknown_path;
    Alcotest.test_case "graph empty selection" `Quick test_graph_branch_empty_selection_prunes;
    Alcotest.test_case "graph nested branches" `Quick test_graph_nested_branches;
    Alcotest.test_case "graph with_select" `Quick test_graph_with_select;
    Alcotest.test_case "graph tasks listing" `Quick test_graph_tasks_listing;
    Alcotest.test_case "repository counts" `Quick test_repository_counts;
    Alcotest.test_case "repository dynamic flags" `Quick test_repository_dynamic_flags;
    Alcotest.test_case "psa nbody gpu" `Quick test_psa_nbody_gpu;
    Alcotest.test_case "psa kmeans cpu" `Quick test_psa_kmeans_cpu;
    Alcotest.test_case "psa adpredictor fpga" `Quick test_psa_adpredictor_fpga;
    Alcotest.test_case "psa rush larsen gpu" `Quick test_psa_rush_larsen_gpu;
    Alcotest.test_case "psa bezier gpu" `Quick test_psa_bezier_gpu;
    Alcotest.test_case "psa reasons" `Quick test_psa_reasons_nonempty;
    Alcotest.test_case "psa threshold sensitivity" `Quick test_psa_threshold_sensitivity;
    Alcotest.test_case "psa missing facts" `Quick test_psa_missing_facts;
    Alcotest.test_case "engine uninformed counts" `Slow test_engine_uninformed_counts;
    Alcotest.test_case "engine designs valid" `Slow test_engine_designs_valid;
    Alcotest.test_case "engine designs typecheck" `Slow test_engine_designs_typecheck;
    Alcotest.test_case "engine rush larsen fpga n/a" `Slow test_engine_rush_larsen_fpga_infeasible;
    Alcotest.test_case "engine rush larsen keeps DP" `Slow test_engine_rush_larsen_keeps_dp;
    Alcotest.test_case "engine informed single branch" `Slow test_engine_informed_single_branch;
    Alcotest.test_case "engine loc positive" `Slow test_engine_loc_positive;
    Alcotest.test_case "engine omp least loc" `Slow test_engine_omp_cheapest_loc;
    Alcotest.test_case "engine speedups positive" `Slow test_engine_speedups_positive;
    Alcotest.test_case "engine best design" `Slow test_engine_best_design;
    Alcotest.test_case "target labels" `Quick test_target_labels;
    Alcotest.test_case "pipeline shape" `Quick test_pipeline_shape;
    Alcotest.test_case "graph to dot" `Quick test_graph_to_dot;
    Alcotest.test_case "cost monetary" `Quick test_cost_monetary;
    Alcotest.test_case "cost relative/crossover" `Quick test_cost_relative_and_crossover;
    Alcotest.test_case "cost cheapest" `Quick test_cost_cheapest;
    Alcotest.test_case "budget generous" `Slow test_budget_generous_keeps_decision;
    Alcotest.test_case "budget zero falls through" `Slow test_budget_zero_falls_through;
    Alcotest.test_case "budget cost consistency" `Slow test_budget_attempt_costs_consistent;
    Alcotest.test_case "fig5 rows" `Slow test_fig5_rows;
    Alcotest.test_case "fig5 informed=best" `Slow test_fig5_informed_matches_best;
    Alcotest.test_case "table1 rows" `Slow test_table1_rows;
    Alcotest.test_case "fig6 series" `Slow test_fig6_series;
    Alcotest.test_case "user program informed" `Slow test_user_program_informed;
    Alcotest.test_case "user program uninformed" `Slow test_user_program_uninformed;
    Alcotest.test_case "ml features" `Slow test_ml_features_extraction;
    Alcotest.test_case "ml features need analysis" `Quick test_ml_features_require_analysis;
    Alcotest.test_case "ml training recall" `Slow test_ml_training_and_recall;
    Alcotest.test_case "ml leave-one-out" `Slow test_ml_leave_one_out_vs_informed;
    Alcotest.test_case "ml strategy pluggable" `Slow test_ml_strategy_pluggable;
    Alcotest.test_case "ml empty training" `Quick test_ml_empty_training;
    Alcotest.test_case "scheduler alternatives" `Slow test_scheduler_alternatives;
    Alcotest.test_case "scheduler cost vs makespan" `Slow test_scheduler_min_cost_vs_makespan;
    Alcotest.test_case "scheduler parallelism" `Slow test_scheduler_parallelism_helps;
    Alcotest.test_case "scheduler job scale" `Slow test_scheduler_job_scale;
    Alcotest.test_case "scheduler empty pool" `Slow test_scheduler_empty_pool;
    Alcotest.test_case "scheduler render" `Slow test_scheduler_render;
    Alcotest.test_case "ablation smoke" `Slow test_ablation_smoke;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
  ]
