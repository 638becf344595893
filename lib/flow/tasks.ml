let ( let* ) = Result.bind

let kernel_name = "knl"

let share_threshold = 0.5

(* ---- output validation ---- *)

let validate_outputs ?(tol = 1e-9) ~reference actual =
  List.length reference = List.length actual
  && List.for_all2
       (fun r a ->
         match float_of_string_opt r, float_of_string_opt a with
         | Some fr, Some fa ->
           let scale = Float.max 1e-9 (Float.max (Float.abs fr) (Float.abs fa)) in
           Float.abs (fr -. fa) /. scale <= tol
         | _, _ -> String.equal r a)
       reference actual

(* ---- target-independent tasks ---- *)

let identify_hotspot_loops =
  Task.make ~name:"Identify Hotspot Loops" ~kind:Task.Analysis
    ~scope:Task.Target_independent ~dynamic:true (fun art ->
      let config = Artifact.machine_config art in
      let hotspots = Hotspot.detect ~config art.Artifact.art_program in
      let parallelisable (h : Hotspot.hotspot) =
        match Query.find_loop art.Artifact.art_program h.hs_sid with
        | None -> false
        | Some lm ->
          (Dependence.analyse_loop art.Artifact.art_program lm)
            .Dependence.parallel_with_reductions
      in
      let heavy =
        List.filter (fun (h : Hotspot.hotspot) -> h.hs_share >= share_threshold) hotspots
      in
      let parallel_heavy = List.filter parallelisable heavy in
      let chosen =
        match
          List.sort
            (fun (a : Hotspot.hotspot) b ->
              compare (a.hs_depth, -.a.hs_share) (b.hs_depth, -.b.hs_share))
            parallel_heavy
        with
        | h :: _ -> Some h
        | [] ->
          (match List.filter (fun (h : Hotspot.hotspot) -> h.hs_depth = 0) hotspots with
           | h :: _ -> Some h
           | [] -> None)
      in
      match chosen with
      | None -> Error "no loops found to accelerate"
      | Some h ->
        Ok
          (Artifact.logf
             {
               art with
               Artifact.art_hotspots = Some hotspots;
               art_hotspot_sid = Some h.hs_sid;
             }
             "hotspot: loop %d in %s (%.1f%% of run, depth %d)" h.hs_sid h.hs_func
             (100.0 *. h.hs_share) h.hs_depth))

let hotspot_extraction =
  Task.make ~name:"Hotspot Loop Extraction" ~kind:Task.Transform
    ~scope:Task.Target_independent (fun art ->
      match art.Artifact.art_hotspot_sid with
      | None -> Error "run hotspot identification first"
      | Some sid ->
        let* ex = Hotspot.extract art.Artifact.art_program ~sid ~kernel_name in
        Ok
          {
            art with
            Artifact.art_program = ex.Hotspot.ex_program;
            art_kernel = Some ex.Hotspot.ex_kernel;
          })

let remove_array_acc_dependency =
  Task.make ~name:"Remove Array += Dependency" ~kind:Task.Transform
    ~scope:Task.Target_independent (fun art ->
      let kernel = Artifact.kernel_exn art in
      match Ast.find_func art.Artifact.art_program kernel with
      | None -> Error "kernel disappeared"
      | Some fn ->
        let loops = Query.loops_in_func fn in
        let program, n =
          List.fold_left
            (fun (p, n) (lm : Query.loop_match) ->
              let sid = lm.lm_stmt.Ast.sid in
              let cands = Scalarize.candidates p ~loop_sid:sid in
              if cands = [] then (p, n)
              else (Scalarize.apply p ~loop_sid:sid, n + List.length cands))
            (art.Artifact.art_program, 0)
            loops
        in
        Ok
          (Artifact.logf
             { art with Artifact.art_program = program }
             "scalarised %d array accumulator(s)" n))

(* Always recollect: the interpretation behind [Kprofile.collect] is
   memoized (Memo), so recollection only redoes the cheap static part
   while keeping every analysis task's view of the profile fresh. *)
let ensure_kprofile art =
  let kernel = Artifact.kernel_exn art in
  let config = Artifact.machine_config art in
  let* kp = Kprofile.collect ~config art.Artifact.art_program ~kernel in
  (* extrapolate the measured profile to the paper-scale workload *)
  let kp = Kprofile.scale kp art.Artifact.art_app.App.app_outer_scale in
  Ok
    {
      art with
      Artifact.art_kprofile = Some kp;
      art_reference_output =
        Some kp.Kprofile.kp_cpu_baseline_result.Machine.output;
    }

let pointer_analysis =
  Task.make ~name:"Pointer Analysis" ~kind:Task.Analysis ~scope:Task.Target_independent
    ~dynamic:true (fun art ->
      let* art = ensure_kprofile art in
      let kp = Artifact.kprofile_exn art in
      let kernel = Artifact.kernel_exn art in
      let program =
        if kp.Kprofile.kp_no_alias then
          Alias.mark_restrict art.Artifact.art_program ~fname:kernel
        else art.Artifact.art_program
      in
      Ok
        (Artifact.logf
           {
             art with
             Artifact.art_program = program;
             art_alias_free = Some kp.Kprofile.kp_no_alias;
           }
           "pointer arguments %s"
           (if kp.Kprofile.kp_no_alias then "never alias: marked __restrict__"
            else "may alias")))

let loop_tripcount_analysis =
  Task.make ~name:"Loop Trip-Count Analysis" ~kind:Task.Analysis
    ~scope:Task.Target_independent ~dynamic:true (fun art ->
      let* art = ensure_kprofile art in
      let kp = Artifact.kprofile_exn art in
      Ok
        (Artifact.logf art "outer loop runs %d iterations over %d invocation(s)"
           kp.Kprofile.kp_outer_trips kp.Kprofile.kp_invocations))

let data_inout_analysis =
  Task.make ~name:"Data In/Out Analysis" ~kind:Task.Analysis
    ~scope:Task.Target_independent ~dynamic:true (fun art ->
      let* art = ensure_kprofile art in
      let kp = Artifact.kprofile_exn art in
      let t_transfer =
        Transfer.time_s Transfer.pcie_gen3
          ~bytes:(kp.Kprofile.kp_bytes_in + kp.Kprofile.kp_bytes_out)
          ~transactions:(2 * kp.Kprofile.kp_invocations)
      in
      Ok
        (Artifact.logf
           { art with Artifact.art_t_transfer = Some t_transfer }
           "data in %d B, out %d B; est. transfer %.3g s" kp.Kprofile.kp_bytes_in
           kp.Kprofile.kp_bytes_out t_transfer))

let arithmetic_intensity_analysis =
  Task.make ~name:"Arithmetic Intensity Analysis" ~kind:Task.Analysis
    ~scope:Task.Target_independent (fun art ->
      let* art = ensure_kprofile art in
      let kp = Artifact.kprofile_exn art in
      let measure =
        Intensity.of_region_stats
          {
            Machine.rs_invocations = kp.Kprofile.kp_invocations;
            rs_counters = kp.Kprofile.kp_counters;
            rs_traffic = [];
            rs_bytes_in = kp.Kprofile.kp_bytes_in;
            rs_bytes_out = kp.Kprofile.kp_bytes_out;
          }
      in
      let t_cpu = (Cpu_model.single_thread Device.epyc_7543 kp).Cpu_model.ce_time_s in
      Ok
        (Artifact.logf
           {
             art with
             Artifact.art_intensity = Some measure;
             art_t_cpu_single = Some t_cpu;
           }
           "FLOPs/B = %.2f; single-thread CPU time %.3g s" measure.Intensity.ai_value
           t_cpu))

let loop_dependence_analysis =
  Task.make ~name:"Loop Dependence Analysis" ~kind:Task.Analysis
    ~scope:Task.Target_independent (fun art ->
      let* art = ensure_kprofile art in
      let kp = Artifact.kprofile_exn art in
      let v = kp.Kprofile.kp_outer_verdict in
      Ok
        (Artifact.logf art "outer loop %s (%d reduction(s), %d carried)"
           (if v.Dependence.parallel_with_reductions then "is parallel" else "carries dependences")
           (List.length v.Dependence.reductions)
           (List.length v.Dependence.carried)))

let target_independent =
  [
    identify_hotspot_loops;
    hotspot_extraction;
    remove_array_acc_dependency;
    pointer_analysis;
    loop_tripcount_analysis;
    data_inout_analysis;
    arithmetic_intensity_analysis;
    loop_dependence_analysis;
  ]

(* ---- design-state helpers ---- *)

let initial_design ~target ~manage ~compute ?body ?thread_index () =
  {
    Artifact.ds_target = target;
    ds_manage_fn = manage;
    ds_compute_fn = compute;
    ds_body_fn = body;
    ds_thread_index = thread_index;
    ds_sp = false;
    ds_kprofile = None;
    ds_kstatic = None;
    ds_estimate_s = None;
    ds_feasible = true;
    ds_output = None;
  }

let run_design_output art =
  let config = Artifact.machine_config art in
  let result = Memo.run ~config art.Artifact.art_program in
  result.Machine.output

(* demote the annotated device-buffer declarations of the management fn *)
let demote_buffers program ~manage_fn =
  match Ast.find_func program manage_fn with
  | None -> program
  | Some fn ->
    let fbody =
      List.map
        (fun (s : Ast.stmt) ->
          let is_buffer =
            List.exists
              (fun (pr : Ast.pragma) -> List.mem "device_buffer" pr.Ast.pargs)
              s.Ast.pragmas
          in
          match s.Ast.sdesc, is_buffer with
          | Ast.Decl d, true when d.Ast.dty = Ast.Tdouble ->
            { s with Ast.sdesc = Ast.Decl { d with Ast.dty = Ast.Tfloat } }
          | _, _ -> s)
        fn.Ast.fbody
    in
    Ast.replace_func program { fn with Ast.fbody }

(* Apply a precision-affecting transform, validate the design's output
   against the reference at the application's tolerance, and revert the
   transform when validation fails (the paper's SP tasks carry a [*]:
   applied only where precision allows). *)
let sp_guarded_transform art ~transform ~what =
  let ds = Artifact.design_exn art in
  let program = transform art.Artifact.art_program in
  let art' = { art with Artifact.art_program = program } in
  let tol = Suite.sp_rel_tolerance art.Artifact.art_app in
  match art.Artifact.art_reference_output with
  | None -> Error "reference output missing; run the analysis tasks first"
  | Some reference ->
    let output = run_design_output art' in
    if validate_outputs ~tol ~reference output then
      Ok
        (Artifact.logf
           { art' with Artifact.art_design = Some { ds with Artifact.ds_sp = true } }
           "%s validated (tol %.1e)" what tol)
    else
      Ok
        (Artifact.logf art "%s rejected by validation (tol %.1e): keeping double" what
           tol)

let sp_demote_with_guard art ~fnames ~manage_fn =
  sp_guarded_transform art ~what:"single-precision data"
    ~transform:(fun program ->
      let program = Sp_transforms.sp_literals program ~fnames in
      let program = Sp_transforms.demote_types program ~fnames in
      demote_buffers program ~manage_fn)

(* ---- CPU (OpenMP) tasks ---- *)

let multi_thread_parallel_loops =
  Task.make ~name:"Multi-Thread Parallel Loops" ~kind:Task.Transform ~scope:Task.Cpu_omp
    (fun art ->
      let kernel = Artifact.kernel_exn art in
      let* r = Openmp.generate art.Artifact.art_program ~kernel in
      let ds =
        initial_design
          ~target:(Target.Omp { threads = Device.epyc_7543.Device.cores })
          ~manage:kernel ~compute:kernel ()
      in
      let ds = { ds with Artifact.ds_output = art.Artifact.art_reference_output } in
      Ok
        {
          art with
          Artifact.art_program = r.Openmp.omp_program;
          art_design = Some ds;
        })

let omp_num_threads_dse =
  Task.make ~name:"OMP Num. Threads DSE" ~kind:Task.Optimisation ~scope:Task.Cpu_omp
    (fun art ->
      let kernel = Artifact.kernel_exn art in
      let kp = Artifact.kprofile_exn art in
      let ds = Artifact.design_exn art in
      let r = Threads_dse.run Device.epyc_7543 kp art.Artifact.art_program ~kernel in
      let ds =
        {
          ds with
          Artifact.ds_target = Target.Omp { threads = r.Threads_dse.td_threads };
          ds_estimate_s = Some r.Threads_dse.td_estimate.Cpu_model.ce_time_s;
          ds_kprofile = Some kp;
        }
      in
      let art' =
        Artifact.logf
          { art with Artifact.art_program = r.Threads_dse.td_program;
            art_design = Some ds }
          "selected %d threads (est. %.3g s)" r.Threads_dse.td_threads
          r.Threads_dse.td_estimate.Cpu_model.ce_time_s
      in
      Ok
        (Artifact.add_prov art'
           (Prov.Sdse
              {
                sd_tag = "cpu-threads";
                sd_points = List.length r.Threads_dse.td_sweep;
                sd_best = Printf.sprintf "%d threads" r.Threads_dse.td_threads;
              })))

(* ---- GPU (HIP) tasks ---- *)

let generate_hip_design =
  Task.make ~name:"Generate HIP Design" ~kind:Task.Codegen ~scope:Task.Gpu_scope
    (fun art ->
      let kernel = Artifact.kernel_exn art in
      let* r = Hip.generate art.Artifact.art_program ~kernel in
      let thread_index =
        match Ast.find_func r.Hip.hip_program r.Hip.hip_body_fn with
        | Some fn ->
          (match fn.Ast.fbody with
           | { Ast.sdesc = Ast.Decl d; _ } :: _ -> Some d.Ast.dname
           | _ -> None)
        | None -> None
      in
      let ds =
        initial_design
          ~target:
            (Target.Gpu { spec = Device.gtx_1080_ti; params = Gpu_model.default_params })
          ~manage:r.Hip.hip_manage_fn ~compute:r.Hip.hip_launch_fn ~body:r.Hip.hip_body_fn
          ?thread_index ()
      in
      Ok { art with Artifact.art_program = r.Hip.hip_program; art_design = Some ds })

let gpu_body_fn art =
  match (Artifact.design_exn art).Artifact.ds_body_fn with
  | Some f -> Ok f
  | None -> Error "no GPU body function; generate the HIP design first"

let gpu_sp_math_fns =
  Task.make ~name:"Employ SP Math Fns" ~kind:Task.Transform ~scope:Task.Gpu_scope
    ~dynamic:true (fun art ->
      let* body = gpu_body_fn art in
      sp_guarded_transform art ~what:"single-precision math functions"
        ~transform:(fun program -> Sp_transforms.sp_math_fns program ~fnames:[ body ]))

let gpu_sp_numeric_literals =
  Task.make ~name:"Employ SP Numeric Literals" ~kind:Task.Transform ~scope:Task.Gpu_scope
    ~dynamic:true (fun art ->
      let* body = gpu_body_fn art in
      let ds = Artifact.design_exn art in
      (* the launch function passes the device buffers to the body, so its
         pointer parameters demote with them *)
      sp_demote_with_guard art
        ~fnames:[ body; ds.Artifact.ds_compute_fn ]
        ~manage_fn:ds.Artifact.ds_manage_fn)

let employ_hip_pinned_memory =
  Task.make ~name:"Employ HIP Pinned Memory" ~kind:Task.Transform ~scope:Task.Gpu_scope
    (fun art ->
      let ds = Artifact.design_exn art in
      Ok
        {
          art with
          Artifact.art_program =
            Hip.employ_pinned art.Artifact.art_program ~manage_fn:ds.Artifact.ds_manage_fn;
        })

let introduce_shared_mem_buf =
  Task.make ~name:"Introduce Shared Mem Buf" ~kind:Task.Transform ~scope:Task.Gpu_scope
    (fun art ->
      let* body = gpu_body_fn art in
      match Shared_mem.apply art.Artifact.art_program ~body_fn:body with
      | Ok applied ->
        Ok
          (Artifact.logf
             { art with Artifact.art_program = applied.Shared_mem.sm_program }
             "staged %s through shared-memory tiles"
             (String.concat ", " applied.Shared_mem.sm_arrays))
      | Error _ -> Ok (Artifact.log art "no shared-memory candidates"))

let employ_specialised_math_fns =
  Task.make ~name:"Employ Specialised Math Fns" ~kind:Task.Transform ~scope:Task.Gpu_scope
    (fun art ->
      let* body = gpu_body_fn art in
      Ok
        {
          art with
          Artifact.art_program = Specialized_math.apply art.Artifact.art_program ~fnames:[ body ];
        })

let has_shared_tiling program ~body_fn =
  match Ast.find_func program body_fn with
  | None -> false
  | Some fn ->
    List.exists
      (fun (lm : Query.loop_match) ->
        List.exists
          (fun (pr : Ast.pragma) -> List.mem "shared_tiling" pr.Ast.pargs)
          lm.lm_stmt.Ast.pragmas)
      (Query.loops_in_func fn)

let profile_gpu_design =
  Task.make ~name:"Profile HIP Design" ~kind:Task.Analysis ~scope:Task.Gpu_scope
    ~dynamic:true (fun art ->
      let ds = Artifact.design_exn art in
      let* body = gpu_body_fn art in
      let config = Artifact.machine_config art in
      let* kp =
        Kprofile.collect ~config art.Artifact.art_program ~kernel:ds.Artifact.ds_compute_fn
      in
      let kp = Kprofile.scale kp art.Artifact.art_app.App.app_outer_scale in
      let* ks =
        Kstatic.of_kernel art.Artifact.art_program ~fname:body
          ?thread_index:ds.Artifact.ds_thread_index
      in
      let output = kp.Kprofile.kp_cpu_baseline_result.Machine.output in
      Ok
        {
          art with
          Artifact.art_design =
            Some
              {
                ds with
                Artifact.ds_kprofile = Some kp;
                ds_kstatic = Some ks;
                ds_output = Some output;
              };
        })

let gpu_blocksize_dse (spec : Device.gpu_spec) =
  let dev =
    if spec.Device.gpu_name = Device.gtx_1080_ti.Device.gpu_name then "1080"
    else "2080"
  in
  Task.make
    ~name:(Printf.sprintf "%s Blocksize DSE" (if dev = "1080" then "GTX 1080" else "RTX 2080"))
    ~kind:Task.Optimisation ~scope:(Task.Gpu_device dev) (fun art ->
      let ds = Artifact.design_exn art in
      match ds.Artifact.ds_kprofile, ds.Artifact.ds_kstatic, ds.Artifact.ds_body_fn with
      | Some kp, Some ks, Some body ->
        let base =
          {
            Gpu_model.blocksize = 256;
            pinned = Hip.is_pinned art.Artifact.art_program ~manage_fn:ds.Artifact.ds_manage_fn;
            shared_tiling = has_shared_tiling art.Artifact.art_program ~body_fn:body;
          }
        in
        let r =
          Blocksize_dse.run spec ks kp ~base art.Artifact.art_program
            ~launch_fn:ds.Artifact.ds_compute_fn
        in
        let params = { base with Gpu_model.blocksize = r.Blocksize_dse.bd_blocksize } in
        let ds =
          {
            ds with
            Artifact.ds_target = Target.Gpu { spec; params };
            ds_estimate_s = Some r.Blocksize_dse.bd_estimate.Gpu_model.ge_time_s;
            ds_feasible = r.Blocksize_dse.bd_estimate.Gpu_model.ge_launchable;
          }
        in
        let art' =
          Artifact.logf
            { art with Artifact.art_program = r.Blocksize_dse.bd_program;
              art_design = Some ds }
            "blocksize %d (est. %.3g s, occupancy %.0f%%, %d regs/thread)"
            r.Blocksize_dse.bd_blocksize r.Blocksize_dse.bd_estimate.Gpu_model.ge_time_s
            (100.0 *. r.Blocksize_dse.bd_estimate.Gpu_model.ge_occupancy)
            r.Blocksize_dse.bd_estimate.Gpu_model.ge_regs_per_thread
        in
        Ok
          (Artifact.add_prov art'
             (Prov.Sdse
                {
                  sd_tag = "gpu-blocksize";
                  sd_points = List.length r.Blocksize_dse.bd_sweep;
                  sd_best =
                    Printf.sprintf "blocksize %d" r.Blocksize_dse.bd_blocksize;
                }))
      | _, _, _ -> Error "profile the HIP design before the blocksize DSE")

(* ---- FPGA (oneAPI) tasks ---- *)

let generate_oneapi_design =
  Task.make ~name:"Generate oneAPI Design" ~kind:Task.Codegen ~scope:Task.Fpga_scope
    (fun art ->
      let kernel = Artifact.kernel_exn art in
      let* r = Oneapi.generate art.Artifact.art_program ~kernel in
      let ds =
        initial_design
          ~target:
            (Target.Fpga { spec = Device.pac_arria10; params = Fpga_model.default_params })
          ~manage:r.Oneapi.oneapi_manage_fn ~compute:r.Oneapi.oneapi_kernel_fn ()
      in
      Ok { art with Artifact.art_program = r.Oneapi.oneapi_program; art_design = Some ds })

let unroll_fixed_loops =
  Task.make ~name:"Unroll Fixed Loops" ~kind:Task.Transform ~scope:Task.Fpga_scope
    (fun art ->
      let ds = Artifact.design_exn art in
      Ok
        {
          art with
          Artifact.art_program =
            Unroll.unroll_fixed_inner art.Artifact.art_program
              ~kernel:ds.Artifact.ds_compute_fn;
        })

let fpga_sp_math_fns =
  Task.make ~name:"Employ SP Math Fns" ~kind:Task.Transform ~scope:Task.Fpga_scope
    ~dynamic:true (fun art ->
      let ds = Artifact.design_exn art in
      sp_guarded_transform art ~what:"single-precision math functions"
        ~transform:(fun program ->
          Sp_transforms.sp_math_fns program ~fnames:[ ds.Artifact.ds_compute_fn ]))

let fpga_sp_numeric_literals =
  Task.make ~name:"Employ SP Numeric Literals" ~kind:Task.Transform ~scope:Task.Fpga_scope
    ~dynamic:true (fun art ->
      let ds = Artifact.design_exn art in
      sp_demote_with_guard art ~fnames:[ ds.Artifact.ds_compute_fn ]
        ~manage_fn:ds.Artifact.ds_manage_fn)

let zero_copy_data_transfer =
  Task.make ~name:"Zero-Copy Data Transfer" ~kind:Task.Transform
    ~scope:(Task.Fpga_device "S10") (fun art ->
      let ds = Artifact.design_exn art in
      Ok
        {
          art with
          Artifact.art_program =
            Oneapi.employ_zero_copy art.Artifact.art_program
              ~manage_fn:ds.Artifact.ds_manage_fn ~kernel_fn:ds.Artifact.ds_compute_fn;
        })

let profile_fpga_design =
  Task.make ~name:"Profile oneAPI Design" ~kind:Task.Analysis ~scope:Task.Fpga_scope
    ~dynamic:true (fun art ->
      let ds = Artifact.design_exn art in
      let config = Artifact.machine_config art in
      let* kp =
        Kprofile.collect ~config art.Artifact.art_program ~kernel:ds.Artifact.ds_compute_fn
      in
      let kp = Kprofile.scale kp art.Artifact.art_app.App.app_outer_scale in
      let* ks =
        Kstatic.of_kernel art.Artifact.art_program ~require_unroll_pragma:true
          ~fname:ds.Artifact.ds_compute_fn
      in
      let output = kp.Kprofile.kp_cpu_baseline_result.Machine.output in
      Ok
        {
          art with
          Artifact.art_design =
            Some
              {
                ds with
                Artifact.ds_kprofile = Some kp;
                ds_kstatic = Some ks;
                ds_output = Some output;
              };
        })

let fpga_unroll_until_overmap_dse (spec : Device.fpga_spec) =
  let dev =
    if spec.Device.fpga_name = Device.pac_arria10.Device.fpga_name then "A10" else "S10"
  in
  Task.make
    ~name:(Printf.sprintf "%s Unroll Until Overmap DSE" dev)
    ~kind:Task.Optimisation ~scope:(Task.Fpga_device dev) (fun art ->
      let ds = Artifact.design_exn art in
      match ds.Artifact.ds_kprofile, ds.Artifact.ds_kstatic with
      | Some kp, Some ks ->
        let zero_copy =
          Oneapi.is_zero_copy art.Artifact.art_program ~kernel_fn:ds.Artifact.ds_compute_fn
        in
        let r =
          Unroll_dse.run spec ks kp ~zero_copy art.Artifact.art_program
            ~kernel_fn:ds.Artifact.ds_compute_fn
        in
        let feasible = r.Unroll_dse.ud_unroll <> None in
        let params =
          {
            Fpga_model.unroll = Option.value r.Unroll_dse.ud_unroll ~default:1;
            zero_copy;
          }
        in
        let ds =
          {
            ds with
            Artifact.ds_target = Target.Fpga { spec; params };
            ds_estimate_s =
              (if feasible then Some r.Unroll_dse.ud_estimate.Fpga_model.fe_time_s
               else None);
            ds_feasible = feasible;
          }
        in
        let art' =
          { art with Artifact.art_program = r.Unroll_dse.ud_program; art_design = Some ds }
        in
        let art' =
          Artifact.add_prov art'
            (Prov.Sdse
               {
                 sd_tag = "fpga-unroll";
                 sd_points = List.length r.Unroll_dse.ud_trace;
                 sd_best =
                   (match r.Unroll_dse.ud_unroll with
                    | Some u -> Printf.sprintf "unroll %d" u
                    | None -> "overmapped at unroll 1");
               })
        in
        if feasible then
          Ok
            (Artifact.logf art' "unroll %d (est. %.3g s, %.0f%% ALMs, II=%.0f)"
               params.Fpga_model.unroll r.Unroll_dse.ud_estimate.Fpga_model.fe_time_s
               (100.0 *. r.Unroll_dse.ud_estimate.Fpga_model.fe_resources.Fpga_model.r_alm_frac)
               r.Unroll_dse.ud_estimate.Fpga_model.fe_ii)
        else
          let alm_frac_1 =
            (* the DSE's doubling loop already evaluated unroll 1 *)
            match List.assoc_opt 1 r.Unroll_dse.ud_trace with
            | Some frac -> frac
            | None -> (Fpga_model.resources_of spec ks ~unroll:1).Fpga_model.r_alm_frac
          in
          Ok
            (Artifact.logf art'
               "design overmaps %s at unroll 1 (%.0f%% ALMs): not synthesisable" dev
               (100.0 *. alm_frac_1))
      | _, _ -> Error "profile the oneAPI design before the unroll DSE")
