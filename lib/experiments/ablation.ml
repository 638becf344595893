type row = {
  ab_variant : string;
  ab_time_s : float option;
  ab_slowdown : float option;
}

let ( let* ) = Result.bind

(* run the target-independent stage, optionally dropping one task *)
let analyse ?(drop = "") ~quick (app : App.t) =
  let tasks =
    List.filter (fun (t : Task.t) -> t.Task.name <> drop) Tasks.target_independent
  in
  let workload =
    if quick then app.App.app_test_overrides else app.App.app_eval_overrides
  in
  let art = Artifact.create app ~workload in
  match Graph.run (Graph.Seq (List.map (fun t -> Graph.Task t) tasks)) art with
  | Ok [ oc ] -> Ok oc.Graph.oc_artifact
  | Ok _ -> Error "unexpected fan-out"
  | Error e -> Error e

let best_time_of_branch art node =
  let* outcomes = Graph.run node art in
  let times =
    List.filter_map
      (fun (oc : Graph.outcome) ->
        match oc.Graph.oc_artifact.Artifact.art_design with
        | Some ds when ds.Artifact.ds_feasible -> ds.Artifact.ds_estimate_s
        | Some _ | None -> None)
      outcomes
  in
  match List.sort compare times with
  | [] -> Ok None
  | t :: _ -> Ok (Some t)

let seq tasks = Graph.Seq (List.map (fun t -> Graph.Task t) tasks)

let gpu_branch ?(drop = "") ?(fixed_blocksize = false) () =
  let stages =
    [
      Tasks.generate_hip_design;
      Tasks.gpu_sp_math_fns;
      Tasks.gpu_sp_numeric_literals;
      Tasks.introduce_shared_mem_buf;
      Tasks.employ_specialised_math_fns;
      Tasks.employ_hip_pinned_memory;
      Tasks.profile_gpu_design;
    ]
  in
  let dropped =
    List.filter
      (fun (t : Task.t) ->
        t.Task.name <> drop
        && not (drop = "Employ SP" && String.length t.Task.name >= 9
                && String.sub t.Task.name 0 9 = "Employ SP"))
      stages
  in
  let final =
    if fixed_blocksize then
      (* keep the generated default (256): evaluate the model at it *)
      Task.make ~name:"Fixed Blocksize 256" ~kind:Task.Optimisation
        ~scope:(Task.Gpu_device "2080") (fun art ->
          let ds = Artifact.design_exn art in
          match ds.Artifact.ds_kprofile, ds.Artifact.ds_kstatic, ds.Artifact.ds_body_fn with
          | Some kp, Some ks, Some body ->
            let params =
              {
                Gpu_model.blocksize = 256;
                pinned = Hip.is_pinned art.Artifact.art_program ~manage_fn:ds.Artifact.ds_manage_fn;
                shared_tiling = Tasks.has_shared_tiling art.Artifact.art_program ~body_fn:body;
              }
            in
            let e = Gpu_model.estimate Device.rtx_2080_ti ks kp params in
            let ds =
              {
                ds with
                Artifact.ds_target = Target.Gpu { spec = Device.rtx_2080_ti; params };
                ds_estimate_s = Some e.Gpu_model.ge_time_s;
                ds_feasible = e.Gpu_model.ge_launchable;
              }
            in
            Ok { art with Artifact.art_design = Some ds }
          | _, _, _ -> Error "profile missing")
    else Tasks.gpu_blocksize_dse Device.rtx_2080_ti
  in
  seq (dropped @ [ final ])

let fpga_branch ?(drop = "") ?(fixed_unroll = false) () =
  let stages =
    [
      Tasks.generate_oneapi_design;
      Tasks.unroll_fixed_loops;
      Tasks.fpga_sp_math_fns;
      Tasks.fpga_sp_numeric_literals;
      Tasks.zero_copy_data_transfer;
      Tasks.profile_fpga_design;
    ]
  in
  let dropped =
    List.filter
      (fun (t : Task.t) ->
        t.Task.name <> drop
        && not (drop = "Employ SP" && String.length t.Task.name >= 9
                && String.sub t.Task.name 0 9 = "Employ SP"))
      stages
  in
  let final =
    if fixed_unroll then
      Task.make ~name:"Fixed Unroll 1" ~kind:Task.Optimisation
        ~scope:(Task.Fpga_device "S10") (fun art ->
          let ds = Artifact.design_exn art in
          match ds.Artifact.ds_kprofile, ds.Artifact.ds_kstatic with
          | Some kp, Some ks ->
            let zero_copy =
              Oneapi.is_zero_copy art.Artifact.art_program
                ~kernel_fn:ds.Artifact.ds_compute_fn
            in
            let params = { Fpga_model.unroll = 1; zero_copy } in
            let e = Fpga_model.estimate Device.pac_stratix10 ks kp params in
            let ds =
              {
                ds with
                Artifact.ds_target = Target.Fpga { spec = Device.pac_stratix10; params };
                ds_estimate_s =
                  (if e.Fpga_model.fe_overmapped then None else Some e.Fpga_model.fe_time_s);
                ds_feasible = not e.Fpga_model.fe_overmapped;
              }
            in
            Ok { art with Artifact.art_design = Some ds }
          | _, _ -> Error "profile missing")
    else Tasks.fpga_unroll_until_overmap_dse Device.pac_stratix10
  in
  seq (dropped @ [ final ])

let study ~quick variants (app : App.t) =
  let* base_art = analyse ~quick app in
  let* rows =
    List.fold_left
      (fun acc (name, art, node) ->
        let* acc = acc in
        let* art = art in
        let* time = best_time_of_branch art node in
        Ok ((name, time) :: acc))
      (Ok [])
      (variants base_art)
  in
  let rows = List.rev rows in
  let full = List.assoc_opt "full" rows |> Option.join in
  Ok
    (List.map
       (fun (name, time) ->
         {
           ab_variant = name;
           ab_time_s = time;
           ab_slowdown =
             (match time, full with
              | Some t, Some f when f > 0.0 -> Some (t /. f)
              | _, _ -> None);
         })
       rows)

let gpu ?(quick = false) app =
  study ~quick
    (fun base ->
      [
        ("full", Ok base, gpu_branch ());
        ( "without Remove Array += Dependency",
          analyse ~quick ~drop:"Remove Array += Dependency" app,
          gpu_branch () );
        ("without SP transforms", Ok base, gpu_branch ~drop:"Employ SP" ());
        ("without Introduce Shared Mem Buf", Ok base, gpu_branch ~drop:"Introduce Shared Mem Buf" ());
        ("without Employ Specialised Math Fns", Ok base, gpu_branch ~drop:"Employ Specialised Math Fns" ());
        ("without Employ HIP Pinned Memory", Ok base, gpu_branch ~drop:"Employ HIP Pinned Memory" ());
        ("without Blocksize DSE (fixed 256)", Ok base, gpu_branch ~fixed_blocksize:true ());
      ])
    app

let fpga ?(quick = false) app =
  study ~quick
    (fun base ->
      [
        ("full", Ok base, fpga_branch ());
        ("without Unroll Fixed Loops", Ok base, fpga_branch ~drop:"Unroll Fixed Loops" ());
        ("without SP transforms", Ok base, fpga_branch ~drop:"Employ SP" ());
        ("without Zero-Copy Data Transfer", Ok base, fpga_branch ~drop:"Zero-Copy Data Transfer" ());
        ("without Unroll DSE (fixed 1)", Ok base, fpga_branch ~fixed_unroll:true ());
      ])
    app

let render ~title rows =
  let table = Util.Table.create ~headers:[ "variant"; "design time (s)"; "slowdown" ] in
  Util.Table.set_aligns table [ Util.Table.Left; Util.Table.Right; Util.Table.Right ];
  List.iter
    (fun r ->
      Util.Table.add_row table
        [
          r.ab_variant;
          (match r.ab_time_s with Some t -> Printf.sprintf "%.3g" t | None -> "n/a");
          (match r.ab_slowdown with
           | Some s -> Printf.sprintf "%.2fx" s
           | None -> "-");
        ])
    rows;
  title ^ "\n" ^ Util.Table.render table
