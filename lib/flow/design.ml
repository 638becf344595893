type t = {
  d_app : App.t;
  d_target : Target.t;
  d_path : (string * string) list;
  d_program : Ast.program;
  d_sp : bool;
  d_feasible : bool;
  d_time_s : float option;
  d_speedup : float option;
  d_loc_added_pct : float;
  d_valid : bool;
  d_log : string list;
  d_prov : Prov.step list;
}

let of_outcome ~app ~reference_loc ~baseline_s ~reference_output
    (oc : Graph.outcome) =
  let art = oc.Graph.oc_artifact in
  match art.Artifact.art_design with
  | None -> Error "flow outcome carries no design"
  | Some ds ->
    let time_s = if ds.Artifact.ds_feasible then ds.Artifact.ds_estimate_s else None in
    let speedup =
      match time_s with
      | Some t when t > 0.0 -> Some (baseline_s /. t)
      | Some _ | None -> None
    in
    let tol =
      if ds.Artifact.ds_sp then Suite.sp_rel_tolerance app else 1e-9
    in
    let valid =
      match ds.Artifact.ds_output with
      | Some output -> Tasks.validate_outputs ~tol ~reference:reference_output output
      | None -> false
    in
    Ok
      {
        d_app = app;
        d_target = ds.Artifact.ds_target;
        d_path = oc.Graph.oc_path;
        d_program = art.Artifact.art_program;
        d_sp = ds.Artifact.ds_sp;
        d_feasible = ds.Artifact.ds_feasible;
        d_time_s = time_s;
        d_speedup = speedup;
        d_loc_added_pct =
          Loc_count.added_pct ~reference_loc ~design:art.Artifact.art_program;
        d_valid = valid;
        d_log = art.Artifact.art_log;
        d_prov = art.Artifact.art_prov;
      }

let label t = Target.label t.d_target

let compare_speedup a b =
  match a.d_speedup, b.d_speedup with
  | Some x, Some y -> compare y x
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> 0
