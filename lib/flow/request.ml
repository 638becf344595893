type source =
  | Builtin of string
  | Inline of { name : string; text : string; scale : int }

type spec = {
  sp_source : source;
  sp_mode : Pipeline.mode;
  sp_quick : bool;
  sp_step_budget : int option;
  sp_jobs_hint : int option;
}

type outcome = {
  oc_status : int;
  oc_report : Engine.report option;
  oc_error : string;
  oc_text : string;
  oc_why : string;
}

let exit_partial = 3

let exit_none = 4

let inline_app ~name ~text ~scale =
  let app =
    {
      App.app_name = name ^ " (user program)";
      app_slug = name;
      app_descr = "inline source: " ^ name;
      app_source = text;
      app_eval_overrides = [];
      app_test_overrides = [];
      app_outer_scale = max 1 scale;
    }
  in
  (* surface parse/type errors as a readable message, not an exception *)
  match App.program app with
  | exception Failure msg -> Error msg
  | _ -> Ok app

let resolve spec =
  let app =
    match spec.sp_source with
    | Builtin slug -> (
      match Suite.find slug with
      | Some app -> Ok app
      | None ->
        Error
          (Printf.sprintf "unknown benchmark %S (try: %s)" slug
             (String.concat ", "
                (List.map (fun (a : App.t) -> a.App.app_slug) Suite.all))))
    | Inline { name; text; scale } -> inline_app ~name ~text ~scale
  in
  Result.map
    (fun (app : App.t) ->
      let workload =
        if spec.sp_quick then app.App.app_test_overrides
        else app.App.app_eval_overrides
      in
      (app, workload))
    app

let status_of_report (rep : Engine.report) =
  if rep.Engine.rep_failures = [] then 0
  else if rep.Engine.rep_designs <> [] then exit_partial
  else exit_none

let failed msg =
  { oc_status = 1; oc_report = None; oc_error = msg; oc_text = ""; oc_why = "" }

let run spec =
  match resolve spec with
  | Error msg -> failed msg
  | Ok (app, workload) -> (
    match
      Engine.run ~workload ?step_budget:spec.sp_step_budget ~mode:spec.sp_mode app
    with
    | Error msg -> failed msg
    | Ok rep ->
      {
        oc_status = status_of_report rep;
        oc_report = Some rep;
        oc_error = "";
        oc_text = Report.run_text rep;
        oc_why = Report.why_text rep;
      })
