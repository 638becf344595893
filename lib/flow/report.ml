let design_table (rep : Engine.report) =
  let table =
    Util.Table.create
      ~headers:[ "target"; "device"; "time (s)"; "speedup"; "LOC +%"; "prec"; "valid" ]
  in
  Util.Table.set_aligns table
    [ Util.Table.Left; Util.Table.Left; Util.Table.Right; Util.Table.Right;
      Util.Table.Right; Util.Table.Center; Util.Table.Center ];
  List.iter
    (fun (d : Design.t) ->
      Util.Table.add_row table
        [
          Target.short d.Design.d_target;
          Target.device_name d.Design.d_target;
          (match d.Design.d_time_s with
           | Some t -> Printf.sprintf "%.3g" t
           | None -> "n/a");
          (match d.Design.d_speedup with
           | Some s -> Printf.sprintf "%.1fx" s
           | None -> "n/a");
          Printf.sprintf "%+.0f%%" d.Design.d_loc_added_pct;
          (if d.Design.d_sp then "SP" else "DP");
          (if d.Design.d_valid then "yes" else "NO");
        ])
    rep.Engine.rep_designs;
  Util.Table.render table

let decision_text (rep : Engine.report) =
  let d = rep.Engine.rep_decision in
  Printf.sprintf "branch A decision: %s\n%s\n" d.Psa.dec_path
    (String.concat "\n" (List.map (fun r -> "  - " ^ r) d.Psa.dec_reasons))

(* Every run-shaped text names the backend that interpreted the programs:
   a pure function of process configuration, so the line is byte-identical
   whatever the job count or cache temperature. *)
let backend_line () =
  Printf.sprintf "interpreter backend: %s\n"
    (Machine.backend_name (Machine.default_backend ()))

let log_text (rep : Engine.report) =
  backend_line ()
  ^ String.concat "\n" rep.Engine.rep_analysed.Artifact.art_log
  ^ "\n"

(* Deliberately timing-free: the same seed and flow must render
   byte-identical text whatever the cache temperature or job count. *)
let pruned_label (f : Graph.failure) =
  match f.Graph.fl_path with
  | [] -> f.Graph.fl_failure.Resilience.f_site
  | path -> String.concat "/" (List.map snd path)

let why_text (rep : Engine.report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (backend_line ());
  List.iter
    (fun (d : Design.t) ->
      Buffer.add_string buf
        (Printf.sprintf "why %s (%s):\n" (Target.short d.Design.d_target)
           (Target.device_name d.Design.d_target));
      Buffer.add_string buf (Prov.render d.Design.d_prov);
      Buffer.add_char buf '\n')
    rep.Engine.rep_designs;
  (* pruned paths render after the designs, so a failure-free report is
     byte-identical to one produced before failures existed *)
  List.iter
    (fun (f : Graph.failure) ->
      Buffer.add_string buf
        (Printf.sprintf "why %s (pruned):\n" (pruned_label f));
      Buffer.add_string buf (Prov.render f.Graph.fl_prov);
      Buffer.add_char buf '\n')
    rep.Engine.rep_failures;
  Buffer.contents buf

let failures_text (rep : Engine.report) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (f : Graph.failure) ->
      let fl = f.Graph.fl_failure in
      Buffer.add_string buf
        (Printf.sprintf "pruned %-18s %s at %s after %d attempt%s: %s\n"
           (pruned_label f)
           (Resilience.class_label fl.Resilience.f_class)
           fl.Resilience.f_site fl.Resilience.f_attempts
           (if fl.Resilience.f_attempts = 1 then "" else "s")
           fl.Resilience.f_msg))
    rep.Engine.rep_failures;
  Buffer.contents buf

let summary_line (rep : Engine.report) =
  let best = Engine.best_design rep in
  Printf.sprintf "%-28s mode=%-10s branch=%-5s best=%s" rep.Engine.rep_app.App.app_name
    (Pipeline.mode_name rep.Engine.rep_mode)
    rep.Engine.rep_decision.Psa.dec_path
    (match best with
     | Some d ->
       Printf.sprintf "%s (%.1fx)" (Target.short d.Design.d_target)
         (Option.value d.Design.d_speedup ~default:Float.nan)
     | None -> "none")

(* The CLI's default `psaflow run` output, assembled from the same report
   the daemon holds; both surfaces print this exact string so the two can
   be byte-compared (the serve smoke gate does). *)
let run_text (rep : Engine.report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s - %s mode, workload %s\n\n" rep.Engine.rep_app.App.app_name
       (Pipeline.mode_name rep.Engine.rep_mode)
       (String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             rep.Engine.rep_workload)));
  Buffer.add_string buf (decision_text rep);
  Buffer.add_string buf
    (Printf.sprintf "\nbaseline (single-thread CPU hotspot): %.4g s\n\n"
       rep.Engine.rep_baseline_s);
  Buffer.add_string buf (design_table rep);
  if rep.Engine.rep_failures <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (failures_text rep)
  end;
  Buffer.contents buf
