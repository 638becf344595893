let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Resolve "ref: refs/heads/x" through loose refs, then packed-refs. *)
let resolve_ref git_dir ref_name =
  let loose = Filename.concat git_dir ref_name in
  match read_file loose with
  | Some s -> Some (String.trim (first_line s))
  | None -> (
    match read_file (Filename.concat git_dir "packed-refs") with
    | None -> None
    | Some packed ->
      String.split_on_char '\n' packed
      |> List.find_map (fun line ->
             match String.index_opt line ' ' with
             | Some i
               when String.sub line (i + 1) (String.length line - i - 1) = ref_name
               -> Some (String.sub line 0 i)
             | _ -> None))

let git_rev =
  let rec find_git dir depth =
    if depth > 5 then None
    else
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists (Filename.concat cand "HEAD") then Some cand
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find_git parent (depth + 1)
  in
  match
    Option.bind (find_git (Sys.getcwd ()) 0) (fun git_dir ->
        Option.bind (read_file (Filename.concat git_dir "HEAD")) (fun head ->
            let head = String.trim (first_line head) in
            if String.length head > 5 && String.sub head 0 5 = "ref: " then
              resolve_ref git_dir
                (String.trim (String.sub head 5 (String.length head - 5)))
            else Some head))
  with
  | Some rev when rev <> "" -> rev
  | _ | (exception _) -> "unknown"

let meta ~cmdline =
  {
    Obs.Ledger.m_git_rev = git_rev;
    m_cmdline = cmdline;
    m_jobs = Util.Pool.default_jobs ();
    m_unix_time = Unix.gettimeofday ();
  }

(* current meta, backend, IR version and metrics snapshot, but no
   designs or failures: the base the two constructors below extend *)
let base ~kind ~app ~mode ~workload ~status ~cmdline =
  {
    Obs.Ledger.r_meta = meta ~cmdline;
    r_stable =
      {
        s_kind = kind;
        s_app = app;
        s_mode = mode;
        s_workload = workload;
        s_backend = Machine.backend_name (Machine.default_backend ());
        s_ir_version = Ir.version;
        s_status = status;
        s_decision = "";
        s_best = None;
        s_best_cost = None;
        s_designs = [];
        s_failures = [];
      };
    r_metrics = Obs.Metrics.flatten (Obs.Metrics.snapshot ());
  }

let design_sum (d : Design.t) =
  {
    Obs.Ledger.ds_target = Target.short d.Design.d_target;
    ds_device = Target.device_name d.Design.d_target;
    ds_time_s = d.Design.d_time_s;
    ds_speedup = d.Design.d_speedup;
    ds_feasible = d.Design.d_feasible;
    ds_valid = d.Design.d_valid;
  }

let failure_sum (f : Graph.failure) =
  let fl = f.Graph.fl_failure in
  {
    Obs.Ledger.fs_path =
      (match f.Graph.fl_path with
      | [] -> fl.Resilience.f_site
      | path -> String.concat "/" (List.map snd path));
    fs_class = Resilience.class_label fl.Resilience.f_class;
    fs_site = fl.Resilience.f_site;
    fs_attempts = fl.Resilience.f_attempts;
    fs_msg = fl.Resilience.f_msg;
  }

let of_report ?(kind = "run") ~cmdline ~status ~mode (rep : Engine.report) =
  let r =
    base ~kind ~app:rep.Engine.rep_app.App.app_slug
      ~mode:(Pipeline.mode_name mode) ~workload:rep.Engine.rep_workload ~status
      ~cmdline
  in
  let best = Engine.best_design rep in
  {
    r with
    r_stable =
      {
        r.r_stable with
        s_decision = rep.Engine.rep_decision.Psa.dec_path;
        s_best = Option.map (fun d -> Target.short d.Design.d_target) best;
        s_best_cost =
          Option.bind best (fun d ->
              Option.map
                (fun t ->
                  Cost.monetary_cost Cost.default_pricing d.Design.d_target
                    ~time_s:t)
                d.Design.d_time_s);
        s_designs = List.map design_sum rep.Engine.rep_designs;
        s_failures = List.map failure_sum rep.Engine.rep_failures;
      };
  }

let of_failure ?(kind = "run") ~cmdline ~status ~app ~mode ~workload msg =
  let r = base ~kind ~app ~mode ~workload ~status ~cmdline in
  {
    r with
    r_stable =
      {
        r.r_stable with
        s_failures =
          [
            {
              Obs.Ledger.fs_path = "flow";
              fs_class = "fatal";
              fs_site = "flow";
              fs_attempts = 1;
              fs_msg = msg;
            };
          ];
      };
  }
