let ( let* ) = Result.bind

type report = {
  rep_app : App.t;
  rep_mode : Pipeline.mode;
  rep_workload : (string * int) list;
  rep_analysed : Artifact.t;
  rep_decision : Psa.decision;
  rep_baseline_s : float;
  rep_designs : Design.t list;
  rep_failures : Graph.failure list;
}

(* Each phase also records its wall-clock into a flow.phase.<slug>.seconds
   gauge — the per-phase section timings persisted in ledger records.
   Gauges hold the most recent run's value; the ledger snapshots them at
   record time, one record per run. *)
let flow_span ~phase name app f =
  let g = Obs.Metrics.gauge ("flow.phase." ^ phase ^ ".seconds") in
  Obs.Trace.with_span
    ~attrs:[ ("app", Obs.Trace.Str app.App.app_name) ]
    ~name ~kind:Obs.Trace.Flow
    (fun _ ->
      let t0 = Obs.Monotonic.now_s () in
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.Gauge.set g (Obs.Monotonic.now_s () -. t0))
        f)

(* An assemble-phase failure (design validation, feasibility modelling)
   prunes its outcome exactly as a task failure would: record a terminal
   Sfailed step on the outcome's trail and keep the siblings. *)
let assemble_failure (oc : Graph.outcome) (f : Resilience.failure) =
  let sfailed =
    Prov.Sfailed
      {
        sf_task = "Assemble Design";
        sf_class = Resilience.class_label f.Resilience.f_class;
        sf_attempts = f.Resilience.f_attempts;
        sf_msg = f.Resilience.f_msg;
      }
  in
  let art = Artifact.add_prov oc.Graph.oc_artifact sfailed in
  {
    Graph.fl_path = oc.Graph.oc_path;
    fl_failure = f;
    fl_prov = art.Artifact.art_prov;
  }

let assemble_site (oc : Graph.outcome) =
  "assemble/" ^ String.concat "/" (List.map snd oc.Graph.oc_path)

(* The target-independent phase every flow starts with: analyse the
   reference program down to one artifact, let the PSA strategy decide,
   and read off what design assembly measures against. *)
type analysis = {
  an_analysed : Artifact.t;
  an_decision : Psa.decision;
  an_baseline_s : float;
  an_reference_output : string list;
  an_reference_loc : int;
}

let analyse ?psa_config ~workload app =
  let art0 = Artifact.create app ~workload in
  let* analysed_outcomes =
    flow_span ~phase:"analyse" "target-independent analysis" app (fun () ->
        Graph.run Pipeline.target_independent art0)
  in
  let* analysed =
    match analysed_outcomes with
    | [ oc ] -> Ok oc.Graph.oc_artifact
    | _ -> Error "target-independent pipeline must produce exactly one artifact"
  in
  let* decision =
    flow_span ~phase:"decide" "psa decide" app (fun () ->
        Psa.decide ?config:psa_config analysed)
  in
  let* baseline_s =
    match analysed.Artifact.art_t_cpu_single with
    | Some t -> Ok t
    | None -> Error "analysis did not produce a CPU baseline"
  in
  let* reference_output =
    match analysed.Artifact.art_reference_output with
    | Some o -> Ok o
    | None -> Error "analysis did not capture the reference output"
  in
  Ok
    {
      an_analysed = analysed;
      an_decision = decision;
      an_baseline_s = baseline_s;
      an_reference_output = reference_output;
      an_reference_loc = Loc_count.program_loc art0.Artifact.art_program;
    }

let design_of an ~app oc =
  Design.of_outcome ~app ~reference_loc:an.an_reference_loc ~baseline_s:an.an_baseline_s
    ~reference_output:an.an_reference_output oc

let run ?psa_config ?workload ?(strict = false) ?step_budget ~mode app =
  flow_span ~phase:"total" ("flow " ^ app.App.app_name) app @@ fun () ->
  let workload = Option.value workload ~default:app.App.app_eval_overrides in
  let* an = analyse ?psa_config ~workload app in
  let analysed = an.an_analysed in
  (* The step budget covers the branch fan-out only: a blown budget
     there prunes one path.  The target-independent phase and design
     assembly run uncapped — they have no sibling paths to fall back on.
     The fan-out's futures carry the budget with them (Util.Reqctx). *)
  let fanout () =
    let node = Pipeline.branch_a ?psa_config mode in
    if strict then Result.map (fun ocs -> (ocs, [])) (Graph.run node analysed)
    else
      Result.map
        (fun r -> (r.Graph.rr_outcomes, r.Graph.rr_pruned))
        (Graph.run_tolerant node analysed)
  in
  let* outcomes, pruned =
    flow_span ~phase:"fanout" "branch fan-out" app (fun () ->
        match step_budget with
        | Some n -> Util.Reqctx.with_step_budget n fanout
        | None -> fanout ())
  in
  let* designs, pruned =
    flow_span ~phase:"assemble" "assemble designs" app @@ fun () ->
    let folded =
      List.fold_left
        (fun acc oc ->
          let* designs, pruned = acc in
          match
            Resilience.supervise ~site:(assemble_site oc) (fun () -> design_of an ~app oc)
          with
          | Ok d -> Ok (d :: designs, pruned)
          | Error f when not strict ->
            Ok (designs, assemble_failure oc f :: pruned)
          | Error f -> Error f.Resilience.f_msg)
        (Ok ([], List.rev pruned))
        outcomes
    in
    Result.map (fun (ds, fs) -> (List.rev ds, List.rev fs)) folded
  in
  Ok
    {
      rep_app = app;
      rep_mode = mode;
      rep_workload = workload;
      rep_analysed = analysed;
      rep_decision = an.an_decision;
      rep_baseline_s = an.an_baseline_s;
      rep_designs = designs;
      rep_failures = pruned;
    }

let best_design report =
  report.rep_designs
  |> List.filter (fun (d : Design.t) -> d.Design.d_feasible && d.Design.d_speedup <> None)
  |> List.sort Design.compare_speedup
  |> function
  | [] -> None
  | d :: _ -> Some d

let design_for report ~short =
  List.find_opt
    (fun (d : Design.t) -> Target.short d.Design.d_target = short)
    report.rep_designs

(* ---- budget feedback (Fig. 3's cost evaluation) ---- *)

type attempt = {
  at_branch : string;
  at_design : Design.t option;
  at_cost : float option;
  at_within : bool;
}

type budget_report = {
  br_app : App.t;
  br_budget : float;
  br_pricing : Cost.pricing;
  br_attempts : attempt list;
  br_accepted : attempt option;
  br_within_budget : bool;
  br_baseline_s : float;
}

let run_budgeted ?psa_config ?workload ?(pricing = Cost.default_pricing) ~budget app =
  let workload = Option.value workload ~default:app.App.app_eval_overrides in
  let* an = analyse ?psa_config ~workload app in
  let try_branch branch =
    let select _ =
      Graph.select
        ~reasons:[ Printf.sprintf "budget feedback loop forcing branch %s" branch ]
        [ branch ]
    in
    let node = Graph.with_select (Pipeline.branch_a Pipeline.Informed) ~branch:"A" select in
    match Graph.run node an.an_analysed with
    | Error _ -> { at_branch = branch; at_design = None; at_cost = None; at_within = false }
    | Ok outcomes ->
      let designs =
        List.filter_map
          (fun oc ->
            match design_of an ~app oc with
            | Ok d when d.Design.d_feasible && d.Design.d_time_s <> None -> Some d
            | Ok _ | Error _ -> None)
          outcomes
      in
      (match List.sort Design.compare_speedup designs with
       | [] -> { at_branch = branch; at_design = None; at_cost = None; at_within = false }
       | best :: _ ->
         let time_s = Option.get best.Design.d_time_s in
         let cost = Cost.monetary_cost pricing best.Design.d_target ~time_s in
         {
           at_branch = branch;
           at_design = Some best;
           at_cost = Some cost;
           at_within = cost <= budget;
         })
  in
  (* the informed path first, then the feedback loop revises through the
     remaining branches *)
  let order =
    an.an_decision.Psa.dec_path
    :: List.filter (fun b -> b <> an.an_decision.Psa.dec_path) Psa.path_names
  in
  let order = List.filter (fun b -> b <> "none") order in
  let rec search tried = function
    | [] -> (List.rev tried, None)
    | branch :: rest ->
      let a = try_branch branch in
      if a.at_within then (List.rev (a :: tried), Some a)
      else search (a :: tried) rest
  in
  let attempts, accepted = search [] order in
  let accepted =
    match accepted with
    | Some _ as a -> a
    | None ->
      (* nothing fits: report the cheapest thing the flow could produce *)
      List.fold_left
        (fun acc a ->
          match a.at_cost, acc with
          | None, _ -> acc
          | Some _, None -> Some a
          | Some c, Some best ->
            (match best.at_cost with
             | Some cb when cb <= c -> acc
             | _ -> Some a))
        None attempts
  in
  Ok
    {
      br_app = app;
      br_budget = budget;
      br_pricing = pricing;
      br_attempts = attempts;
      br_accepted = accepted;
      br_within_budget = (match accepted with Some a -> a.at_within | None -> false);
      br_baseline_s = an.an_baseline_s;
    }
