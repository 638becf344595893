type selection = {
  sel_paths : string list;
  sel_reasons : string list;
}

type node =
  | Task of Task.t
  | Seq of node list
  | Branch of branch_point

and branch_point = {
  bp_name : string;
  bp_select : Artifact.t -> (selection, string) result;
  bp_paths : (string * node) list;
}

type outcome = {
  oc_path : (string * string) list;
  oc_artifact : Artifact.t;
}

type failure = {
  fl_path : (string * string) list;
  fl_failure : Resilience.failure;
  fl_prov : Prov.step list;
}

type run_result = {
  rr_outcomes : outcome list;
  rr_pruned : failure list;
}

let ( let* ) = Result.bind

let select ?(reasons = []) paths = Ok { sel_paths = paths; sel_reasons = reasons }

(* recognised physically by [run_node]: take every path of the branch *)
let select_all _art = Ok { sel_paths = []; sel_reasons = [] }

(* Concatenate per-element (outcomes, failures) results in input order,
   surfacing the first error in input order — the same answer a
   sequential short-circuiting fold would produce, but linear and
   applicable to an already-computed list of results. *)
let concat_results results =
  let folded =
    List.fold_left
      (fun acc r ->
        let* ocs, fls = acc in
        let* outs, fails = r in
        Ok (outs :: ocs, fails :: fls))
      (Ok ([], []))
      results
  in
  Result.map
    (fun (ocs, fls) ->
      (List.concat (List.rev ocs), List.concat (List.rev fls)))
    folded

(* Wall-clock of every task application: the population behind the
   ledger's flow.task.seconds latency percentiles. *)
let h_task_seconds = Obs.Metrics.histogram "flow.task.seconds"

(* One task application: a [task] span, a latency observation and the
   provenance step.  Tasks are not cached themselves; the interpreter
   runs inside them are ({!Memo}). *)
let apply_task (t : Task.t) art =
  let t0 = Obs.Monotonic.now_s () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.Histogram.observe h_task_seconds (Obs.Monotonic.now_s () -. t0))
  @@ fun () ->
  Obs.Trace.with_span
    ~attrs:[ ("kind", Obs.Trace.Str (Task.kind_letter t.Task.kind)) ]
    ~name:t.Task.name ~kind:Obs.Trace.Task
    (fun _ ->
      Result.map
        (fun out ->
          Artifact.add_prov out
            (Prov.Stask
               {
                 st_name = t.Task.name;
                 st_kind = Task.kind_letter t.Task.kind;
                 st_scope = Task.scope_label t.Task.scope;
                 st_dynamic = t.Task.dynamic;
               }))
        (Task.apply t art))

(* Every task application crosses one supervised boundary.  In tolerant
   mode a final failure prunes this artifact's path: the outcome
   disappears from the result, and a terminal [Prov.Sfailed] step is
   recorded on the failure's trail for `--why`.  In fail-fast mode the
   failure aborts the run with the task's own error message, exactly as
   the unsupervised executor did. *)
let rec run_node ~tolerant node (oc : outcome) :
    (outcome list * failure list, string) result =
  match node with
  | Task t -> (
    match
      Resilience.supervise ~site:(Task.site t) (fun () -> apply_task t oc.oc_artifact)
    with
    | Ok art -> Ok ([ { oc with oc_artifact = art } ], [])
    | Error f when tolerant ->
      let art =
        Artifact.add_prov oc.oc_artifact
          (Prov.Sfailed
             {
               sf_task = t.Task.name;
               sf_class = Resilience.class_label f.Resilience.f_class;
               sf_attempts = f.Resilience.f_attempts;
               sf_msg = f.Resilience.f_msg;
             })
      in
      Ok
        ( [],
          [
            {
              fl_path = oc.oc_path;
              fl_failure = f;
              fl_prov = art.Artifact.art_prov;
            };
          ] )
    | Error f -> Error f.Resilience.f_msg)
  | Seq nodes ->
    (* a step with one outcome runs in place: a future would only add a
       spawn, and a steal that moves the step off its path's span *)
    let step acc node =
      let* outcomes, fails = acc in
      let* outs, fails' =
        match outcomes with
        | [ oc ] -> run_node ~tolerant node oc
        | _ ->
          outcomes
          |> List.map (fun oc ->
                 Util.Pool.Fut.spawn (fun () -> run_node ~tolerant node oc))
          |> Util.Pool.Fut.await_all |> concat_results
      in
      Ok (outs, fails @ fails')
    in
    List.fold_left step (Ok ([ oc ], [])) nodes
  | Branch bp ->
    Obs.Trace.with_span ~name:("branch " ^ bp.bp_name) ~kind:Obs.Trace.Branch
      (fun sp ->
        let all = List.map fst bp.bp_paths in
        let* sel =
          if bp.bp_select == select_all then
            Ok { sel_paths = all; sel_reasons = [] }
          else bp.bp_select oc.oc_artifact
        in
        let chosen = sel.sel_paths in
        let* available =
          let missing = List.filter (fun c -> not (List.mem_assoc c bp.bp_paths)) chosen in
          if missing = [] then Ok chosen
          else
            Error
              (Printf.sprintf "branch %s: strategy chose unknown path(s) %s" bp.bp_name
                 (String.concat ", " missing))
        in
        Obs.Trace.add_attr sp "chosen" (Obs.Trace.Str (String.concat "," available));
        (* spawn every taken path as its own future: paths overlap with
           each other and with any sibling fan-out elsewhere in the DAG
           sharing the scheduler, while [await_all] keeps the joined
           outcomes in path order *)
        available
        |> List.map (fun path_name ->
               let node = List.assoc path_name bp.bp_paths in
               let art =
                 Artifact.logf oc.oc_artifact "<branch %s -> %s>" bp.bp_name path_name
               in
               let art =
                 Artifact.add_prov art
                   (Prov.Sbranch
                      {
                        sb_name = bp.bp_name;
                        sb_taken = path_name;
                        sb_alternatives = all;
                        sb_chosen = available;
                        sb_reasons = sel.sel_reasons;
                      })
               in
               let tagged =
                 {
                   oc_path = oc.oc_path @ [ (bp.bp_name, path_name) ];
                   oc_artifact = art;
                 }
               in
               Util.Pool.Fut.spawn
                 ~label:("path " ^ path_name)
                 (fun () -> run_node ~tolerant node tagged))
        |> Util.Pool.Fut.await_all |> concat_results)

let run node art =
  Result.map fst (run_node ~tolerant:false node { oc_path = []; oc_artifact = art })

let run_tolerant node art =
  Result.map
    (fun (ocs, fails) -> { rr_outcomes = ocs; rr_pruned = fails })
    (run_node ~tolerant:true node { oc_path = []; oc_artifact = art })

let rec with_select node ~branch select =
  match node with
  | Task _ -> node
  | Seq nodes -> Seq (List.map (fun n -> with_select n ~branch select) nodes)
  | Branch bp ->
    let bp_paths =
      List.map (fun (name, n) -> (name, with_select n ~branch select)) bp.bp_paths
    in
    if bp.bp_name = branch then Branch { bp with bp_select = select; bp_paths }
    else Branch { bp with bp_paths }

let rec tasks = function
  | Task t -> [ t ]
  | Seq nodes -> List.concat_map tasks nodes
  | Branch bp -> List.concat_map (fun (_, n) -> tasks n) bp.bp_paths

let to_dot ?(name = "psaflow") node =
  let buf = Buffer.create 1024 in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let escape s = String.concat "\\\"" (String.split_on_char '\"' s) in
  (* returns (entry node id, exit node ids) of the subgraph *)
  let rec emit = function
    | Task t ->
      let id = fresh () in
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=box,label=\"%s\\n[%s%s]\"];\n" id
           (escape t.Task.name) (Task.kind_letter t.Task.kind)
           (if t.Task.dynamic then ", dyn" else ""));
      (id, [ id ])
    | Seq [] ->
      let id = fresh () in
      Buffer.add_string buf (Printf.sprintf "  %s [shape=point];\n" id);
      (id, [ id ])
    | Seq (first :: rest) ->
      let entry, exits = emit first in
      let final_exits =
        List.fold_left
          (fun exits node ->
            let entry', exits' = emit node in
            List.iter
              (fun e -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" e entry'))
              exits;
            exits')
          exits rest
      in
      (entry, final_exits)
    | Branch bp ->
      let id = fresh () in
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=diamond,label=\"branch %s\"];\n" id
           (escape bp.bp_name));
      let exits =
        List.concat_map
          (fun (path, node) ->
            let entry', exits' = emit node in
            Buffer.add_string buf
              (Printf.sprintf "  %s -> %s [label=\"%s\"];\n" id entry' (escape path));
            exits')
          bp.bp_paths
      in
      (id, exits)
  in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=TB;\n" name);
  ignore (emit node);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
