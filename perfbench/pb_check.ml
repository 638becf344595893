(* Operations the benchmark performs, each checked against its golden
   report and tallied. *)

type tally = { mutable attempted : int; mutable failed : int; mutable mismatched : int }

let tally () = { attempted = 0; failed = 0; mismatched = 0 }

type spec = { app : string; informed : bool; quick : bool; budget : int option }

let key s = Pb_golden.key ~app:s.app ~informed:s.informed ~quick:s.quick

(* The 20 builtin specs: five apps x uninformed/informed x eval/quick. *)
let all_specs =
  List.concat_map
    (fun quick ->
      List.concat_map
        (fun informed ->
          List.map (fun app -> { app; informed; quick; budget = None }) Pb_names.apps)
        [ false; true ])
    [ false; true ]

let request_spec s =
  {
    Request.sp_source = Request.Builtin s.app;
    sp_mode = (if s.informed then Pipeline.Informed else Pipeline.Uninformed);
    sp_quick = s.quick;
    sp_step_budget = s.budget;
    sp_jobs_hint = None;
  }

let load_goldens () =
  match Pb_golden.load (List.map key all_specs) with
  | Ok g -> g
  | Error msg -> failwith msg

(* Record one finished operation; [report] is [None] when it failed
   outright.  Returns whether it succeeded with the golden bytes. *)
let record t goldens s ~what report =
  t.attempted <- t.attempted + 1;
  match report with
  | None ->
    t.failed <- t.failed + 1;
    Printf.eprintf "%s %s failed\n%!" what (key s);
    false
  | Some text ->
    if Pb_golden.check goldens (key s) text then true
    else begin
      t.failed <- t.failed + 1;
      t.mismatched <- t.mismatched + 1;
      false
    end

(* One in-process flow through [Request.run]: its start time, wall
   seconds, and whether its report matched.  Traced runs wrap it in a
   benchmark span so the trace shows where each flow begins and ends. *)
let flow t goldens s =
  let t0 = Pb_sys.now () in
  let oc =
    Obs.Trace.with_span ~name:("perfbench:flow " ^ key s) ~kind:Obs.Trace.Section (fun _ ->
        Request.run (request_spec s))
  in
  let dt = Pb_sys.now () -. t0 in
  let report = if oc.Request.oc_status = 0 then Some oc.Request.oc_text else None in
  if report = None then Printf.eprintf "flow error: %s\n%!" oc.Request.oc_error;
  let ok = record t goldens s ~what:"flow" report in
  (t0, dt, ok)
