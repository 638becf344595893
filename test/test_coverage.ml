(* VM step-coverage floors: the share of interpreted statements that run
   on the VM's planned path ([vm.steps.planned] / [interp.steps]).  Both
   counts are exact and deterministic at any --jobs, so the floors are
   test cases rather than timed benchmark gates. *)

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let planned () = counter "vm.steps.planned"

let steps () = counter "interp.steps"

let check_floor what ~floor ~planned ~total =
  let c = if total = 0 then 0.0 else float_of_int planned /. float_of_int total in
  if c < floor then
    Alcotest.failf "%s: %d of %d statements planned (coverage %.6f, needs >= %.4f)" what
      planned total c floor

(* Per app, its evaluation workload on the VM.  The loop-nest lowering's
   reason to exist is keeping these apps' hot loops planned: N-Body and
   Bezier at 0.99, the others at 0.98 (each app read 1.000 on the seed
   baseline) *)
let app_floors =
  [
    (Nbody.app, 0.99);
    (Bezier.app, 0.99);
    (Kmeans.app, 0.98);
    (Adpredictor.app, 0.98);
    (Rush_larsen.app, 0.98);
  ]

let test_app_coverage ((app : App.t), floor) () =
  let config =
    { Machine.default_config with
      overrides = App.machine_overrides app.App.app_eval_overrides }
  in
  let p0 = planned () in
  let r = Machine.run ~config ~backend:`Vm (App.program app) in
  check_floor
    (app.App.app_slug ^ " evaluation workload")
    ~floor ~planned:(planned () - p0) ~total:r.Machine.counters.(Counters.steps)

(* The five uninformed quick flows, profiled analysis runs included.  No
   disk tier and an empty memory tier, so every run interprets.  The
   floor is 0.9705 (measured once HIP launch loops inlined their
   per-thread body calls) minus 0.02. *)
let test_flow_coverage () =
  Cache.set_dir None;
  Cache.clear_memory ();
  let p0 = planned () and s0 = steps () in
  let results = Runs.collect ~quick:true () in
  List.iter
    (function Ok _ -> () | Error msg -> Alcotest.failf "flow failed: %s" msg)
    results;
  check_floor "five uninformed quick flows" ~floor:0.9505 ~planned:(planned () - p0)
    ~total:(steps () - s0)

let suite =
  List.map
    (fun ((app : App.t), floor) ->
      Alcotest.test_case
        (Printf.sprintf "vm coverage %s" app.App.app_slug)
        `Quick
        (test_app_coverage (app, floor)))
    app_floors
  @ [ Alcotest.test_case "vm coverage quick flows" `Quick test_flow_coverage ]
