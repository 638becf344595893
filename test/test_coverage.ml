(* VM step-coverage floors: the share of interpreted statements that run
   on the VM's planned path ([vm.steps.planned] / [interp.steps]).  Both
   counts are exact and deterministic at any --jobs, so the floors are
   test cases rather than timed benchmark gates. *)

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let planned () = counter "vm.steps.planned"

let steps () = counter "interp.steps"

(* No planned nest may decline at runtime: every bail site recorded since
   [Fastloop.reset_bail_sites] fails the case, each printed *)
let check_no_bails what =
  match Machine.plan_bail_sites () with
  | [] -> ()
  | sites ->
    Alcotest.failf "%s: planned nests declined at runtime: %s" what
      (String.concat "; "
         (List.map (fun (loc, reason) -> Loc.to_string loc ^ " " ^ reason) sites))

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
   per-thread body calls) minus 0.02, and no planned nest declines. *)
let test_flow_coverage () =
  Cache.set_dir None;
  Cache.clear_memory ();
  Fastloop.reset_bail_sites ();
  let p0 = planned () and s0 = steps () in
  let results = Runs.collect ~quick:true () in
  List.iter
    (function Ok _ -> () | Error msg -> Alcotest.failf "flow failed: %s" msg)
    results;
  check_floor "five uninformed quick flows" ~floor:0.9505 ~planned:(planned () - p0)
    ~total:(steps () - s0);
  check_no_bails "five uninformed quick flows"

(* N-Body's uninformed evaluation flow at --jobs 2 with the cache off:
   its HIP launch loops plan as whole nests, so fewer than 1,000 of its
   statements run on the walker (53,544 did while each thread's tile
   loop ran there), and no planned nest declines *)
let test_nbody_flow_residue () =
  Cache.set_dir None;
  Cache.clear_memory ();
  Fastloop.reset_bail_sites ();
  let saved = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs 2;
  let p0 = planned () and s0 = steps () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_default_jobs saved)
    (fun () ->
      match Engine.run ~mode:Pipeline.Uninformed Nbody.app with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "flow failed: %s" msg);
  let planned = planned () - p0 and total = steps () - s0 in
  if total - planned >= 1_000 then
    Alcotest.failf "N-Body evaluation flow: %d of %d statements on the walker (%d planned)"
      (total - planned) total planned;
  check_no_bails "N-Body evaluation flow"

let suite =
  List.map
    (fun ((app : App.t), floor) ->
      Alcotest.test_case
        (Printf.sprintf "vm coverage %s" app.App.app_slug)
        `Quick
        (test_app_coverage (app, floor)))
    app_floors
  @ [
      Alcotest.test_case "vm coverage quick flows" `Quick test_flow_coverage;
      Alcotest.test_case "vm residue N-Body eval flow" `Quick test_nbody_flow_residue;
    ]
