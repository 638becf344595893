(* Tests for the fault-tolerance layer: the fault-spec parser and the
   occurrence/probability firing semantics of Util.Faultsim, branch
   pruning with Sfailed provenance under injected task faults, retry
   accounting, step-budget timeout determinism across --jobs levels,
   strict fail-fast, pool worker-crash recovery, and cache corruption
   injection landing in the `corrupt` stat. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let counter_value name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* Every test disarms the harness on exit so the remaining suites (and a
   crashed assertion) never leave faults armed. *)
let with_faults spec_str f =
  (match Util.Faultsim.parse spec_str with
   | Ok spec -> Util.Faultsim.arm spec
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Util.Faultsim.disarm f

(* ---- spec parser ---- *)

let test_parse_ok () =
  match Util.Faultsim.parse "task:GPU-2080@2%0.5, cache:task ,pool:,seed=9" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    checki "seed" 9 spec.Util.Faultsim.sp_seed;
    (match spec.Util.Faultsim.sp_rules with
     | [ r1; r2; r3 ] ->
       check "r1 class" true (r1.Util.Faultsim.ru_target = Util.Faultsim.Task_site);
       checks "r1 site" "GPU-2080" r1.Util.Faultsim.ru_site;
       check "r1 nth" true (r1.Util.Faultsim.ru_nth = Some 2);
       check "r1 prob" true (r1.Util.Faultsim.ru_prob = Some 0.5);
       check "r2 class" true (r2.Util.Faultsim.ru_target = Util.Faultsim.Cache_site);
       checks "r2 site" "task" r2.Util.Faultsim.ru_site;
       check "r2 unconditional" true
         (r2.Util.Faultsim.ru_nth = None && r2.Util.Faultsim.ru_prob = None);
       (* a bare pool rule defaults its site to "worker" *)
       checks "r3 site" "worker" r3.Util.Faultsim.ru_site
     | rules -> Alcotest.failf "expected 3 rules, got %d" (List.length rules))

let test_parse_errors () =
  let bad s =
    match Util.Faultsim.parse s with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
    | Error e -> check (Printf.sprintf "%S error non-empty" s) true (String.length e > 0)
  in
  bad "";
  bad "frobnicate:x";
  bad "task:x@zero";
  bad "task:x%often";
  bad "task:x@0";
  bad "seed=lots"

(* ---- firing semantics ---- *)

let test_nth_occurrence () =
  with_faults "task:flaky@2" (fun () ->
      let f () = Util.Faultsim.fire Util.Faultsim.Task_site ~site:"T-INDEP/flaky" in
      check "1st pull survives" false (f ());
      check "2nd pull fires" true (f ());
      check "3rd pull survives" false (f ());
      (* a non-matching site never advances the rule *)
      check "other site" false
        (Util.Faultsim.fire Util.Faultsim.Task_site ~site:"T-INDEP/solid"))

let test_probabilistic_replay () =
  (* a probabilistic rule must make the same per-occurrence decisions
     every time the same spec is armed: the draw depends only on
     (site, occurrence, seed), never on interleaving or prior state *)
  let draw () =
    with_faults "task:p%0.5,seed=3" (fun () ->
        List.init 32 (fun _ ->
            Util.Faultsim.fire Util.Faultsim.Task_site ~site:"GPU/p"))
  in
  let a = draw () in
  let b = draw () in
  check "replay identical" true (a = b);
  check "some fire" true (List.mem true a);
  check "some survive" true (List.mem false a)

(* ---- engine-level fault tolerance ---- *)

let run_nbody ?(strict = false) ?step_budget () =
  (* the task/run caches are process-global memory tiers shared with the
     other suites: drop them so every application actually crosses the
     fault-injection boundary instead of replaying a cached result *)
  Cache.clear_memory ();
  Engine.run ~workload:Nbody.app.App.app_test_overrides ~strict ?step_budget
    ~mode:Pipeline.Uninformed Nbody.app

let test_task_fault_prunes_one_branch () =
  let failures0 = counter_value "flow.task.failures" in
  with_faults "task:GPU-2080" (fun () ->
      match run_nbody () with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        (* uninformed nbody normally yields 5 designs; the injected fault
           must prune exactly the 2080 path *)
        checki "four designs survive" 4 (List.length rep.Engine.rep_designs);
        check "2080 design gone" true (Engine.design_for rep ~short:"HIP 2080Ti" = None);
        check "1080 design survives" true
          (Engine.design_for rep ~short:"HIP 1080Ti" <> None
           || List.length rep.Engine.rep_designs = 4);
        (match rep.Engine.rep_failures with
         | [ f ] ->
           check "pruned path is A=gpu,C=2080" true
             (f.Graph.fl_path = [ ("A", "gpu"); ("C", "2080") ]);
           check "classified task-failed" true
             (f.Graph.fl_failure.Resilience.f_class = Resilience.Task_failed);
           checki "both attempts consumed" 2 f.Graph.fl_failure.Resilience.f_attempts;
           check "trail ends in Sfailed" true
             (match List.rev f.Graph.fl_prov with
              | Prov.Sfailed _ :: _ -> true
              | _ -> false)
         | fs -> Alcotest.failf "expected 1 pruned path, got %d" (List.length fs));
        let why = Report.why_text rep in
        check "--why shows the pruned trail" true
          (contains ~needle:"pruned" why
           && contains ~needle:"injected fault" why);
        check "failures line rendered" true
          (contains ~needle:"task-failed" (Report.failures_text rep));
        check "flow.task.failures incremented" true
          (counter_value "flow.task.failures" > failures0))

let test_retry_succeeds_second_attempt () =
  let retries0 = counter_value "flow.retries" in
  with_faults "task:GPU-2080@1" (fun () ->
      match run_nbody () with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        checki "all five designs" 5 (List.length rep.Engine.rep_designs);
        checki "no pruned paths" 0 (List.length rep.Engine.rep_failures);
        check "flow.retries incremented" true (counter_value "flow.retries" > retries0))

let test_strict_aborts () =
  with_faults "task:GPU-2080" (fun () ->
      match run_nbody ~strict:true () with
      | Ok _ -> Alcotest.fail "--strict must abort on an injected fault"
      | Error msg ->
        check "error names the fault" true (contains ~needle:"injected fault" msg))

let test_step_budget_timeout_deterministic () =
  (* a tiny step budget blows every interpreting task in the fan-out;
     the resulting report must be identical at --jobs 1 and --jobs 4 *)
  let old_jobs = Util.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_default_jobs old_jobs)
    (fun () ->
      let observe jobs =
        Util.Pool.set_default_jobs jobs;
        match run_nbody ~step_budget:50 () with
        | Error e -> Alcotest.fail e
        | Ok rep ->
          ( List.map (fun (d : Design.t) -> Target.short d.Design.d_target)
              rep.Engine.rep_designs,
            Report.failures_text rep,
            Report.why_text rep )
      in
      let d1, f1, w1 = observe 1 in
      let d4, f4, w4 = observe 4 in
      check "timeouts fired" true
        (contains ~needle:"timeout" f1);
      check "budget named in message" true
        (contains ~needle:"step budget" f1);
      check "designs identical across jobs" true (d1 = d4);
      checks "failure lines identical across jobs" f1 f4;
      checks "why trails identical across jobs" w1 w4)

(* the first line of --why names the active backend; drop it so trails
   can be compared byte-for-byte across backends *)
let drop_backend_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let test_nested_budget_fault_backend_invariant () =
  (* K-Means' hot loops run as planned multi-level nests on the VM.  A
     step budget small enough to blow mid-nest makes every planned entry
     fail the guard's budget pre-check — a pre-effect bail — and the
     walker then aborts mid-outer-iteration; an injected task fault
     prunes one accelerator branch on top.  The pruned report must be
     identical whatever backend interprets and at --jobs 1 and 4: a bail
     that committed partial steps, counters or writes would diverge
     here. *)
  let old_jobs = Util.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_default_jobs old_jobs)
    (fun () ->
      let observe backend jobs =
        let saved = Machine.default_backend () in
        Machine.set_default_backend backend;
        Fun.protect
          ~finally:(fun () -> Machine.set_default_backend saved)
          (fun () ->
            Util.Pool.set_default_jobs jobs;
            with_faults "task:GPU-2080" (fun () ->
                Cache.clear_memory ();
                match
                  Engine.run ~workload:Kmeans.app.App.app_test_overrides
                    ~step_budget:500 ~mode:Pipeline.Uninformed Kmeans.app
                with
                | Error e -> Alcotest.fail e
                | Ok rep ->
                  ( List.map
                      (fun (d : Design.t) -> Target.short d.Design.d_target)
                      rep.Engine.rep_designs,
                    Report.failures_text rep,
                    drop_backend_line (Report.why_text rep) )))
      in
      let d1, f1, w1 = observe `Vm 1 in
      let d4, f4, w4 = observe `Vm 4 in
      let da, fa, wa = observe `Ast 1 in
      check "budget timeouts fired" true (contains ~needle:"step budget" f1);
      check "designs identical across jobs" true (d1 = d4);
      checks "failure lines identical across jobs" f1 f4;
      checks "why trails identical across jobs" w1 w4;
      check "designs identical across backends" true (d1 = da);
      checks "failure lines identical across backends" f1 fa;
      checks "why trails identical across backends" w1 wa)

(* ---- pool worker crash recovery ---- *)

let test_pool_worker_crash_recovered () =
  let crashes0 = counter_value "pool.worker_failures" in
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  with_faults "pool:worker@1" (fun () ->
      Util.Pool.set_default_jobs 4;
      let input = List.init 64 Fun.id in
      let out =
        Util.Pool.Fut.await_all
          (List.map (fun x -> Util.Pool.Fut.spawn (fun () -> (x * x) + 1)) input)
      in
      check "results identical to List.map" true
        (out = List.map (fun x -> (x * x) + 1) input);
      check "worker failure counted" true
        (counter_value "pool.worker_failures" > crashes0))

(* A crash on a *stolen* task: the main domain spawns futures into its
   own deque and deliberately does not touch them, so the only way a
   worker obtains one is by stealing — and the first fire
   (pool:worker@1) therefore kills a worker holding a stolen claim.
   The awaiting domain must detect the dead claimant, recompute the
   task, and still return List.map's answer. *)
let test_stolen_task_crash_recovered () =
  let steals0 = counter_value "pool.steals" in
  let crashes0 = counter_value "pool.worker_failures" in
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  with_faults "pool:worker@1" (fun () ->
      Util.Pool.set_default_jobs 4;
      let input = List.init 32 Fun.id in
      let futs =
        List.map (fun x -> Util.Pool.Fut.spawn (fun () -> (3 * x) + 1)) input
      in
      (* wait (bounded) for a worker to steal a claim and crash on it
         before this domain starts awaiting, so the lost task is a
         stolen one rather than one we ran inline *)
      let deadline = Obs.Monotonic.now_s () +. 5.0 in
      while
        counter_value "pool.worker_failures" = crashes0
        && Obs.Monotonic.now_s () < deadline
      do
        Domain.cpu_relax ()
      done;
      let out = Util.Pool.Fut.await_all futs in
      check "results identical to List.map" true
        (out = List.map (fun x -> (3 * x) + 1) input);
      check "tasks were stolen" true (counter_value "pool.steals" > steals0);
      check "worker failure counted" true
        (counter_value "pool.worker_failures" > crashes0))

(* ---- cache corruption injection ---- *)

module Res_cache = Cache.Make (struct
  type value = int

  let kind = "tres"

  let version = 1
end)

let test_cache_corruption_injected () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psa-faultsim-test-%d" (Unix.getpid ()))
  in
  let old_dir = Cache.dir () in
  Cache.set_dir (Some dir);
  Cache.clear_memory ();
  Fun.protect
    ~finally:(fun () ->
      Cache.set_dir old_dir;
      Cache.clear_memory ();
      (match Sys.readdir dir with
       | names ->
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           names;
         (try Unix.rmdir dir with Unix.Unix_error _ -> ())
       | exception Sys_error _ -> ()))
    (fun () ->
      let count = ref 0 in
      let compute () = incr count; 17 in
      checki "computed" 17 (Res_cache.find_or_compute ~key:"k" compute);
      Cache.clear_memory ();
      let corrupt0 = counter_value "cache.tres.corrupt" in
      with_faults "cache:tres" (fun () ->
          checki "recomputed past the corrupted read" 17
            (Res_cache.find_or_compute ~key:"k" compute));
      checki "two computations" 2 !count;
      check "corruption counted" true (counter_value "cache.tres.corrupt" > corrupt0);
      (* the recompute rewrote the entry; with faults disarmed it serves *)
      Cache.clear_memory ();
      checki "disk hit after rewrite" 17
        (Res_cache.find_or_compute ~key:"k" (fun () -> Alcotest.fail "cached"));
      checki "still two computations" 2 !count)

let suite =
  [
    Alcotest.test_case "fault spec parses" `Quick test_parse_ok;
    Alcotest.test_case "fault spec rejects garbage" `Quick test_parse_errors;
    Alcotest.test_case "nth occurrence fires once" `Quick test_nth_occurrence;
    Alcotest.test_case "probabilistic rules replay" `Quick test_probabilistic_replay;
    Alcotest.test_case "task fault prunes one branch" `Slow test_task_fault_prunes_one_branch;
    Alcotest.test_case "retry succeeds on 2nd attempt" `Slow test_retry_succeeds_second_attempt;
    Alcotest.test_case "strict restores fail-fast" `Slow test_strict_aborts;
    Alcotest.test_case "step-budget timeout deterministic" `Slow
      test_step_budget_timeout_deterministic;
    Alcotest.test_case "nested budget+fault backend-invariant" `Slow
      test_nested_budget_fault_backend_invariant;
    Alcotest.test_case "pool worker crash recovered" `Quick test_pool_worker_crash_recovered;
    Alcotest.test_case "stolen task crash recovered" `Quick
      test_stolen_task_crash_recovered;
    Alcotest.test_case "cache corruption injected" `Quick test_cache_corruption_injected;
  ]
