(* Tests for Memo: memoized interpretation must be indistinguishable from
   direct interpretation, distinct configurations must not collide, the
   hit/miss counters must be observable, and one flow run must actually
   reuse interpretations. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let nbody_program = App.program Nbody.app

let small_config =
  { Machine.default_config with
    overrides = App.machine_overrides [ ("N", 8); ("STEPS", 1) ] }

(* Drop every in-memory cache tier, then count the run memo's hits
   (either tier) and misses from here on, through the metrics registry. *)
let fresh_memo () =
  Cache.clear_memory ();
  let base = Obs.Metrics.snapshot () in
  let count = function Some (Obs.Metrics.Count n) -> n | _ -> 0 in
  let d name = count (Obs.Metrics.find name) - count (List.assoc_opt name base) in
  fun () -> (d "cache.run.mem_hits" + d "cache.run.disk_hits", d "cache.run.misses")

let sorted_stats r =
  ( List.sort compare r.Machine.loop_stats,
    List.sort compare r.Machine.region_stats,
    List.sort compare r.Machine.aliased_funcs )

let test_memo_equals_direct () =
  let counts = fresh_memo () in
  let config = Memo.analysis_config ~config:small_config () in
  let direct = Machine.run ~config nbody_program in
  let first = Memo.run ~config nbody_program in
  let second = Memo.run ~config nbody_program in
  check "miss equals direct run" true (first = direct);
  check "hit equals direct run" true (second = direct);
  let hits, misses = counts () in
  checki "one miss" 1 misses;
  checki "one hit" 1 hits

let test_distinct_configs_do_not_collide () =
  let counts = fresh_memo () in
  let base = Memo.analysis_config ~config:small_config () in
  let r8 = Memo.run ~config:base nbody_program in
  let r16 =
    Memo.run
      ~config:{ base with overrides = App.machine_overrides [ ("N", 16); ("STEPS", 1) ] }
      nbody_program
  in
  let r_seed = Memo.run ~config:{ base with Machine.seed = 7 } nbody_program in
  let r_plain = Memo.run ~config:{ base with Machine.profile_loops = false } nbody_program in
  ignore r_seed;
  let hits, misses = counts () in
  checki "four distinct entries" 4 misses;
  checki "no spurious hits" 0 hits;
  check "different workloads differ" true (r8.Machine.output <> r16.Machine.output);
  check "profiling flag respected" true (r_plain.Machine.loop_stats = []);
  check "profiled run has loop stats" true (r8.Machine.loop_stats <> [])

let test_renumbered_program_hits () =
  (* id-refreshed copies of a program are the same program to the
     interpreter; the memo must serve them from one entry, translating
     the statistics back into the requester's statement ids *)
  let counts = fresh_memo () in
  let config = Memo.analysis_config ~config:small_config () in
  let renumbered = Ast.renumber nbody_program in
  let r1 = Memo.run ~config nbody_program in
  let r2 = Memo.run ~config renumbered in
  let hits, misses = counts () in
  checki "second request is a hit" 1 hits;
  checki "single interpretation" 1 misses;
  check "same observable behaviour" true
    (r1.Machine.output = r2.Machine.output && r1.Machine.ret = r2.Machine.ret);
  (* translated statistics must match a direct run of the renumbered copy *)
  let direct = Machine.run ~config renumbered in
  check "translated stats equal direct stats" true
    (sorted_stats r2 = sorted_stats direct);
  check "ids were actually translated" true
    (List.sort compare (List.map fst r1.Machine.loop_stats)
    <> List.sort compare (List.map fst r2.Machine.loop_stats))

let test_exceptions_not_cached () =
  let counts = fresh_memo () in
  let config = { small_config with Machine.max_steps = 10 } in
  let attempt () =
    match Memo.run ~config nbody_program with
    | _ -> Alcotest.fail "expected step limit"
    | exception Machine.Step_limit_exceeded -> ()
  in
  attempt ();
  attempt ();
  checki "failed runs never hit" 0 (fst (counts ()))

(* A budget bounds executed statements, not results: an unbudgeted run
   racing a budgeted one on the same key always gets the full result.
   The budgeted leader's Step_limit_exceeded releases the key, and the
   waiting caller computes it in its own context.  The unbudgeted run
   starts 2 ms into the budgeted one, which takes about ten times that to
   blow, so it finds the key claimed and waits. *)
let test_budgeted_leader_releases_waiters () =
  let config =
    { Machine.default_config with
      overrides = App.machine_overrides [ ("N", 256); ("STEPS", 4) ] }
  in
  let full = Machine.run ~config nbody_program in
  let budget = full.Machine.counters.Counters.steps / 2 in
  let waits () = Obs.Metrics.Counter.value (Obs.Metrics.counter "cache.run.waits") in
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs 4;
  let waits0 = waits () in
  for _ = 1 to 5 do
    Cache.clear_memory ();
    let started = Atomic.make false in
    let budgeted =
      Util.Pool.Fut.spawn (fun () ->
          Util.Reqctx.with_step_budget budget (fun () ->
              Atomic.set started true;
              match Memo.run ~config nbody_program with
              | r -> Some r
              | exception Machine.Step_limit_exceeded -> None))
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.002;
    check "unbudgeted racer gets the full result" true
      (Memo.run ~config nbody_program = full);
    (match Util.Pool.Fut.await budgeted with
     | Some r -> check "a budgeted replay is the full result" true (r = full)
     | None -> ())
  done;
  check "the unbudgeted run waited on a budgeted leader" true (waits () > waits0)

(* The memo lookups of each profile task in one traced flow, as
   (branch path, outcome), in recording order per domain track. *)
let profile_lookups () =
  let stacks = Hashtbl.create 4 in
  List.fold_left
    (fun acc (ev : Obs.Trace.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks ev.Obs.Trace.ev_tid) ~default:[] in
      match ev.Obs.Trace.ev_ph with
      | `E ->
        Hashtbl.replace stacks ev.Obs.Trace.ev_tid (List.tl stack);
        acc
      | `B ->
        Hashtbl.replace stacks ev.Obs.Trace.ev_tid (ev :: stack);
        let innermost cat =
          List.find_opt (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev_cat = cat) stack
        in
        (match innermost "task", innermost "pool", List.assoc_opt "outcome" ev.Obs.Trace.ev_attrs with
         | Some task, Some path, Some (Obs.Trace.Str outcome)
           when ev.Obs.Trace.ev_name = "cache:run"
                && String.starts_with ~prefix:"Profile" task.Obs.Trace.ev_name ->
           (path.Obs.Trace.ev_name, outcome) :: acc
         | _ -> acc))
    [] (Obs.Trace.events ())
  |> List.rev

let test_flow_run_reuses_interpretations () =
  (* each uninformed quick flow interprets an exact number of distinct
     programs.  Design paths validate their single-precision literals
     with the profile's observers, so a profile whose program no task
     changed since is a hit: HIP and A10 profiles, except N-Body's HIP
     design (shared-memory tiles change it) and Rush-Larsen's (both of
     its literal validations reject).  S10's zero-copy transfer always
     changes the program. *)
  let old = Cache.dir () in
  Cache.set_dir None;
  Fun.protect ~finally:(fun () -> Cache.set_dir old) @@ fun () ->
  List.iter
    (fun ((app : App.t), misses, hits, profiles) ->
      let counts = fresh_memo () in
      Obs.Trace.start ();
      let r =
        Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
      in
      Obs.Trace.stop ();
      (match r with Ok _ -> () | Error e -> Alcotest.fail ("flow failed: " ^ e));
      let got_hits, got_misses = counts () in
      let name = app.App.app_slug in
      checki (name ^ ": memo misses") misses got_misses;
      checki (name ^ ": memo hits") hits got_hits;
      Alcotest.(check (list (pair string string)))
        (name ^ ": profile lookups") profiles
        (List.sort compare (profile_lookups ())))
    (let reused = [ ("path A10", "mem-hit"); ("path S10", "miss"); ("path gpu", "mem-hit") ] in
     [
       (Nbody.app, 8, 5, [ ("path A10", "mem-hit"); ("path S10", "miss"); ("path gpu", "miss") ]);
       (Kmeans.app, 7, 6, reused);
       (Adpredictor.app, 7, 6, reused);
       (Rush_larsen.app, 9, 4, [ ("path A10", "miss"); ("path S10", "miss"); ("path gpu", "miss") ]);
       (Bezier.app, 7, 6, reused);
     ])

let test_backends_do_not_collide () =
  let counts = fresh_memo () in
  let config = Memo.analysis_config ~config:small_config () in
  let ra = Memo.run ~config ~backend:`Ast nbody_program in
  let rv = Memo.run ~config ~backend:`Vm nbody_program in
  let hits, misses = counts () in
  checki "each backend keyed separately" 2 misses;
  checki "no cross-backend hit" 0 hits;
  check "backends agree through the cache" true
    (sorted_stats ra = sorted_stats rv && ra.Machine.output = rv.Machine.output)

let suite =
  [
    ("memoized run equals direct run", `Quick, test_memo_equals_direct);
    ("backends are keyed separately", `Quick, test_backends_do_not_collide);
    ("distinct configs do not collide", `Quick, test_distinct_configs_do_not_collide);
    ("id-renumbered programs share one entry", `Quick, test_renumbered_program_hits);
    ("failed runs are not cached", `Quick, test_exceptions_not_cached);
    ( "budgeted leader releases unbudgeted waiters",
      `Quick,
      test_budgeted_leader_releases_waiters );
    ("one flow run reuses interpretations", `Quick, test_flow_run_reuses_interpretations);
  ]
