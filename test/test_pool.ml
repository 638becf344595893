(* Tests for Util.Pool: ordering, exception marshalling, sequential
   fallbacks, nesting, and a differential property checking that a
   parallel Engine.run is observably identical to the sequential one on
   every benchmark. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

exception Boom of int

let restore_jobs () = Util.Pool.set_default_jobs (Util.Pool.recommended_jobs ())

(* Run [f] at [--jobs n], restoring the default afterwards. *)
let with_jobs n f =
  let saved = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) f

(* One future per element, awaited in input order. *)
let fan_out f xs =
  Util.Pool.Fut.await_all (List.map (fun x -> Util.Pool.Fut.spawn (fun () -> f x)) xs)

let test_futures_match_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * 7) mod 13 in
  Alcotest.(check (list int)) "same results, same order" (List.map f xs)
    (with_jobs 4 (fun () -> fan_out f xs))

let test_map_empty_and_singleton () =
  with_jobs 4 @@ fun () ->
  Alcotest.(check (list int)) "empty" [] (fan_out (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (fan_out (fun x -> x + 2) [ 7 ])

let test_one_job_in_order () =
  with_jobs 0 @@ fun () ->
  checki "clamped size" 1 (Util.Pool.default_jobs ());
  let trace = ref [] in
  let out =
    fan_out
      (fun x ->
        trace := x :: !trace;
        x * x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9 ] out;
  (* at one job futures run in the calling domain, strictly left to right *)
  Alcotest.(check (list int)) "sequential order" [ 1; 2; 3 ] (List.rev !trace)

let test_exception_propagates () =
  with_jobs 4 @@ fun () ->
  match
    fan_out (fun x -> if x = 5 then raise (Boom x) else x) (List.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 5 -> ()

let test_first_exception_wins () =
  (* several elements fail; the smallest-index failure is re-raised, as a
     sequential left-to-right map would surface it *)
  with_jobs 4 @@ fun () ->
  match
    fan_out (fun x -> if x >= 3 then raise (Boom x) else x) (List.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> checki "first failing index" 3 n

let test_nested_maps () =
  let expected = List.init 5 (fun i -> List.init 5 (fun j -> i * j)) in
  let got =
    with_jobs 3 (fun () ->
        fan_out
          (fun i -> fan_out (fun j -> i * j) (List.init 5 (fun j -> j)))
          (List.init 5 (fun i -> i)))
  in
  check "nested parallel maps" true (got = expected)

let test_default_jobs_roundtrip () =
  let before = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs 3;
  checki "set" 3 (Util.Pool.default_jobs ());
  Util.Pool.set_default_jobs 1;
  checki "sequential" 1 (Util.Pool.default_jobs ());
  Util.Pool.set_default_jobs before;
  checki "restored" before (Util.Pool.default_jobs ())

(* ---- the request context follows the future ---- *)

let budget = Util.Reqctx.step_budget

let in_budget n f = Util.Reqctx.with_step_budget n f

(* Spin until [flag] is set; the bound keeps a broken scheduler from
   hanging the suite. *)
let wait_until what flag =
  let t0 = Unix.gettimeofday () in
  while not (Atomic.get flag) do
    if Unix.gettimeofday () -. t0 > 10.0 then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.001
  done

(* What a future saw: its budget and the domain that ran it. *)
let observed ?ran () =
  let r = (budget (), Domain.self ()) in
  Option.iter (fun flag -> Atomic.set flag true) ran;
  r

(* At --jobs 2 the pool has one worker domain, and this domain runs only
   what it awaits, so who executes each future below is fixed. *)
let test_context_follows_future () =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs 2;
  let here = Domain.self () in
  (* stolen: the worker takes [outer] from this domain's deque; [outer]
     spawns [inner] into the worker's own deque, which the worker pops
     once [outer] returns *)
  let inner_ran = Atomic.make false in
  let outer =
    in_budget 11 (fun () ->
        Util.Pool.Fut.spawn (fun () ->
            let seen = observed () in
            (seen, in_budget 22 (fun () ->
                 Util.Pool.Fut.spawn (observed ~ran:inner_ran)))))
  in
  check "spawner's context restored" true (budget () = None);
  wait_until "the worker runs both futures" inner_ran;
  let (b_outer, d_outer), inner = Util.Pool.Fut.await outer in
  let b_inner, d_inner = Util.Pool.Fut.await inner in
  check "stolen future ran on the worker" true (d_outer <> here);
  check "stolen future sees its spawner's budget" true (b_outer = Some 11);
  check "worker's own future ran on the worker" true (d_inner <> here);
  check "worker's own future sees its spawner's budget" true (b_inner = Some 22);
  let plain_ran = Atomic.make false in
  let plain = Util.Pool.Fut.spawn (observed ~ran:plain_ran) in
  wait_until "the worker runs an unbudgeted future" plain_ran;
  check "an unbudgeted future sees no budget on the same worker" true
    (fst (Util.Pool.Fut.await plain) = None);
  (* hold the worker so nothing below can run there *)
  let holding = Atomic.make false and release = Atomic.make false in
  let hold =
    Util.Pool.Fut.spawn (fun () ->
        Atomic.set holding true;
        wait_until "release" release)
  in
  wait_until "the worker is held" holding;
  (* inline: an unclaimed future runs on the awaiting domain *)
  let f = in_budget 33 (fun () -> Util.Pool.Fut.spawn observed) in
  in_budget 44 (fun () ->
      let b, d = Util.Pool.Fut.await f in
      check "inline future ran on the awaiting domain" true (d = here);
      check "inline future sees its spawner's budget" true (b = Some 33);
      check "awaiter's context restored after inline run" true (budget () = Some 44));
  let g =
    in_budget 55 (fun () ->
        Util.Pool.Fut.spawn (fun () -> raise (Boom (Option.value (budget ()) ~default:0))))
  in
  in_budget 66 (fun () ->
      (match Util.Pool.Fut.await g with
       | () -> Alcotest.fail "expected Boom"
       | exception Boom n -> checki "raising future saw its spawner's budget" 55 n);
      check "awaiter's context restored after a raise" true (budget () = Some 66));
  (* helping: awaiting the held future, this domain runs [k] from its
     deque; [k] releases the worker *)
  let k =
    in_budget 77 (fun () ->
        Util.Pool.Fut.spawn (fun () ->
            let r = observed () in
            Atomic.set release true;
            r))
  in
  in_budget 88 (fun () ->
      Util.Pool.Fut.await hold;
      check "helping awaiter's context restored" true (budget () = Some 88));
  let b, d = Util.Pool.Fut.await k in
  check "helped future ran on the helping domain" true (d = here);
  check "helped future sees its spawner's budget" true (b = Some 77);
  check "no context left behind" true (budget () = None)

(* --jobs 1 evaluates at the spawn point, inside the spawner's context. *)
let test_context_eager () =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs 1;
  let f = in_budget 5 (fun () -> Util.Pool.Fut.spawn budget) in
  check "eager future sees its spawner's budget" true (Util.Pool.Fut.await f = Some 5);
  check "eager map sees its caller's budget" true
    (in_budget 6 (fun () -> fan_out (fun _ -> budget ()) [ 1; 2 ])
     = [ Some 6; Some 6 ]);
  (match in_budget 7 (fun () -> Util.Pool.Fut.spawn (fun () -> raise (Boom 7))) with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom 7 -> ());
  check "context restored after an eager raise" true (budget () = None)

(* A future whose worker crashes before running it is recomputed by the
   awaiting domain, still in its spawner's context. *)
let test_context_survives_crash_reclaim () =
  let saved = Util.Pool.default_jobs () in
  let crashes () = Obs.Metrics.Counter.value (Obs.Metrics.counter "pool.worker_failures") in
  (match Util.Faultsim.parse "pool:worker@1" with
   | Ok spec -> Util.Faultsim.arm spec
   | Error e -> Alcotest.fail e);
  Fun.protect
    ~finally:(fun () ->
      Util.Faultsim.disarm ();
      Util.Pool.set_default_jobs saved)
  @@ fun () ->
  Util.Pool.set_default_jobs 2;
  let crashes0 = crashes () in
  let f = in_budget 9 (fun () -> Util.Pool.Fut.spawn observed) in
  let t0 = Unix.gettimeofday () in
  while crashes () = crashes0 && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.001
  done;
  check "the worker crashed on the claim" true (crashes () > crashes0);
  in_budget 10 (fun () ->
      let b, d = Util.Pool.Fut.await f in
      check "reclaimed future ran on the awaiting domain" true (d = Domain.self ());
      check "reclaimed future sees its spawner's budget" true (b = Some 9);
      check "awaiter's context restored" true (budget () = Some 10))

(* ---- parallel flow == sequential flow, observably ---- *)

(* Log lines embed statement ids ("hotspot: loop 190 in main"), and ids
   depend on the global fresh-id counter, which has advanced by a
   different amount before the second run of the same app — in *any* two
   successive runs, sequential or not.  Blank the digits right after
   "loop " so the comparison sees the id-independent content. *)
let normalize_line line =
  let buf = Buffer.create (String.length line) in
  let n = String.length line in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    if !i + 5 <= n && String.sub line !i 5 = "loop " then begin
      Buffer.add_string buf "loop ";
      i := !i + 5;
      if !i < n && is_digit line.[!i] then begin
        Buffer.add_char buf '#';
        while !i < n && is_digit line.[!i] do
          incr i
        done
      end
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let observe (rep : Engine.report) =
  ( Report.decision_text rep,
    Report.design_table rep,
    List.map
      (fun (d : Design.t) ->
        (d.Design.d_path, Target.short d.Design.d_target, d.Design.d_valid,
         d.Design.d_speedup, d.Design.d_time_s,
         List.map normalize_line d.Design.d_log))
      rep.Engine.rep_designs )

(* Four levels of nested fan-out sharing one scheduler — suite map →
   flow → branch-path futures → DSE-point futures — must produce
   byte-identical reports at every job count.  This is the shape that
   silently degraded to sequential under the old spare-domain budget,
   and the shape where work-stealing order must never leak into
   results. *)
let run_suite_fanout () =
  fan_out
    (fun (app : App.t) ->
      match
        Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
      with
      | Ok rep -> (observe rep, Report.why_text rep)
      | Error e -> Alcotest.fail e)
    Suite.all

let test_nested_fanout_across_jobs () =
  Cache.set_dir None;
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs 1;
  let reference = run_suite_fanout () in
  List.iter
    (fun jobs ->
      Util.Pool.set_default_jobs jobs;
      check
        (Printf.sprintf "suite reports and --why identical at --jobs %d" jobs)
        true
        (run_suite_fanout () = reference))
    [ 2; 8 ]

(* The metrics `psaflow --explain` prints must also be identical at any
   job count: everything scheduling- or wall-clock-dependent (pool.*,
   *.seconds timings and histograms, cache single-flight waits) is
   excluded by the shared Obs.Metrics.jobs_invariant predicate — the
   same one bin/psaflow.ml filters with — and what remains is required
   to be deterministic. *)
let explain_visible_snapshot () =
  List.filter
    (fun (name, _) -> Obs.Metrics.jobs_invariant name)
    (Obs.Metrics.snapshot ())

let test_explain_metrics_across_jobs () =
  Cache.set_dir None;
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  let snap_at jobs =
    Util.Pool.set_default_jobs jobs;
    Cache.clear_memory ();
    Obs.Metrics.reset ();
    (match
       Engine.run ~workload:Nbody.app.App.app_test_overrides
         ~mode:Pipeline.Uninformed Nbody.app
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    explain_visible_snapshot ()
  in
  let reference = snap_at 1 in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "explain-visible metrics identical at --jobs %d" jobs)
        true
        (snap_at jobs = reference))
    [ 2; 8 ]

let prop_parallel_run_equals_sequential =
  QCheck.Test.make ~count:5 ~name:"parallel Engine.run == sequential (all apps)"
    (QCheck.make
       ~print:(fun i -> (List.nth Suite.all (i mod List.length Suite.all)).App.app_slug)
       QCheck.Gen.(0 -- (List.length Suite.all - 1)))
    (fun i ->
      let app = List.nth Suite.all i in
      let run () =
        Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
      in
      Util.Pool.set_default_jobs 1;
      let sequential = run () in
      Util.Pool.set_default_jobs 4;
      let parallel = run () in
      restore_jobs ();
      match (sequential, parallel) with
      | Ok s, Ok p -> observe s = observe p
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

let suite =
  [
    ("futures match a sequential map", `Quick, test_futures_match_sequential);
    ("pool map on empty/singleton lists", `Quick, test_map_empty_and_singleton);
    ("one job runs futures in order", `Quick, test_one_job_in_order);
    ("exceptions propagate to the submitter", `Quick, test_exception_propagates);
    ("first failure in input order wins", `Quick, test_first_exception_wins);
    ("nested maps neither deadlock nor reorder", `Quick, test_nested_maps);
    ("default jobs can be set and restored", `Quick, test_default_jobs_roundtrip);
    ("request context follows the future", `Quick, test_context_follows_future);
    ("request context at --jobs 1", `Quick, test_context_eager);
    ( "request context survives a crash reclaim",
      `Quick,
      test_context_survives_crash_reclaim );
    ( "nested suite fan-out byte-identical at --jobs 1/2/8",
      `Quick,
      test_nested_fanout_across_jobs );
    ( "explain-visible metrics identical at --jobs 1/2/8",
      `Quick,
      test_explain_metrics_across_jobs );
    QCheck_alcotest.to_alcotest prop_parallel_run_equals_sequential;
  ]
