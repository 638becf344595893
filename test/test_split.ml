(* Parallel planned nests: at --jobs > 1 the VM may run a committed nest's
   root level as chunks on the pool.  Every observable must stay equal to
   the walker's and to the serial VM's; nests whose root iterations the
   guard cannot prove independent must stay serial; and the split must
   actually happen where the flows spend their time. *)

let check = Alcotest.(check bool)

let parse = Parser.parse_program

let splits () = Obs.Metrics.Counter.value (Obs.Metrics.counter "vm.nests.parallel")

let with_jobs jobs f =
  let saved = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) f

(* The walker, the VM at --jobs 1 and the VM at --jobs 4 agree on every
   observable; also returns how many nest entries the --jobs 4 run split. *)
let agree3 ~config p =
  let walker = Test_compile.run_backend `Ast config p in
  let serial = with_jobs 1 (fun () -> Test_compile.run_backend `Vm config p) in
  let s0 = splits () in
  let parallel = with_jobs 4 (fun () -> Test_compile.run_backend `Vm config p) in
  ( Test_compile.outcomes_equal walker serial && Test_compile.outcomes_equal walker parallel,
    splits () - s0 )

let default = Machine.default_config

(* every observer the flows use, one at a time and together; [fn] is the
   function the region observes *)
let configs ~fn =
  [
    ("plain", default);
    ("profile_loops", { default with Machine.profile_loops = true });
    ("trace_aliases", { default with Machine.trace_aliases = true });
    ("region", { default with Machine.regions = [ Machine.Rfunc fn ] });
    ( "flow-profiled",
      {
        default with
        Machine.profile_loops = true;
        trace_aliases = true;
        regions = [ Machine.Rfunc fn ];
      } );
  ]

(* ---- generated nests above the split floor ----

   The random kernels of [Test_props] with [N] raised from 16 to 8192, so
   most entries run tens of thousands of statements.  Each program runs
   under one of the configs (cycled), and half the batch must split. *)

let random_batch ~name ~seed ~count ~fn gen =
  let srcs = QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:count gen in
  let cfgs = Array.of_list (configs ~fn) in
  let split = ref 0 in
  List.iteri
    (fun k src ->
      let label, config = cfgs.(k mod Array.length cfgs) in
      let config = { config with Machine.overrides = [ ("N", Value.Vint 8192) ] } in
      let ok, splits = agree3 ~config (parse src) in
      if not ok then Alcotest.failf "%s (%s) disagrees on:\n%s" name label src;
      if splits > 0 then incr split)
    srcs;
  if 2 * !split < count then Alcotest.failf "%s: %d of %d programs split" name !split count

let test_random_main () =
  random_batch ~name:"random nests in main" ~seed:11 ~count:12 ~fn:"main"
    Test_props.Gen.program

let test_random_kernels () =
  random_batch ~name:"random kernels" ~seed:12 ~count:8 ~fn:"knl"
    (QCheck.Gen.map (Test_props.Gen.dp_shape ~kernel:true) Test_props.Gen.body)

let test_random_sp_kernels () =
  random_batch ~name:"random single-precision kernels" ~seed:13 ~count:6 ~fn:"knl"
    (QCheck.Gen.map (Test_props.Gen.sp_shape ~kernel:true) Test_props.Gen.sp_body)

let test_random_hip () =
  random_batch ~name:"random HIP launches" ~seed:14 ~count:10 ~fn:"knl"
    Test_props.Gen.hip_program

(* ---- what keeps a nest serial ----

   Each body runs in a 8192-iteration root loop, in [knl], unobserved and
   flow-profiled: the pair agrees and no entry splits ([main]'s loops draw from
   the PRNG or reduce, so they never split).  The control body, with the
   same work and no violation, splits under every config. *)

let nest_src body =
  Printf.sprintf
    {|
const int N = 8192;
double acc = 0.0;
int cnt = 0;
void knl(double* x, double* y) {
  for (int i = 1; i < N - 1; i++) {
    double t = 0.0;
    for (int j = 0; j < 4; j++) { t += x[i] * (double)j; }
    %s
  }
}
int main() {
  double x[N];
  double y[N];
  for (int i = 0; i < N; i++) { x[i] = (double)(i %% 13) * 0.25 + rand01(); y[i] = 1.0; }
  knl(x, y);
  double checksum = acc + (double)cnt;
  for (int i = 0; i < N; i++) { checksum += y[i]; }
  print_float(checksum);
  return 0;
}|}
    body

(* the rules do not depend on the observers, except the first-touch rule
   under a region: unobserved and fully observed runs cover them *)
let plain_and_flow () =
  List.filter (fun (label, _) -> label = "plain" || label = "flow-profiled") (configs ~fn:"knl")

let serial_case name body =
  let p = parse (nest_src body) in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "%s (%s): matches the walker" name label) true ok;
      check (Printf.sprintf "%s (%s): stays serial" name label) true (n = 0))
    (plain_and_flow ())

let test_control_splits () =
  let p = parse (nest_src "y[i] = t + x[i + 1];") in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "control (%s): matches the walker" label) true ok;
      check (Printf.sprintf "control (%s): splits" label) true (n > 0))
    (configs ~fn:"knl")

let test_loop_carried () =
  serial_case "loop-carried array dependence" "y[i] = y[i - 1] * 0.5 + t;"

let test_scalar_reduction () = serial_case "int reduction" "cnt = cnt + (i % 7); y[i] = t;"

let test_float_reduction () = serial_case "floating-point reduction" "acc += t * 1.5;"

let test_local_reduction () =
  (* an accumulator declared outside the root loop is an external scalar *)
  serial_case "accumulator into a cell" "y[0] += t;"

let test_overlapping_stores () =
  serial_case "overlapping store cursors" "y[i] = t; y[i + 1] = x[i] * 0.5;"

let test_checked_store () = serial_case "checked store" "y[(i * 7) % N] = t;"

let test_checked_load_of_stored () =
  serial_case "checked load of a stored array" "y[i] = t + y[(i * 3) % N];"

let test_prng () = serial_case "PRNG draw" "y[i] = t + rand01();"

let test_conditional_declaration () =
  serial_case "conditional array declaration"
    "if (x[i] > 1.0) { double s[4]; s[1] = t; y[i] = s[1]; } else { y[i] = t; }"

(* Twenty inner levels, each first entered in its own stretch of root
   iterations: the loop accumulators are created in first-entry order,
   which the table's bucket collisions make observable, so the merge must
   concatenate the chunks' first entries in chunk order. *)
let test_first_entry_order () =
  let guarded =
    String.concat "\n"
      (List.init 20 (fun c ->
           Printf.sprintf
             "if (i >= %d && i < %d) { for (int j = 0; j < 2; j++) { y[i] += x[j] * %d.0; } }"
             (c * 409) ((c + 1) * 409) c))
  in
  let p = parse (nest_src ("y[i] = t;\n" ^ guarded)) in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "first entries (%s): match the walker" label) true ok;
      check (Printf.sprintf "first entries (%s): split" label) true (n > 0))
    [
      ("profile_loops", { default with Machine.profile_loops = true });
      ("flow-profiled", List.assoc "flow-profiled" (configs ~fn:"knl"));
    ]

(* An array the nest touches only in an arm that never runs gets no
   footprint entry: under a region the first-touch order is not fixed,
   so the nest stays serial rather than resolving it up front. *)
let test_arm_only_array () =
  let p =
    parse
      {|
const int N = 8192;
void knl(double* x, double* y, double* z) {
  for (int i = 0; i < N; i++) {
    double t = 0.0;
    for (int j = 0; j < 4; j++) { t += x[i] * (double)j; }
    if (x[i] > 1.0e9) { z[i] = t; }
    y[i] = t;
  }
}
int main() {
  double x[N];
  double y[N];
  double z[N];
  for (int i = 0; i < N; i++) { x[i] = rand01(); y[i] = 0.0; z[i] = 0.0; }
  knl(x, y, z);
  print_float(y[5] + z[5]);
  return 0;
}|}
  in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "arm-only array (%s): matches the walker" label) true ok;
      let marking = config.Machine.regions <> [] in
      check (Printf.sprintf "arm-only array (%s): splits unless marking" label) true
        (if marking then n = 0 else n > 0))
    (configs ~fn:"knl")

(* the declaration bezier's hotspot makes: unconditional, once per root
   iteration, so the arrays are allocated before the chunks start *)
let test_declared_arrays_split () =
  let p =
    parse
      (nest_src
         "double s[4]; double r[3]; for (int j = 0; j < 4; j++) { s[j] = t + (double)j; } \
          r[2] = s[3]; y[i] = s[1] + r[2] + r[0];")
  in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "declared arrays (%s): match the walker" label) true ok;
      check (Printf.sprintf "declared arrays (%s): split" label) true (n > 0))
    (configs ~fn:"knl")

(* an inner level that starts at the root index and stops at a clamp of
   it: its trip count differs per root iteration, in every chunk *)
let test_triangular_split () =
  let p =
    parse
      (nest_src
         "for (int j = i; j < imin(i + 6, N - 1); j++) { t += x[j] * 0.25; } \
          for (int jj = 0; jj < 10; jj += 4) { for (int j = jj; j < imin(jj + 4, 10); j++) \
          { t += x[j - jj] * (double)j; } } y[i] = t;")
  in
  List.iter
    (fun (label, config) ->
      let ok, n = agree3 ~config p in
      check (Printf.sprintf "triangular (%s): matches the walker" label) true ok;
      check (Printf.sprintf "triangular (%s): splits" label) true (n > 0))
    (configs ~fn:"knl")

(* a chunk's out-of-bounds load raises exactly the serial error: the
   earliest failing chunk's, with the walker's index *)
let test_error_in_chunk () =
  List.iter
    (fun body ->
      let p = parse (nest_src body) in
      List.iter
        (fun (label, config) ->
          let walker = Test_compile.run_backend `Ast config p in
          check (Printf.sprintf "%s (%s): walker fails" body label) true
            (match walker with Test_compile.Failed _ -> true | _ -> false);
          let ok, _ = agree3 ~config p in
          check (Printf.sprintf "%s (%s): same error" body label) true ok)
        (plain_and_flow ()))
    [
      "y[i] = x[(i * 5) % (N + 64)] + t;";
      "y[i] = t + x[(i > 6000) ? i * 2 : i];";
    ]

(* an injected pool-worker crash before a chunk future runs: the awaiting
   domain reruns it, and the result is unchanged *)
let test_worker_crash () =
  let p = parse (nest_src "y[i] = t + x[i + 1];") in
  let config = List.assoc "flow-profiled" (configs ~fn:"knl") in
  let clean = Test_compile.run_backend `Ast config p in
  let failures () = Obs.Metrics.Counter.value (Obs.Metrics.counter "pool.worker_failures") in
  let f0 = failures () and s0 = splits () in
  (match Util.Faultsim.parse "pool:worker" with
   | Ok spec -> Util.Faultsim.arm spec
   | Error e -> Alcotest.fail e);
  let faulted =
    Fun.protect ~finally:Util.Faultsim.disarm (fun () ->
        with_jobs 4 (fun () -> Test_compile.run_backend `Vm config p))
  in
  check "crashed worker: same observables" true (Test_compile.outcomes_equal clean faulted);
  check "crashed worker: the nest split" true (splits () > s0);
  check "crashed worker: faults fired" true (failures () > f0)

(* With the other pool worker held on a blocking future, the committing
   domain claims every chunk itself and then runs the chunk future
   inline: the future finds nothing left to claim and returns without a
   [vm-chunks] span *)
let test_busy_worker () =
  let p = parse (nest_src "y[i] = t + x[i + 1];") in
  let walker = Test_compile.run_backend `Ast default p in
  let m = Mutex.create () and c = Condition.create () in
  let started = Atomic.make false and released = ref false in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  with_jobs 2 (fun () ->
      let blocker =
        Util.Pool.Fut.spawn (fun () ->
            Mutex.lock m;
            Atomic.set started true;
            while not !released do Condition.wait c m done;
            Mutex.unlock m)
      in
      let vm, split, spans =
        Fun.protect
          ~finally:(fun () ->
            release ();
            Util.Pool.Fut.await blocker)
          (fun () ->
            let deadline = Unix.gettimeofday () +. 10.0 in
            while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            if not (Atomic.get started) then Alcotest.fail "the pool worker never started";
            Obs.Trace.start ();
            let s0 = splits () in
            let vm =
              Fun.protect ~finally:Obs.Trace.stop (fun () ->
                  Test_compile.run_backend `Vm default p)
            in
            let spans =
              List.filter (fun e -> e.Obs.Trace.ev_name = "vm-chunks") (Obs.Trace.events ())
            in
            (vm, splits () - s0, spans))
      in
      check "busy worker: matches the walker" true (Test_compile.outcomes_equal walker vm);
      check "busy worker: the nest split" true (split > 0);
      check "busy worker: no vm-chunks span" true (spans = []))

(* ... and a whole flow prints the same report *)
let test_worker_crash_flow () =
  Cache.set_dir None;
  let run () =
    Cache.clear_memory ();
    match
      Engine.run ~workload:Rush_larsen.app.App.app_test_overrides ~mode:Pipeline.Uninformed
        Rush_larsen.app
    with
    | Ok rep -> (Test_pool.observe rep, Report.why_text rep)
    | Error e -> Alcotest.fail e
  in
  let reference = with_jobs 1 run in
  let s0 = splits () in
  (match Util.Faultsim.parse "pool:worker" with
   | Ok spec -> Util.Faultsim.arm spec
   | Error e -> Alcotest.fail e);
  let faulted = Fun.protect ~finally:Util.Faultsim.disarm (fun () -> with_jobs 4 run) in
  check "faulted flow: nests split" true (splits () > s0);
  check "faulted flow: same report" true (faulted = reference)

(* HIP launch bodies the guard cannot clamp, or whose accesses stay
   checked: each still matches the walker and stays serial, or the launch
   loop stays unplanned *)
let hip_src ?(launch = "body(__tid, x, y);") body =
  Printf.sprintf
    {|
const int N = 8192;
int lim = N - 3;
void body(int __tid, double* x, double* y) {
%s
}
void knl(double* x, double* y) {
  for (int __tid = 0; __tid < N; __tid++) { %s }
}
int main() {
  double x[N + 8];
  double y[N + 8];
  for (int i = 0; i < N + 8; i++) { x[i] = (double)(i %% 13) * 0.25 + rand01(); y[i] = 1.0; }
  knl(x, y);
  double checksum = (double)lim;
  for (int i = 0; i < N + 8; i++) { checksum += y[i]; }
  print_float(checksum);
  return 0;
}|}
    body launch

let test_hip_unclamped () =
  let one = "body(__tid, x, y);" in
  let tile bound =
    Printf.sprintf
      "int i = 0 + __tid; if (i < N - 3) { for (int jj = 0; jj < 10; jj += 4) { \
       for (int j = jj; j < imin(jj + 4, %s); j++) { y[i] += x[j] * 0.5; } } }"
      bound
  in
  List.iter
    (fun (name, launch, body) ->
      let p = parse (hip_src ~launch body) in
      List.iter
        (fun (label, config) ->
          let ok, n = agree3 ~config p in
          check (Printf.sprintf "%s (%s): matches the walker" name label) true ok;
          check (Printf.sprintf "%s (%s): stays serial" name label) true (n = 0))
        (plain_and_flow ()))
    [
      ( "a local written twice",
        one,
        "int i = 1 + __tid; i = i - 1; if (i < N - 3) { y[i] = x[i] * 2.0; }" );
      ( "a reassigned __tid",
        one,
        "__tid = __tid + 1; int i = 0 + __tid; if (i < N - 3) { y[i] = x[i] * 2.0; }" );
      ( "a guard followed by another statement",
        one,
        "int i = 1 + __tid; if (i < N - 3) { y[i] = x[i] * 2.0; } y[__tid] += 0.5;" );
      ( "a guard bound written in the nest",
        one,
        "int i = 0 + __tid; if (i < lim) { y[i] = x[i] * 2.0; lim = lim - 1; }" );
      ("an imin over a loaded value", one, tile "(int)x[0] + 9");
      (* both copies share the guard's statement; only the last may clamp *)
      ( "a guarded body called twice",
        "body(__tid + 1, x, y); body(__tid, x, y);",
        "int i = 0 + __tid; if (i < N) { y[i] = y[i] * 0.5 + x[i]; }" );
    ]

(* N-Body's shared-memory HIP design, as the flow emits it at quick size:
   its launch loop calls the body once per thread, the body indexes
   through [int i = 0 + __tid;] under [if (i < N)] and stages tiles in a
   [__jj] loop whose inner level starts at [__jj].  Under the config of
   the flow's HIP profile the pair agrees and the launch loop splits. *)
let test_nbody_hip_splits () =
  Cache.set_dir None;
  Cache.clear_memory ();
  let workload = Nbody.app.App.app_test_overrides in
  let rep =
    match Engine.run ~workload ~mode:Pipeline.Uninformed Nbody.app with
    | Ok rep -> rep
    | Error e -> Alcotest.fail e
  in
  let hip =
    List.find
      (fun (d : Design.t) -> match d.Design.d_target with Target.Gpu _ -> true | _ -> false)
      rep.Engine.rep_designs
  in
  let p = hip.Design.d_program in
  check "the HIP design stages shared-memory tiles" true
    (Query.loops p
    |> List.exists (fun (lm : Query.loop_match) -> lm.Query.lm_header.Ast.index = "__jj"));
  let config =
    {
      (List.assoc "flow-profiled" (configs ~fn:"knl")) with
      Machine.overrides = App.machine_overrides workload;
    }
  in
  let ok, n = agree3 ~config p in
  check "N-Body HIP design: matches the walker" true ok;
  check "N-Body HIP design: vm.nests.parallel > 0" true (n > 0)

(* Every app's evaluation flow splits some nest at --jobs 2. *)
let test_apps_split () =
  Cache.set_dir None;
  with_jobs 2 (fun () ->
      List.iter
        (fun (app : App.t) ->
          Cache.clear_memory ();
          let s0 = splits () in
          (match Engine.run ~mode:Pipeline.Uninformed app with
           | Ok _ -> ()
           | Error e -> Alcotest.fail e);
          check (app.App.app_slug ^ ": vm.nests.parallel > 0") true (splits () > s0))
        Suite.all)

let suite =
  [
    Alcotest.test_case "random nests in main" `Quick test_random_main;
    Alcotest.test_case "random kernels" `Quick test_random_kernels;
    Alcotest.test_case "random single-precision kernels" `Quick test_random_sp_kernels;
    Alcotest.test_case "control nest splits" `Quick test_control_splits;
    Alcotest.test_case "loop-carried dependence stays serial" `Quick test_loop_carried;
    Alcotest.test_case "int reduction stays serial" `Quick test_scalar_reduction;
    Alcotest.test_case "float reduction stays serial" `Quick test_float_reduction;
    Alcotest.test_case "cell accumulator stays serial" `Quick test_local_reduction;
    Alcotest.test_case "overlapping stores stay serial" `Quick test_overlapping_stores;
    Alcotest.test_case "checked store stays serial" `Quick test_checked_store;
    Alcotest.test_case "checked load of a stored array stays serial" `Quick
      test_checked_load_of_stored;
    Alcotest.test_case "PRNG draw stays serial" `Quick test_prng;
    Alcotest.test_case "conditional declaration stays serial" `Quick
      test_conditional_declaration;
    Alcotest.test_case "declared arrays split" `Quick test_declared_arrays_split;
    Alcotest.test_case "first-entry order across chunks" `Quick test_first_entry_order;
    Alcotest.test_case "arm-only array under a region" `Quick test_arm_only_array;
    Alcotest.test_case "levels bounded by the root index split" `Quick test_triangular_split;
    Alcotest.test_case "error in a chunk" `Quick test_error_in_chunk;
    Alcotest.test_case "worker crash in a split nest" `Quick test_worker_crash;
    Alcotest.test_case "worker crash in a split flow" `Quick test_worker_crash_flow;
    Alcotest.test_case "chunk future after the last claim" `Quick test_busy_worker;
    Alcotest.test_case "random HIP launches" `Quick test_random_hip;
    Alcotest.test_case "unclamped HIP bodies stay serial" `Quick test_hip_unclamped;
    Alcotest.test_case "N-Body HIP design splits" `Quick test_nbody_hip_splits;
    Alcotest.test_case "every app's eval flow splits" `Slow test_apps_split;
  ]
