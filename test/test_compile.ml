(* Differential tests for the superinstruction VM: it must be observably
   bit-identical to the reference tree-walker on every program — output,
   counters, loop/region stats, alias verdicts, final memory, and raised
   exceptions.  Every parity check below runs the walker/VM pair. *)

let check = Alcotest.(check bool)

let parse = Parser.parse_program

(* Observable projection of a result.  Hashtbl-fold-built assoc lists are
   compared sorted by key, and separately in list order ([o_order]): every
   backend populates the tables in the walker's first-touch order, and
   cache keys hash [rs_traffic] in list order, so the order is observable
   too — for loop stats, region traffic and alias verdicts alike.  Memory
   is projected to (name, elem_ty, contents) per base: both backends
   allocate in the same program order, so bases line up. *)
type observation = {
  o_ret : Value.t option;
  o_output : string list;
  o_counters : Counters.t;
  o_loops : (int * (int * int * Counters.t)) list;
  o_regions :
    (Machine.region * (int * Counters.t * (string * int * int * int) list * int * int))
    list;
  o_aliases : (string * bool) list;
  o_memory : (string * Ast.ty * float array) list;
  o_order : int list * (Machine.region * string list) list * string list;
}

let observe (r : Machine.result) : observation =
  let mem = r.Machine.memory in
  let arrays = ref [] in
  for base = Memory.array_count mem - 1 downto 0 do
    arrays :=
      (Memory.name mem base, Memory.elem_ty mem base, Memory.to_float_array mem base)
      :: !arrays
  done;
  {
    o_ret = r.Machine.ret;
    o_output = r.Machine.output;
    o_counters = r.Machine.counters;
    o_loops =
      List.sort compare
        (List.map
           (fun (sid, (ls : Machine.loop_stats)) ->
             (sid, (ls.Machine.ls_entries, ls.Machine.ls_iterations, ls.Machine.ls_counters)))
           r.Machine.loop_stats);
    o_regions =
      List.sort compare
        (List.map
           (fun (rg, (rs : Machine.region_stats)) ->
             ( rg,
               ( rs.Machine.rs_invocations,
                 rs.Machine.rs_counters,
                 List.sort compare
                   (List.map
                      (fun (t : Machine.array_traffic) ->
                        ( t.Machine.at_name,
                          t.Machine.at_elem_bytes,
                          t.Machine.at_read_elems,
                          t.Machine.at_written_elems ))
                      rs.Machine.rs_traffic),
                 rs.Machine.rs_bytes_in,
                 rs.Machine.rs_bytes_out ) ))
           r.Machine.region_stats);
    o_aliases = List.sort compare r.Machine.aliased_funcs;
    o_memory = !arrays;
    o_order =
      ( List.map fst r.Machine.loop_stats,
        List.map
          (fun (rg, (rs : Machine.region_stats)) ->
            ( rg,
              List.map
                (fun (t : Machine.array_traffic) -> t.Machine.at_name)
                rs.Machine.rs_traffic ))
          r.Machine.region_stats,
        List.map fst r.Machine.aliased_funcs );
  }

(* run one backend, capturing normal results and exceptions uniformly *)
type outcome =
  | Completed of observation
  | Failed of Loc.t * string
  | Out_of_steps

let run_backend backend config p : outcome =
  match Machine.run ~config ~backend p with
  | r -> Completed (observe r)
  | exception Machine.Runtime_error (loc, msg) -> Failed (loc, msg)
  | exception Machine.Step_limit_exceeded -> Out_of_steps

let outcomes_equal a b =
  match a, b with
  | Completed oa, Completed ob -> compare oa ob = 0
  | Failed (la, ma), Failed (lb, mb) -> la = lb && String.equal ma mb
  | Out_of_steps, Out_of_steps -> true
  | _ -> false

(* interpreter counts, read through the metrics registry *)
let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let planned () = counter "vm.steps.planned"

let agree ?(config = Machine.default_config) p =
  outcomes_equal (run_backend `Ast config p) (run_backend `Vm config p)

let agree_src ?config src = agree ?config (parse src)

(* a config that exercises every profiling observable at once *)
let full_config (p : Ast.program) =
  let fnames = List.map (fun f -> f.Ast.fname) (Ast.funcs p) in
  let sids = List.map (fun (lm : Query.loop_match) -> lm.Query.lm_stmt.Ast.sid) (Query.loops p) in
  {
    Machine.default_config with
    profile_loops = true;
    trace_aliases = true;
    regions =
      List.map (fun f -> Machine.Rfunc f) fnames
      @ List.map (fun s -> Machine.Rstmt s) sids;
  }

(* The config real flows interpret kernels with (hotspot, trip-count,
   data in/out and alias analyses, [Kprofile.collect]): loop profiling,
   alias tracing and an [Rfunc] region on the kernel function.  Unlike
   [full_config] it puts no [Rstmt] region on any loop, so nests stay
   planned and the VM's profiled path is what gets compared. *)
let flow_config ?(kernel = "knl") () =
  {
    Machine.default_config with
    profile_loops = true;
    trace_aliases = true;
    regions = [ Machine.Rfunc kernel ];
  }

(* [agree], plus the VM must have executed statements on its planned path
   — a pair that only ever compares the walker with itself proves
   nothing about the lowering *)
let agree_planned ?config p =
  let before = planned () in
  let ok = agree ?config p in
  ok && planned () > before

(* ---- the five suite applications ---- *)

let test_suite_apps () =
  List.iter
    (fun (app : App.t) ->
      let p = App.program app in
      let config =
        {
          (full_config p) with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      check
        (Printf.sprintf "backends agree on %s (fully profiled)" app.App.app_slug)
        true
        (agree ~config p))
    Suite.all

(* each app's hotspot outlined into [knl] exactly as the flows do, then
   interpreted under the flow-shaped config; the whole program under an
   [Rfunc main] region as well, so every nest runs with footprints on *)
let test_suite_apps_flow () =
  List.iter
    (fun (app : App.t) ->
      let p = App.program app in
      let overrides = App.machine_overrides app.App.app_test_overrides in
      let whole = { (flow_config ~kernel:"main" ()) with overrides } in
      check
        (Printf.sprintf "backends agree on %s (main region, planned)" app.App.app_slug)
        true (agree_planned ~config:whole p);
      match Hotspot.detect p with
      | [] -> Alcotest.failf "%s: no hotspot" app.App.app_slug
      | h :: _ ->
        (match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
         | Error e -> Alcotest.failf "%s: extraction failed: %s" app.App.app_slug e
         | Ok ex ->
           let config = { (flow_config ()) with overrides } in
           check
             (Printf.sprintf "backends agree on %s (kernel region, planned)"
                app.App.app_slug)
             true
             (agree_planned ~config ex.Hotspot.ex_program)))
    Suite.all

(* every design the quick uninformed flows emit — single-precision HIP
   bodies with tile clamps, oneAPI kernels, OpenMP loops — through the
   walker/VM pair, unprofiled and with every function an observation region
   (so accesses in the body mark up to four nested frames at once) *)
let test_design_programs () =
  List.iter
    (fun (app : App.t) ->
      match
        Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
      with
      | Error e -> Alcotest.failf "%s: %s" app.App.app_slug e
      | Ok rep ->
        let overrides = App.machine_overrides app.App.app_test_overrides in
        List.iter
          (fun (d : Design.t) ->
            let p = d.Design.d_program in
            let name = app.App.app_slug ^ " " ^ Target.short d.Design.d_target in
            let plain = { Machine.default_config with overrides } in
            let profiled =
              {
                (flow_config ()) with
                overrides;
                regions = List.map (fun f -> Machine.Rfunc f.Ast.fname) (Ast.funcs p);
              }
            in
            check (name ^ " design (unprofiled)") true (agree_planned ~config:plain p);
            check (name ^ " design (profiled)") true (agree_planned ~config:profiled p))
          rep.Engine.rep_designs)
    Suite.all

let test_suite_apps_plain () =
  List.iter
    (fun (app : App.t) ->
      let p = App.program app in
      let config =
        {
          Machine.default_config with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      check (Printf.sprintf "backends agree on %s (no profiling)" app.App.app_slug)
        true (agree ~config p))
    Suite.all

(* ---- targeted parity cases ---- *)

let test_shadowing () =
  check "inner decl shadows, outer restored" true
    (agree_src
       {|
int main() {
  int x = 1;
  { int x = 2; print_int(x); }
  print_int(x);
  for (int i = 0; i < 3; i++) { double x = 0.5; print_float(x + (double)i); }
  print_int(x);
  return 0;
}|})

let test_use_before_decl () =
  (* a use before the local declaration resolves to the outer binding in
     both backends *)
  check "use before declaration sees outer binding" true
    (agree_src
       {|
int g = 7;
int main() {
  print_int(g);
  int h = g + 1;
  int g = 100;
  print_int(g);
  print_int(h);
  return 0;
}|})

let test_early_return_and_break () =
  check "early return / break / continue" true
    (agree_src
       {|
int f(int n) {
  for (int i = 0; i < n; i++) {
    if (i == 3) { break; }
    if (i == 1) { continue; }
    if (n > 10) { return -1; }
    print_int(i);
  }
  return n;
}
int main() {
  print_int(f(5));
  print_int(f(20));
  while (true) { break; }
  return 0;
}|})

let test_numeric_semantics () =
  (* mixed precision, casts, bool arrays, integral Mod on floats, compound
     ops: the corners where the VM's static representations must match
     the dynamic walker exactly *)
  check "numeric corner cases" true
    (agree_src
       {|
int main() {
  bool flags[4];
  flags[0] = 0.5;
  flags[1] = true;
  flags[2] = 0.0;
  flags[3] = 3;
  int ones = 0;
  for (int i = 0; i < 4; i++) { if (flags[i]) { ones += 1; } }
  print_int(ones);
  double d = 7.9;
  float s = 7.9f;
  int t = (int)d;
  print_int(t);
  print_int(d % 3);
  print_float((double)s);
  float arr[3];
  arr[0] = 1.0000001;
  arr[1] = (float)(1.0 / 3.0);
  arr[2] = 2;
  double acc = 0.0;
  for (int i = 0; i < 3; i++) { acc += arr[i]; }
  print_float(acc);
  int k = 10;
  k /= 3;
  k *= -2;
  print_int(k);
  d -= 0.5f;
  s += 1;
  print_float(d);
  print_float((double)s);
  int ia[2];
  ia[0] = 41;
  ia[1] = 2;
  ia[0] += 1;
  ia[1] *= 3;
  print_int(ia[0] + ia[1]);
  print_float(fabs(-2.5) + fminf(1.0f, 2.0f) + (double)imax(3, 4));
  print_float(1.0 ? 2.0 : 3.0);
  print_int(true ? 1 : 0);
  return 0;
}|})

let test_alias_tracing () =
  let src =
    {|
double sum2(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i] + b[i]; }
  return s;
}
int main() {
  double x[8];
  double y[8];
  for (int i = 0; i < 8; i++) { x[i] = (double)i; y[i] = 1.0; }
  print_float(sum2(x, y, 8));
  print_float(sum2(x, x, 8));
  return 0;
}|}
  in
  let p = parse src in
  check "alias verdicts agree" true (agree ~config:(full_config p) p);
  (* and positively: the VM detects the aliasing call *)
  let config = { (full_config p) with trace_aliases = true } in
  let r = Machine.run ~config ~backend:`Vm p in
  check "vm backend flags sum2 as aliased" true
    (List.assoc_opt "sum2" r.Machine.aliased_funcs = Some true)

let test_global_overrides () =
  let p =
    parse
      {|
const int N = 4;
double scale = 0.5;
int main() {
  double acc = 0.0;
  for (int i = 0; i < N; i++) { acc += scale * (double)i; }
  print_float(acc);
  return 0;
}|}
  in
  let config =
    { Machine.default_config with overrides = [ ("N", Value.Vint 6) ] }
  in
  check "global override respected identically" true (agree ~config p);
  (* the walker skips evaluating the overridden initializer; so must we *)
  let r = Machine.run ~config ~backend:`Vm p in
  check "override value used" true (r.Machine.output = [ "7.5" ])

let test_error_parity () =
  let cases =
    [
      ("div by zero", "int main() { int a = 1; int b = 0; print_int(a / b); return 0; }");
      ("mod by zero", "int main() { int a = 1; int b = 0; print_int(a % b); return 0; }");
      ( "oob read",
        "int main() { double a[4]; print_float(a[7]); return 0; }" );
      ( "oob write",
        "int main() { double a[4]; for (int i = 0; i <= 4; i++) { a[i] = 1.0; } return 0; }" );
      ( "unknown intrinsic",
        "int main() { print_int(mystery(3)); return 0; }" );
      ( "arity mismatch",
        "int f(int a, int b) { return a + b; } int main() { print_int(f(1)); return 0; }" );
      ( "negative alloc",
        "int main() { int n = 0 - 3; double a[n]; return 0; }" );
      ( "global initialiser reads a later global",
        "int f() { return later; }\nint early = f();\nint later = 5;\n\
         int main() { print_int(early); return 0; }" );
    ]
  in
  List.iter (fun (name, src) -> check name true (agree_src src)) cases;
  (* the walker's own error, not the later global's zero-initialised cell *)
  check "later global: unbound at the use" true
    (match
       run_backend `Vm Machine.default_config
         (parse "int f() { return later; }\nint early = f();\nint later = 5;\n\
                 int main() { print_int(early); return 0; }")
     with
     | Failed (loc, msg) -> (loc.Loc.line, loc.Loc.col, msg) = (1, 18, "unbound variable later")
     | Completed _ | Out_of_steps -> false)

let test_step_limit_parity () =
  let src =
    {|
int main() {
  int acc = 0;
  for (int i = 0; i < 1000; i++) { acc += i; acc += 1; acc += 2; }
  print_int(acc);
  return 0;
}|}
  in
  let p = parse src in
  (* sweep budgets across segment boundaries: the batched budget must
     raise exactly when per-statement ticking would *)
  for max_steps = 1 to 60 do
    let config = { Machine.default_config with max_steps } in
    check (Printf.sprintf "step budget %d" max_steps) true (agree ~config p)
  done;
  (* and at a coarser grain across the whole run *)
  List.iter
    (fun max_steps ->
      let config = { Machine.default_config with max_steps } in
      check (Printf.sprintf "step budget %d" max_steps) true (agree ~config p))
    [ 100; 1000; 2000; 5000; 5999; 6000; 6007; 8000 ]

let test_step_count_identical () =
  (* same program, both backends complete: identical total steps *)
  List.iter
    (fun (app : App.t) ->
      let config =
        {
          Machine.default_config with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      let p = App.program app in
      let sa = (Machine.run ~config ~backend:`Ast p).Machine.counters.(Counters.steps) in
      let sv = (Machine.run ~config ~backend:`Vm p).Machine.counters.(Counters.steps) in
      Alcotest.(check int) (app.App.app_slug ^ " steps (vm)") sa sv)
    Suite.all

let test_recursion () =
  check "recursion and mutual calls" true
    (agree_src
       {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
int main() {
  print_int(fib(12));
  print_int(is_even(9));
  print_int(is_odd(9));
  return 0;
}|})

let test_prng_stream () =
  (* PRNG draws must interleave identically with all other evaluation *)
  check "rand01 stream order" true
    (agree_src
       {|
int main() {
  double a = rand01() + rand01() * rand01();
  double b = rand01() < 0.5 ? rand01() : rand01() + 1.0;
  print_float(a);
  print_float(b);
  print_float(rand01());
  return 0;
}|})

let test_run_metrics_accumulate () =
  let seconds () = Obs.Metrics.Gauge.value (Obs.Metrics.gauge "interp.seconds") in
  let runs0 = counter "interp.runs" and steps0 = counter "interp.steps" in
  let seconds0 = seconds () in
  let p = parse "int main() { print_int(1 + 2); return 0; }" in
  ignore (Machine.run p);
  ignore (Machine.run ~backend:`Ast p);
  Alcotest.(check int) "two runs recorded" 2 (counter "interp.runs" - runs0);
  check "steps accumulated" true (counter "interp.steps" > steps0);
  check "time accumulated" true (seconds () >= seconds0)

(* vm.steps.planned counts completed runs only, like interp.runs and
   interp.steps: a run that commits a planned nest and then runs out of
   budget moves none of them *)
let test_planned_counted_per_run () =
  let p =
    parse
      {|
int main() {
  double acc = 0.0;
  for (int i = 0; i < 1000; i++) {
    acc = acc + 1.0;
    acc = acc * 0.5;
    acc = acc - 0.25;
    acc = acc + 0.125;
  }
  int k = 0;
  while (k < 5000) { k = k + 1; }
  print_float(acc);
  return 0;
}|}
  in
  let runs0 = counter "interp.runs" and steps0 = counter "interp.steps" in
  let pl0 = planned () in
  let d0 = Fastloop.planned_on_domain () in
  (match Machine.run ~config:{ Machine.default_config with max_steps = 5000 } ~backend:`Vm p with
   | _ -> Alcotest.fail "expected the step budget to abort the run"
   | exception Machine.Step_limit_exceeded -> ());
  Alcotest.(check int) "the aborted run committed its planned nest" 4000
    (Fastloop.planned_on_domain () - d0);
  Alcotest.(check int) "aborted: interp.runs unchanged" runs0 (counter "interp.runs");
  Alcotest.(check int) "aborted: interp.steps unchanged" steps0 (counter "interp.steps");
  Alcotest.(check int) "aborted: vm.steps.planned unchanged" pl0 (planned ());
  let r = Machine.run ~backend:`Vm p in
  Alcotest.(check int) "completed: one run" (runs0 + 1) (counter "interp.runs");
  Alcotest.(check int) "completed: its steps"
    (steps0 + r.Machine.counters.(Counters.steps))
    (counter "interp.steps");
  Alcotest.(check int) "completed: its planned steps" 4000 (planned () - pl0)

let test_default_backend_switch () =
  let saved = Machine.default_backend () in
  Machine.set_default_backend `Ast;
  check "default backend switched" true (Machine.default_backend () = `Ast);
  Machine.set_default_backend saved;
  check "backend names round-trip" true
    (Machine.backend_of_string (Machine.backend_name `Ast) = Some `Ast
    && Machine.backend_of_string (Machine.backend_name `Vm) = Some `Vm
    && Machine.backend_of_string "nope" = None)

(* ---- fault-injection parity across backends ---- *)

(* the first line of --explain/--why names the active backend; drop it so
   the rest of the trail can be compared byte-for-byte across backends *)
let drop_backend_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let test_fault_report_backend_invariant () =
  (* an injected task fault must prune the same branch with the same
     provenance whatever backend interprets the programs: faults fire on
     task sites, never on interpreter internals *)
  let observe backend =
    let saved = Machine.default_backend () in
    Machine.set_default_backend backend;
    Fun.protect
      ~finally:(fun () -> Machine.set_default_backend saved)
      (fun () ->
        (match Util.Faultsim.parse "task:GPU-2080" with
         | Ok spec -> Util.Faultsim.arm spec
         | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Util.Faultsim.disarm (fun () ->
            (* drop the in-memory task/run caches so every backend's run
               actually interprets instead of replaying a cached result *)
            Cache.clear_memory ();
            match
              Engine.run ~workload:Nbody.app.App.app_test_overrides
                ~mode:Pipeline.Uninformed Nbody.app
            with
            | Error e -> Alcotest.fail e
            | Ok rep ->
              ( List.map
                  (fun (d : Design.t) -> Target.short d.Design.d_target)
                  rep.Engine.rep_designs,
                Report.failures_text rep,
                drop_backend_line (Report.why_text rep) )))
  in
  let da, fa, wa = observe `Ast in
  let dv, fv, wv = observe `Vm in
  check "fault prunes a branch" true (fa <> "");
  check "designs identical (vm)" true (da = dv);
  Alcotest.(check string) "failure lines identical (vm)" fa fv;
  Alcotest.(check string) "why trails identical (vm)" wa wv

(* ---- loop-nest lowering: coverage and budget parity ---- *)

(* a K-Means-shaped kernel: a three-level nest with an if site, a ternary
   site and loop-carried scalars, small enough to sweep step budgets
   across every outer-iteration boundary *)
let nest_src =
  {|
const int N = 8;
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i * 0.25; b[i] = 0.0; }
  double acc = 0.0;
  for (int it = 0; it < 4; it++) {
    for (int i = 0; i < N; i++) {
      double best = 1.0e9;
      for (int k = 0; k < 4; k++) {
        double d = a[i] - (double)k;
        double d2 = d * d;
        if (d2 < best) { best = d2; }
      }
      b[i] += best;
      acc += (i < 4) ? best : 0.5 * best;
    }
  }
  double checksum = acc;
  for (int i = 0; i < N; i++) { checksum += b[i]; }
  print_float(checksum);
  return 0;
}|}

let test_nest_planned_coverage () =
  let p = parse nest_src in
  (* the lowering pass plans the whole three-level nest including both
     control-flow sites *)
  let outcomes = Ir_lower.plan_report p in
  check "three-level nest planned" true
    (List.exists
       (function
         | _, Ir_lower.Planned { levels; sites } -> levels = 3 && sites = 2
         | _ -> false)
       outcomes);
  check "no unplannable loops" true
    (List.for_all
       (function _, Ir_lower.Planned _ -> true | _ -> false)
       outcomes);
  (* and the VM executes nearly all statements on the planned path *)
  let before = planned () in
  let r = Machine.run ~backend:`Vm p in
  let planned = planned () - before in
  let total = r.Machine.counters.(Counters.steps) in
  check "planned steps bounded by total" true (planned <= total && planned > 0);
  check "step coverage >= 0.9" true
    (float_of_int planned >= 0.9 *. float_of_int total)

let test_nest_budget_bail_parity () =
  (* sweep the step budget across the whole run, hitting every
     outer-iteration boundary of the planned nest: the guard's budget
     bail is pre-effect, so walker and VM must abort at exactly the same
     statement with identical partial state — and budgets between the
     guard's worst-case site accounting and the actual cost exercise
     bail-then-complete on the walker with all counters observable *)
  let p = parse nest_src in
  let total =
    (Machine.run ~backend:`Ast p).Machine.counters.(Counters.steps)
  in
  for max_steps = 1 to 100 do
    let config = { Machine.default_config with max_steps } in
    check (Printf.sprintf "nest budget %d" max_steps) true (agree ~config p)
  done;
  List.iter
    (fun max_steps ->
      let config = { Machine.default_config with max_steps } in
      check (Printf.sprintf "nest budget %d" max_steps) true (agree ~config p))
    (List.concat_map
       (fun d -> [ (total / 4) + d; (total / 2) + d; total + d ])
       [ -2; -1; 0; 1 ]);
  (* profiled (with an [Rstmt] region on every loop, so the nest is
     unplannable and runs on the walker): same sweep *)
  List.iter
    (fun max_steps ->
      let config = { (full_config p) with max_steps } in
      check
        (Printf.sprintf "nest budget %d (profiled)" max_steps)
        true (agree ~config p))
    [ 10; 50; (total / 2) + 1; total - 1; total + 50 ]

(* ---- profiled nests on the planned path ----

   Each case runs a kernel function under [flow_config] (footprints on,
   loop profiling on), so the nest's inner levels' loop_stats and the
   region's traffic come from the VM's derivation and marking; the
   pair compares them with the walker's per-statement accounting,
   including the lists' order. *)

let profiled_case name src =
  let p = parse src in
  check name true (agree_planned ~config:(flow_config ()) p)

let test_profiled_zero_trip () =
  (* [m] = 0: level j is entered every i iteration with no iterations, and
     level k below it is never entered; the walker records j with 0
     iterations and has no entry for k *)
  profiled_case "zero-trip inner level"
    {|
const int N = 6;
void knl(double* a, double* b, int m) {
  for (int i = 0; i < N; i++) {
    a[i] = (double)i;
    for (int j = 0; j < m; j++) {
      for (int k = 0; k < 3; k++) { b[k] += a[i]; }
    }
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { b[i] = 0.0; }
  knl(a, b, 0);
  knl(a, b, 2);
  print_float(b[0] + b[1] + b[2] + a[5]);
  return 0;
}|};
  let p = parse {|
void knl(double* a, int m) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < m; j++) {
      for (int k = 0; k < 3; k++) { a[k] += 1.0; }
    }
  }
}
int main() { double a[4]; knl(a, 0); return 0; }|} in
  let r = Machine.run ~config:(flow_config ()) ~backend:`Vm p in
  let sids = List.map (fun (lm : Query.loop_match) -> lm.Query.lm_stmt.Ast.sid) (Query.loops p) in
  (match sids with
   | [ si; sj; sk ] ->
     check "root profiled" true (Machine.find_loop_stats r si <> None);
     check "zero-trip level present with 0 iterations" true
       (match Machine.find_loop_stats r sj with
        | Some ls -> ls.Machine.ls_entries = 4 && ls.Machine.ls_iterations = 0
        | None -> false);
     check "level under a zero-trip level absent" true
       (Machine.find_loop_stats r sk = None)
   | _ -> Alcotest.fail "expected three loops")

let test_profiled_arms () =
  (* a level in an arm taken on some iterations, one always taken and one
     never taken; the per-level entry counts cannot be read off the trip
     counts alone.  Sites inside inner levels have arms of different cost,
     so each level's counters depend on its own taken counts. *)
  profiled_case "levels inside if arms"
    {|
const int N = 8;
void knl(double* a, double* b, double* c) {
  for (int i = 0; i < N; i++) {
    if (a[i] > 2.5) {
      for (int j = 0; j < 3; j++) { b[i] += a[j] * 0.5; }
    } else {
      b[i] -= 1.0;
    }
    if (i >= 0) {
      for (int j = 0; j < 2; j++) { c[j] += (j == 1) ? a[i] : b[i] * 2.0 + 1.0; }
    }
    for (int j = 0; j < 4; j++) {
      if (a[j] > 1.0) { b[i] += a[j] * 0.5; } else { b[i] -= 1.0; }
    }
    if (i > 100) {
      for (int j = 0; j < 4; j++) { c[j] = 0.0; }
    }
  }
}
int main() {
  double a[N];
  double b[N];
  double c[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i * 0.75; b[i] = 0.0; c[i] = 1.0; }
  knl(a, b, c);
  double s = 0.0;
  for (int i = 0; i < N; i++) { s += b[i] + c[i]; }
  print_float(s);
  return 0;
}|}

let motion_src =
  {|
const int N = 6;
void knl(double* a, double* b, double* c, double* d, double* e, int m) {
  for (int i = 0; i < N; i++) {
    a[i] = (double)i;
    for (int j = 0; j < m; j++) {
      a[i] += b[0];
      c[0] += 1.0;
    }
    if (i > 100) {
      a[i] -= d[1];
      e[2] += 2.0;
    }
  }
}
int main() {
  double a[N];
  double b[N];
  double c[N];
  double d[N];
  double e[N];
  for (int i = 0; i < N; i++) { b[i] = 1.0; c[i] = 0.0; d[i] = 2.0; e[i] = 0.0; }
  knl(a, b, c, d, e, 0);
  print_float(a[3] + c[0] + e[2]);
  return 0;
}|}

let test_profiled_code_motion () =
  (* unprofiled, the lowering hoists the invariant loads of [b] and [d]
     and promotes the cells of [c] and [e]; their only accesses sit under
     a zero-trip level or in a never-taken arm, so the walker's region
     traffic has no entry for any of them *)
  let p = parse motion_src in
  let moved =
    Hashtbl.fold
      (fun _ (fl : Ir.fast_loop) acc ->
        acc + Array.length fl.Ir.fl_hoisted + Array.length fl.Ir.fl_promoted)
      (Ir_lower.plan p) 0
  in
  check "lowering moves accesses when unprofiled" true (moved >= 4);
  check "no code motion when planned for regions" true
    (Hashtbl.fold
       (fun _ (fl : Ir.fast_loop) ok ->
         ok && fl.Ir.fl_hoisted = [||] && fl.Ir.fl_promoted = [||])
       (Ir_lower.plan ~motion:false p) true);
  profiled_case "hoisted and promoted accesses never performed" motion_src;
  (* a plan with moved accesses handed to a region run anyway: the guard
     refuses it, so the walker keeps the footprints exact *)
  let rt =
    Walker.run ~plan:(Ir_lower.plan p)
      { Interp_rt.default_config with regions = [ Interp_rt.Rfunc "knl" ] }
      p
  in
  Alcotest.(check (list string))
    "guard refuses code motion under a region" [ "a" ]
    (match List.assoc_opt (Interp_rt.Rfunc "knl") rt.Interp_rt.region_stats with
     | Some rs ->
       List.map
         (fun (t : Interp_rt.array_traffic) -> t.Interp_rt.at_name)
         rs.Interp_rt.rs_traffic
     | None -> []);
  let r = Machine.run ~config:(flow_config ()) ~backend:`Vm p in
  match Machine.find_region_stats r (Machine.Rfunc "knl") with
  | None -> Alcotest.fail "kernel region missing"
  | Some rs ->
    Alcotest.(check (list string))
      "only the written array is traffic" [ "a" ]
      (List.map (fun (t : Machine.array_traffic) -> t.Machine.at_name) rs.Machine.rs_traffic)

let test_profiled_reentered_region () =
  (* the region function runs several times on overlapping and disjoint
     arrays: footprints reset per invocation, traffic accumulates, and
     re-entries reuse the nest's cached array resolution *)
  profiled_case "region function entered several times"
    {|
const int N = 8;
void knl(double* x, double* y, int lo, int n) {
  for (int i = lo; i < n; i++) {
    double acc = 0.0;
    for (int k = 0; k < 2; k++) { acc += x[i] * (double)k; }
    y[i] = y[i] + acc;
    x[i] = acc;
  }
}
int main() {
  double x[N];
  double y[N];
  double z[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 1.0; z[i] = 0.5; }
  knl(x, y, 0, N);
  knl(x, y, 2, 6);
  knl(z, y, 0, 4);
  knl(x, x, 1, 3);
  print_float(x[1] + y[2] + z[3]);
  return 0;
}|}

let test_profiled_budget_sweep () =
  (* the budget guard is unchanged under profiling: every budget aborts
     at the walker's statement or completes with identical stats *)
  let src_kernel =
    {|
const int N = 8;
void knl(double* a, double* b) {
  for (int it = 0; it < 3; it++) {
    for (int i = 0; i < N; i++) {
      double best = 1.0e9;
      for (int k = 0; k < 4; k++) {
        double d = a[i] - (double)k;
        if (d * d < best) { best = d * d; }
      }
      b[i] += (i < 4) ? best : 0.5 * best;
    }
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i * 0.25; b[i] = 0.0; }
  knl(a, b);
  print_float(b[0] + b[7]);
  return 0;
}|}
  in
  let pk = parse src_kernel in
  let total = (Machine.run ~backend:`Ast pk).Machine.counters.(Counters.steps) in
  List.iter
    (fun max_steps ->
      let config = { (flow_config ()) with max_steps } in
      check (Printf.sprintf "profiled budget %d" max_steps) true (agree ~config pk))
    (List.init 40 (fun k -> k + 1)
    @ List.concat_map
        (fun d -> [ (total / 3) + d; (total / 2) + d; total + d ])
        [ -2; -1; 0; 1 ]);
  check "profiled kernel completes planned" true
    (agree_planned ~config:(flow_config ()) pk)

(* ---- imin/imax loop bounds ---- *)

let test_clamped_bounds () =
  (* tiled loop with an imin clamp: N = 10 makes the last tile short *)
  let tiled n =
    Printf.sprintf
      {|
const int N = %d;
void knl(double* a, double* s) {
  for (int jj = 0; jj < N; jj += 4) {
    for (int j = jj; j < imin(jj + 4, N); j++) { s[0] += a[j]; }
  }
  for (int i = 0; i < 2; i++) {
    for (int j = imax(0, N - 3); j < imin(N, 12); j++) { s[1] += a[j] * (double)i; }
  }
}
int main() {
  double a[16];
  double s[2];
  for (int i = 0; i < 16; i++) { a[i] = (double)i + 0.5; }
  s[0] = 0.0;
  s[1] = 0.0;
  knl(a, s);
  print_float(s[0]);
  print_float(s[1]);
  return 0;
}|}
      n
  in
  let p = parse (tiled 10) in
  (* the tile loop itself stays unplannable (its inner level starts at the
     enclosing index jj); the clamped loops are planned: the tile body as
     its own root, and the imax/imin nest as a whole (plus main's loop) *)
  Alcotest.(check (list string))
    "clamped bounds planned"
    [ "non-invariant bound"; "planned"; "planned"; "planned"; "planned" ]
    (List.map
       (function
         | _, Ir_lower.Planned _ -> "planned" | _, Ir_lower.Unplannable r -> r)
       (Ir_lower.plan_report p));
  check "short last tile" true (agree_planned p);
  check "short last tile (profiled)" true (agree_planned ~config:(flow_config ()) p);
  (* N = 14: imin(N, 12) < imax(0, N - 3), so the clamped level is
     zero-trip on every entry *)
  let p = parse (tiled 14) in
  check "clamp makes a level zero-trip" true (agree_planned p);
  check "clamp makes a level zero-trip (profiled)" true
    (agree_planned ~config:(flow_config ()) p)

(* ---- single-precision superinstructions ----

   Every single-precision fused op and every [FDem] fold, fed NaN, ±inf,
   subnormals, ±FLT_MAX and products above FLT_MAX: the fused forms must
   demote after every step the unfused sequence demotes after (an [FMulAddS]
   whose product overflows to inf before the add is not the double sum
   demoted once). *)

let sp_fused_src =
  let init arr vals =
    String.concat "\n"
      (List.mapi (fun i v -> Printf.sprintf "  %s[%d] = %s;" arr i v) vals)
  in
  Printf.sprintf
    {|
const int N = 10;
const int K = 13;
void knl(float* x, float* y, float* w, double* z, float* o) {
  for (int i = 0; i < N; i++) {
    float p = x[i] * 1.0f;
    float q = y[i] + 0.0f;
    float r = w[i] - 0.5f;
    float a = x[i] - y[i];
    float e = p * q + r;
    float g = r + p * q;
    float h = r - p * q;
    float u = (double)p * z[i];
    float v = (double)q / z[i];
    float s = (double)r + z[i];
    float t = (double)p - z[i];
    float m = sqrt((double)q);
    float n = pow((double)r, 2.0);
    o[i * K] = p; o[i * K + 1] = q; o[i * K + 2] = r; o[i * K + 3] = a;
    o[i * K + 4] = e; o[i * K + 5] = g; o[i * K + 6] = h; o[i * K + 7] = u;
    o[i * K + 8] = v; o[i * K + 9] = s; o[i * K + 10] = t; o[i * K + 11] = m;
    o[i * K + 12] = n;
  }
}
int main() {
  float x[N];
  float y[N];
  float w[N];
  double z[N];
  float o[130];
  double qnan = 0.0 / 0.0;
  double pinf = 1.0 / 0.0;
%s
%s
%s
%s
  knl(x, y, w, z, o);
  print_float(o[4] + o[17]);
  return 0;
}|}
    (init "x"
       [ "qnan"; "pinf"; "-pinf"; "1.0e-40"; "3.4028235e38"; "-3.4028235e38"; "3.0e38";
         "-0.0"; "1.5e-45"; "1.0e20" ])
    (init "y"
       [ "2.0"; "-pinf"; "qnan"; "1.0e-40"; "2.0"; "0.5"; "2.0"; "0.0"; "1.0e-5"; "1.0e20" ])
    (init "w"
       [ "-3.0e38"; "pinf"; "1.0"; "-1.0e-40"; "-3.4028235e38"; "qnan"; "-3.0e38"; "-0.0";
         "1.0e-45"; "-1.0e30" ])
    (init "z"
       [ "1.0e39"; "-1.0e39"; "1.0e-50"; "qnan"; "pinf"; "3.5e38"; "-3.5e38"; "0.0";
         "1.0e-45"; "2.0" ])

(* every op of a nest, arms and inner levels included *)
let nest_ops (fl : Ir.fast_loop) =
  let acc = ref [] in
  let rec blk (b : Ir.block) =
    Array.iter
      (function
        | Ir.Bops ops -> Array.iter (fun op -> acc := op :: !acc) ops
        | Ir.Bsite s ->
          blk fl.Ir.fl_sites.(s).Ir.s_then;
          blk fl.Ir.fl_sites.(s).Ir.s_else
        | Ir.Bloop l -> blk fl.Ir.fl_levels.(l).Ir.l_body)
      b.Ir.b_items
  in
  blk fl.Ir.fl_levels.(0).Ir.l_body;
  !acc

let test_sp_fused_special_values () =
  let p = parse sp_fused_src in
  List.iter
    (fun motion ->
      let ops =
        Hashtbl.fold (fun _ fl acc -> nest_ops fl @ acc) (Ir_lower.plan ~motion p) []
      in
      let has name pred = check (name ^ " emitted") true (List.exists pred ops) in
      has "FLdSubS" (function Ir.FLdSubS _ -> true | _ -> false);
      has "FLdSub2S" (function Ir.FLdSub2S _ -> true | _ -> false);
      has "FLdMulS" (function Ir.FLdMulS _ -> true | _ -> false);
      has "FLdAddS" (function Ir.FLdAddS _ -> true | _ -> false);
      has "FMulAddS" (function Ir.FMulAddS _ -> true | _ -> false);
      has "FAddMulS" (function Ir.FAddMulS _ -> true | _ -> false);
      has "FSubMulS" (function Ir.FSubMulS _ -> true | _ -> false);
      has "FMulS from FMul + FDem" (function Ir.FMulS _ -> true | _ -> false);
      has "FDivS from FDiv + FDem" (function Ir.FDivS _ -> true | _ -> false);
      has "FAddS from FAdd + FDem" (function Ir.FAddS _ -> true | _ -> false);
      has "FSubS from FSub + FDem" (function Ir.FSubS _ -> true | _ -> false);
      has "FMath1S from FMath1 + FDem" (function Ir.FMath1S _ -> true | _ -> false);
      has "FMath2S from FMath2 + FDem" (function Ir.FMath2S _ -> true | _ -> false);
      check "every FDem elided or folded" false
        (List.exists
           (function
             | Ir.FDem _ | Ir.FMul _ | Ir.FDiv _ | Ir.FAdd _ | Ir.FSub _ | Ir.FMath1 _
             | Ir.FMath2 _ ->
               true
             | _ -> false)
           ops))
    [ true; false ];
  check "special values (unprofiled)" true (agree_planned p);
  check "special values (flow-profiled)" true (agree_planned ~config:(flow_config ()) p)

(* ---- cost walk reused across re-entries ----

   The guard's cost walk is cached per nest, keyed on the trip vector.
   [knl] is called from a [while] loop (never planned), so its nest is
   entered once per call: with the same trip counts every time, and with
   both bounds read from arguments that change between calls (repeats,
   a zero-trip inner level, a return to earlier trips).  Profiled, so the
   per-level loop_stats derived from the cached walk are compared too. *)

let reentry_src calls =
  Printf.sprintf
    {|
void knl(double* a, double* b, int n, int m) {
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      if (a[j] > 1.0) { b[i] += a[j] * 0.5; } else { b[i] -= 0.25; }
    }
    b[i] = (i < 2) ? b[i] * 0.5 : b[i] + 1.0;
  }
}
int main() {
  double a[8];
  double b[8];
  int ns[7];
  int ms[7];
  int k = 0;
  while (k < 8) { a[k] = (double)k * 0.4; b[k] = 1.0; k = k + 1; }
%s
  k = 0;
  while (k < 7) { knl(a, b, ns[k], ms[k]); k = k + 1; }
  print_float(b[0] + b[3] + b[7]);
  return 0;
}|}
    (String.concat "\n"
       (List.mapi
          (fun i (n, m) -> Printf.sprintf "  ns[%d] = %d; ms[%d] = %d;" i n i m)
          calls))

let unchanged_trips = List.init 7 (fun _ -> (6, 3))

let test_walk_reuse () =
  let same = parse (reentry_src unchanged_trips) in
  check "unchanged trips (unprofiled)" true (agree_planned same);
  check "unchanged trips (profiled)" true (agree_planned ~config:(flow_config ()) same);
  let changing =
    parse (reentry_src [ (6, 3); (6, 3); (6, 0); (4, 0); (8, 5); (8, 5); (6, 3) ])
  in
  check "changing trips (unprofiled)" true (agree_planned changing);
  check "changing trips (profiled)" true (agree_planned ~config:(flow_config ()) changing)

let test_walk_reuse_budget () =
  (* every budget, with the nest entered seven times on the same trips:
     the budget check runs on every entry, cached walk or not, and a
     bailing entry leaves the walker to raise at its own statement *)
  let p = parse (reentry_src unchanged_trips) in
  let total = (Machine.run ~backend:`Ast p).Machine.counters.(Counters.steps) in
  let d0 = Fastloop.planned_on_domain () in
  ignore (Machine.run ~backend:`Vm p);
  let per_entry = (Fastloop.planned_on_domain () - d0) / 7 in
  check "the nest runs planned" true (per_entry > 0);
  let cached_bail = ref false in
  for max_steps = 1 to total + 2 do
    let config = { Machine.default_config with max_steps } in
    check (Printf.sprintf "re-entry budget %d" max_steps) true (agree ~config p);
    Fastloop.reset_bail_sites ();
    let d0 = Fastloop.planned_on_domain () in
    match Machine.run ~config ~backend:`Vm p with
    | _ -> ()
    | exception Machine.Step_limit_exceeded ->
      (* two entries committed, so the third reused their walk *)
      if Fastloop.planned_on_domain () - d0 >= 2 * per_entry
         && List.exists (fun (_, r) -> r = "budget") (Fastloop.bail_sites ())
      then cached_bail := true
  done;
  check "a budget bail on an entry that reuses the cached walk" true !cached_bail

(* ---- planned calls: leaf user functions inlined into nests ----

   A statement call of a leaf user function inside a nest is lowered into
   the nest, as a HIP design's launch loop calls its body once per thread.
   Each case checks that the plan inlines the call, then runs the pair
   unprofiled and under the flow-shaped config ([Rfunc] on the caller
   [knl], loop profiling, alias tracing), with the VM running most
   statements planned — the nest with the call, not just main's set-up. *)

(* the callees the plan of [p] inlines, over all its nests *)
let inlined ?region_funcs p =
  Hashtbl.fold
    (fun _ (fl : Ir.fast_loop) acc ->
      Array.fold_left (fun acc (k : Ir.call) -> k.Ir.k_func :: acc) acc fl.Ir.fl_calls)
    (Ir_lower.plan ?region_funcs p) []

let agree_mostly_planned ?(config = Machine.default_config) p =
  let before = planned () in
  let ok = agree ~config p in
  let planned = planned () - before in
  let total = (Machine.run ~config ~backend:`Ast p).Machine.counters.(Counters.steps) in
  ok && 2 * planned > total

let call_case name p =
  check (name ^ ": call inlined") true (inlined p <> []);
  check (name ^ " (unprofiled)") true (agree_mostly_planned p);
  check (name ^ " (flow-profiled)") true
    (agree_mostly_planned ~config:(flow_config ()) p)

(* by-value parameters of every kind, each argument converted as
   [Value.coerce] does (int to double, double to float with bits float
   cannot hold, int to bool), pointer parameters named unlike the caller's
   arrays, and a final [return;] *)
let coerce_src =
  {|
const int N = 12;
void leaf(int t, double s, float h, double m, bool b, float* dst, double* src) {
  dst[t] = h * 3.0f + (float)m;
  if (b) { src[t] = s * 0.5 + m; } else { src[t] = s - (double)h; }
  return;
}
void knl(float* out, double* in) {
  for (int i = 0; i < N; i++) {
    leaf(i, i, in[i] * 1.0000001, i, i % 3, out, in);
  }
}
int main() {
  float out[N];
  double in[N];
  for (int i = 0; i < N; i++) { in[i] = rand01() * 3.0 + 0.1; out[i] = 0.0f; }
  knl(out, in);
  knl(out, in);
  double s = 0.0;
  for (int i = 0; i < N; i++) { s += (double)out[i] + in[i]; }
  print_float(s);
  return 0;
}|}

let test_call_coercions () = call_case "coerced arguments" (parse coerce_src)

(* the callee's free names are globals even where the caller binds the
   same names: [scale], [K] and the array [W] read the globals, [total] is
   a global the callee writes back *)
let test_call_globals () =
  call_case "callee globals under caller shadows"
    (parse
       {|
const int N = 8;
double scale = 2.0;
int K = 3;
double total = 0.0;
double W[4];
void leaf(int t, double* x) {
  for (int k = 0; k < K; k++) { x[t] += scale * W[k]; }
  total += x[t];
}
void knl(double* a) {
  double scale = 100.0;
  int K = 7;
  double W[4];
  for (int k = 0; k < 4; k++) { W[k] = 50.0; }
  for (int i = 0; i < N; i++) {
    leaf(i, a);
    a[i] += scale + (double)K + W[i % 4];
  }
}
int main() {
  double a[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; }
  for (int k = 0; k < 4; k++) { W[k] = (double)k + 0.5; }
  knl(a);
  knl(a);
  print_float(total);
  double s = 0.0;
  for (int i = 0; i < N; i++) { s += a[i]; }
  print_float(s);
  return 0;
}|})

(* a guarded call: never taken with [lim] = N (the callee never runs, so
   alias tracing never sees it), taken on some iterations with [lim] = 3 *)
let guarded_src lim =
  Printf.sprintf
    {|
const int N = 8;
void leaf(int t, double* x, double* y) { x[t] = y[t] * 2.0; }
void knl(double* a, double* b, int lim) {
  for (int i = 0; i < N; i++) {
    if (i > lim) { leaf(i, a, a); }
    b[i] += a[i] + 1.0;
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; b[i] = 0.0; }
  knl(a, b, %s);
  knl(a, b, %s);
  print_float(a[7] + b[7]);
  return 0;
}|}
    lim lim

let test_call_guarded () =
  let never = parse (guarded_src "N") and some = parse (guarded_src "3") in
  call_case "guard never taken" never;
  call_case "guard taken sometimes" some;
  let leaf_alias p =
    List.assoc_opt "leaf"
      (Machine.run ~config:(flow_config ()) ~backend:`Vm p).Machine.aliased_funcs
  in
  check "never called: no alias verdict" true (leaf_alias never = None);
  check "called with a, a: aliased" true (leaf_alias some = Some true)

(* callee levels that run zero times: a level of the callee's top level
   entered with no iterations, and one under a non-empty level *)
let test_call_zero_trip () =
  call_case "zero-trip callee levels"
    (parse
       {|
const int N = 6;
int Z = 0;
void leaf(int t, double* x, double* y) {
  for (int k = 0; k < Z; k++) { x[t] += y[k]; }
  for (int k = 0; k < 3; k++) {
    for (int j = 0; j < Z; j++) { y[j] += 1.0; }
    x[t] += (double)k;
  }
}
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) { leaf(i, a, b); }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = 0.0; b[i] = (double)i; }
  knl(a, b);
  Z = 2;
  knl(a, b);
  print_float(a[0] + a[5] + b[0] + b[1]);
  return 0;
}|})

(* two callees, each called with distinct and with aliased arrays from
   call sites that run on every iteration: verdicts and their list order
   as the walker's, which notes every call *)
let test_call_aliases () =
  let p =
    parse
      {|
const int N = 8;
void first(int t, double* x, double* y) { x[t] = y[t] + 1.0; }
void second(int t, double* x, double* y) { x[t] += y[t] * 0.5; }
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) {
    second(i, a, b);
    first(i, b, b);
    second(i, b, a);
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; b[i] = 1.0; }
  knl(a, b);
  print_float(a[3] + b[4]);
  return 0;
}|}
  in
  call_case "alias tracing across call sites" p;
  let aliases backend =
    (Machine.run ~config:(flow_config ()) ~backend p).Machine.aliased_funcs
  in
  let vm = aliases `Vm in
  check "first aliased, second not" true
    (List.assoc_opt "first" vm = Some true && List.assoc_opt "second" vm = Some false);
  check "verdicts in the walker's list order" true (vm = aliases `Ast)

(* an [Rfunc] region on the callee opens and closes on every call: the
   nest is not inlined and the pair runs it on the walker *)
let test_call_callee_region () =
  let p = parse coerce_src in
  check "callee region: not inlined" true (inlined ~region_funcs:[ "leaf" ] p = []);
  let config =
    { (flow_config ()) with regions = [ Machine.Rfunc "knl"; Machine.Rfunc "leaf" ] }
  in
  check "callee region (pair)" true (agree ~config p)

(* an out-of-bounds checked index and an integer division by zero inside
   the callee: raised by the committed nest (planned, and the guard did
   not bail) at the walker's location with its message *)
let test_call_errors () =
  List.iter
    (fun (name, leaf) ->
      let p =
        parse
          (Printf.sprintf
             {|
const int N = 8;
%s
void knl(int* a) {
  for (int i = 0; i < N; i++) { leaf(i, a); }
}
int main() {
  int a[N];
  for (int i = 0; i < N; i++) { a[i] = i; }
  knl(a);
  print_int(a[0]);
  return 0;
}|}
             leaf)
      in
      check (name ^ ": call inlined") true (inlined p <> []);
      List.iter
        (fun config ->
          check (name ^ ": walker fails") true
            (match run_backend `Ast config p with Failed _ -> true | _ -> false);
          check (name ^ ": pair") true (agree ~config p);
          Fastloop.reset_bail_sites ();
          ignore (run_backend `Vm config p);
          check (name ^ ": raised on the planned path") true (Fastloop.bail_sites () = []))
        [ Machine.default_config; flow_config () ])
    [
      ("out of bounds", "void leaf(int t, int* x) { x[t * 2] = t; }");
      ("division by zero", "void leaf(int t, int* q) { q[t] = 12 / (t - 5); }");
    ]

(* every step budget through a nest with a call, both configs *)
let test_call_budget_sweep () =
  let p = parse coerce_src in
  List.iter
    (fun (label, base) ->
      let total =
        (Machine.run ~config:base ~backend:`Ast p).Machine.counters.(Counters.steps)
      in
      for max_steps = 1 to total + 2 do
        let config = { base with Machine.max_steps } in
        check (Printf.sprintf "call budget %d (%s)" max_steps label) true (agree ~config p)
      done)
    [ ("unprofiled", Machine.default_config); ("flow-profiled", flow_config ()) ]

(* each reason a nest with a call stays on the walker; the pair still
   agrees on every one *)
let test_call_rejections () =
  let outcome ?region_funcs p =
    let fn = Option.get (Ast.find_func p "knl") in
    let lm = List.hd (Query.loops_in_func fn) in
    List.assoc lm.Query.lm_stmt.Ast.sloc (Ir_lower.plan_report ?region_funcs p)
  in
  let case ?region_funcs reason ~leaf ~body =
    let p =
      parse
        (Printf.sprintf
           {|
const int N = 6;
double total = 0.0;
%s
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) { %s }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; b[i] = 1.0; }
  knl(a, b);
  print_float(a[2] + b[3] + total);
  return 0;
}|}
           leaf body)
    in
    check reason true (outcome ?region_funcs p = Ir_lower.Unplannable reason);
    let regions =
      Machine.Rfunc "knl"
      :: List.map (fun f -> Machine.Rfunc f) (Option.value region_funcs ~default:[])
    in
    check (reason ^ " (pair)") true (agree ~config:{ (flow_config ()) with regions } p)
  in
  let leaf = "void leaf(int t, double* x) { x[t] += 1.0; }" in
  case "call inside an inlined callee"
    ~leaf:(leaf ^ "\nvoid outer(int t, double* x) { leaf(t, x); }")
    ~body:"outer(i, a);";
  case "call inside an inlined callee"
    ~leaf:"void leaf(int t, double* x) { if (t > 100) { leaf(t - 1, x); } x[t] = 1.0; }"
    ~body:"leaf(i, a);";
  case ~region_funcs:[ "leaf" ] "callee is an observation region" ~leaf
    ~body:"leaf(i, a);";
  case "non-void callee"
    ~leaf:"double leaf(int t, double* x) { x[t] = 1.0; return 0.0; }"
    ~body:"leaf(i, a);";
  case "user function call in an expression"
    ~leaf:"double leaf(int t, double* x) { return x[t] * 2.0; }"
    ~body:"a[i] = leaf(i, b);";
  case "return before the callee's end"
    ~leaf:"void leaf(int t, double* x) { if (t > 3) { return; } x[t] = 1.0; }"
    ~body:"leaf(i, a);";
  case "ill-typed program" ~leaf ~body:"leaf(i, a, b);";
  case "non-invariant array size"
    ~leaf:"void leaf(int t, double* x) { double tmp[t + 1]; tmp[0] = 1.0; x[t] = tmp[0]; }"
    ~body:"leaf(i, a);";
  case "callee order"
    ~leaf:(leaf ^ "\nvoid other(int t, double* x) { x[t] *= 0.5; }")
    ~body:"if (i > 2) { leaf(i, a); } other(i, b);";
  case "global written under two names"
    ~leaf:"void leaf(int t, double* x) { total += x[t]; }"
    ~body:"leaf(i, a); total += b[i];"

(* ---- random-program differential property ---- *)

let prop_backends_agree =
  QCheck.Test.make
    ~name:"vm backend agrees with walker on random kernels"
    ~count:150 Test_props.arbitrary_program (fun src ->
      let p = parse src in
      agree ~config:(full_config p) p)

(* unprofiled, the VM actually executes random nests/ifs/ternaries on the
   planned fast path instead of bailing to the walker *)
let prop_backends_agree_plain =
  QCheck.Test.make
    ~name:"backends agree on random kernels (unprofiled, planned nests)"
    ~count:150 Test_props.arbitrary_program (fun src -> agree (parse src))

(* the same random kernels outlined into a function that main calls twice,
   under the flow-shaped config: the VM must run them planned *)
let prop_backends_agree_flow =
  QCheck.Test.make
    ~name:"backends agree on random kernels (flow-profiled, planned nests)"
    ~count:150 Test_props.arbitrary_kernel (fun src ->
      agree_planned ~config:(flow_config ()) (parse src))

(* the same, over single-precision kernels: demotion, [f] literals,
   casts and the single-precision superinstructions on the planned path *)
let prop_backends_agree_sp_plain =
  QCheck.Test.make
    ~name:"backends agree on random single-precision kernels (unprofiled, planned nests)"
    ~count:150 Test_props.arbitrary_sp_program (fun src -> agree_planned (parse src))

let prop_backends_agree_sp_flow =
  QCheck.Test.make
    ~name:"backends agree on random single-precision kernels (flow-profiled, planned nests)"
    ~count:150 Test_props.arbitrary_sp_kernel (fun src ->
      agree_planned ~config:(flow_config ()) (parse src))

(* random kernels whose loop calls a leaf helper once per iteration,
   maybe behind a guard, with mixed by-value and pointer arguments: the
   call is inlined and the pair agrees, unprofiled and flow-profiled *)
let prop_backends_agree_leaf_plain =
  QCheck.Test.make ~name:"backends agree on random kernels calling a leaf (unprofiled)"
    ~count:150 Test_props.arbitrary_leaf_kernel (fun src ->
      let p = parse src in
      inlined p <> [] && agree_planned p)

let prop_backends_agree_leaf_flow =
  QCheck.Test.make ~name:"backends agree on random kernels calling a leaf (flow-profiled)"
    ~count:150 Test_props.arbitrary_leaf_kernel (fun src ->
      let p = parse src in
      inlined p <> [] && agree_planned ~config:(flow_config ()) p)

(* ---- bulk footprint marking ----

   Under a region, an array a nest only loads or only stores, through
   cursor accesses outside any site arm, has its footprint marked once per
   entry at commit.  Each case runs the pair with the flow-shaped
   config, then again with an [Rstmt] region on every scope in [knl]'s
   body as well, so the nests inside them run under two frames. *)

let knl_scopes p =
  match Ast.find_func p "knl" with
  | Some fn ->
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with Ast.Scope _ -> Some (Machine.Rstmt s.Ast.sid) | _ -> None)
      fn.Ast.fbody
  | None -> []

let bulk_case name src =
  let p = parse src in
  let flow = flow_config () in
  check (name ^ " (one frame)") true (agree_planned ~config:flow p);
  let scopes = knl_scopes p in
  check (name ^ ": a scope in knl") true (scopes <> []);
  let config = { flow with Machine.regions = flow.Machine.regions @ scopes } in
  check (name ^ " (two frames)") true (agree_planned ~config p)

let test_bulk_overlapping () =
  bulk_case "overlapping cursors"
    {|
const int N = 10;
void knl(double* x, double* y, double* z) {
  {
    for (int i = 0; i < 3; i++) {
      for (int j = 0; j < N - 2; j++) {
        y[j + i] = x[j] + x[j + 1];
        z[j + 1] = x[i + j] * 0.5;
        z[j] = 1.0;
      }
    }
  }
}
int main() {
  double x[N];
  double y[N];
  double z[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 0.0; z[i] = 0.0; }
  knl(x, y, z);
  print_float(y[3] + z[4]);
  return 0;
}|}

let test_bulk_zero_trip () =
  (* with [m] = 0 the accesses under level j never run, though their
     cursors do not move with j, and [w] is never touched at all *)
  bulk_case "zero-trip entries"
    {|
const int N = 6;
const int M = 8;
void knl(double* x, double* y, double* w, int m) {
  {
    for (int i = 0; i < N; i++) {
      y[i] = x[i];
      for (int j = 0; j < m; j++) {
        y[i + 1] = x[i + 2] + (double)j;
        for (int k = 0; k < 2; k++) { w[k + j] = x[j]; }
      }
    }
  }
}
int main() {
  double x[M];
  double y[M];
  double w[M];
  for (int i = 0; i < M; i++) { x[i] = (double)i; y[i] = 0.0; w[i] = 0.0; }
  knl(x, y, w, 0);
  knl(x, y, w, 3);
  knl(x, y, w, 0);
  print_float(y[2] + w[3]);
  return 0;
}|}

let test_bulk_read_after_write () =
  (* the region writes [x] before the nests that only read it: those
     elements are not read first *)
  bulk_case "read-only after earlier writes"
    {|
const int N = 8;
void knl(double* x, double* y) {
  x[2] = 7.0;
  {
    for (int i = 0; i < N; i++) { y[i] = x[i] * 2.0; }
  }
  for (int i = 0; i < 3; i++) { x[i + 4] = 1.0; }
  {
    for (int i = 0; i < N; i++) { y[i] = y[i] + x[i]; }
  }
}
int main() {
  double x[N];
  double y[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 0.0; }
  knl(x, y);
  print_float(y[2] + y[5]);
  return 0;
}|}

let alias_bailed p =
  match Query.loops p with
  | [] -> false
  | loops ->
    List.exists
      (fun (lm : Query.loop_match) ->
        List.mem (lm.Query.lm_stmt.Ast.sloc, "alias") (Fastloop.bail_sites ()))
      loops

let test_bulk_two_names () =
  (* one base under two read-only names stays bulk; a name that only
     reads beside one that only writes it makes the guard bail, and the
     walker marks per access *)
  let both_read =
    {|
const int N = 8;
void knl(double* a, double* b, double* y) {
  {
    for (int i = 0; i < N - 1; i++) { y[i] = a[i] + b[i + 1]; }
  }
}
int main() {
  double x[N];
  double y[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 0.0; }
  knl(x, x, y);
  knl(y, y, x);
  print_float(y[3] + x[2]);
  return 0;
}|}
  in
  bulk_case "two read-only names for one base" both_read;
  Fastloop.reset_bail_sites ();
  ignore (Machine.run ~config:(flow_config ()) ~backend:`Vm (parse both_read));
  check "two read-only names: no alias bail" false (alias_bailed (parse both_read));
  let read_write =
    {|
const int N = 8;
void knl(double* a, double* b) {
  {
    for (int i = 0; i < N - 1; i++) { b[i] = a[i + 1] * 0.5; }
  }
}
int main() {
  double x[N];
  double y[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 1.0; }
  knl(x, y);
  knl(x, x);
  knl(y, x);
  print_float(x[3] + y[4]);
  return 0;
}|}
  in
  bulk_case "a reading and a writing name for one base" read_write;
  Fastloop.reset_bail_sites ();
  ignore (Machine.run ~config:(flow_config ()) ~backend:`Vm (parse read_write));
  check "reading and writing names: alias bail" true (alias_bailed (parse read_write))

let test_bulk_guarded () =
  (* [r] is read only in an arm and [w] both read and written: both mark
     per access beside the bulk [x] and [z] *)
  bulk_case "guarded accesses beside bulk ones"
    {|
const int N = 8;
void knl(double* x, double* r, double* w, double* z) {
  double s = 0.0;
  {
    for (int i = 0; i < N; i++) {
      double v = x[i];
      if (v > 2.5) { s += r[i]; w[i + 1] = v; }
      z[i] = (v > 4.5) ? s : v + w[i];
    }
  }
  z[0] = s;
}
int main() {
  double x[N];
  double r[N];
  double w[N + 1];
  double z[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i * 0.75; r[i] = 1.0; w[i] = 0.5; z[i] = 0.0; }
  knl(x, r, w, z);
  print_float(z[0] + z[7] + w[5]);
  return 0;
}|}

let test_bulk_scratch () =
  (* [t] is allocated after the function's frame began but before the
     scope's: scratch in one frame only.  [u] is scratch in both *)
  bulk_case "scratch in one frame only"
    {|
const int N = 8;
void knl(double* x, double* y) {
  double t[N];
  for (int i = 0; i < N; i++) { t[i] = x[i] + 1.0; }
  {
    double u[N];
    for (int i = 0; i < N; i++) { u[i] = t[i] * 2.0; }
    for (int i = 0; i < N; i++) { y[i] = u[i] + t[i]; }
  }
}
int main() {
  double x[N];
  double y[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 0.0; }
  knl(x, y);
  print_float(y[3]);
  return 0;
}|}

let test_bulk_reentered () =
  (* the region function runs on other arrays and ranges each time, roles
     swapped on the last call *)
  bulk_case "region function entered several times"
    {|
const int N = 8;
void knl(double* x, double* y, int lo, int n) {
  {
    for (int i = lo; i < n; i++) {
      for (int k = 0; k < 2; k++) { y[i + k] = x[i] * (double)k; }
    }
  }
}
int main() {
  double x[N];
  double y[N];
  double z[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; y[i] = 1.0; z[i] = 0.5; }
  knl(x, y, 0, 6);
  knl(x, y, 2, 5);
  knl(z, y, 0, 4);
  knl(y, z, 1, 3);
  print_float(y[2] + z[3]);
  return 0;
}|}

let test_bulk_first_touch_order () =
  (* bulk and per-access arrays first touched alternately: frames gain
     footprints in the walker's order only if a bulk array's bitsets are
     resolved at its first access; twelve bases over eight buckets make
     the order show in [rs_traffic] ([o_order]) *)
  bulk_case "first-touch order"
    {|
const int N = 4;
void knl(double* p0, double* b0, double* p1, double* b1, double* p2, double* b2,
         double* p3, double* b3, double* p4, double* b4, double* p5, double* b5) {
  {
    for (int i = 0; i < N; i++) {
      p0[i] += 1.0;
      b0[i] = 2.0;
      p1[i] += b1[i];
      b2[i] = 2.0;
      p2[i] += 1.0;
      p3[i] += b3[i];
      b4[i] = 2.0;
      p4[i] += 1.0;
      p5[i] += b5[i];
    }
  }
}
int main() {
  double a0[N]; double a1[N]; double a2[N]; double a3[N]; double a4[N]; double a5[N];
  double c0[N]; double c1[N]; double c2[N]; double c3[N]; double c4[N]; double c5[N];
  for (int i = 0; i < N; i++) {
    a0[i] = 0.0; a1[i] = 0.0; a2[i] = 0.0; a3[i] = 0.0; a4[i] = 0.0; a5[i] = 0.0;
    c0[i] = 1.0; c1[i] = 1.0; c2[i] = 1.0; c3[i] = 1.0; c4[i] = 1.0; c5[i] = 1.0;
  }
  knl(a0, c0, a1, c1, a2, c2, a3, c3, a4, c4, a5, c5);
  print_float(a1[2] + c4[1]);
  return 0;
}|}

let test_bulk_error_after_commit () =
  (* a checked access out of bounds partway through the nest: raised by
     the committed nest at the walker's statement, bulk marks pending *)
  let src =
    {|
const int N = 8;
void knl(double* x, double* w, int* idx, double* z) {
  {
    for (int i = 0; i < N; i++) { z[i] = x[i] + w[idx[i]]; }
  }
}
int main() {
  double x[N];
  double w[N];
  double z[N];
  int idx[N];
  for (int i = 0; i < N; i++) { x[i] = (double)i; w[i] = 1.0; idx[i] = i; }
  idx[5] = N + 3;
  knl(x, w, idx, z);
  print_float(z[1]);
  return 0;
}|}
  in
  let p = parse src in
  List.iter
    (fun config ->
      check "walker fails" true
        (match run_backend `Ast config p with Failed _ -> true | _ -> false);
      check "error after commit: pair" true (agree ~config p);
      Fastloop.reset_bail_sites ();
      ignore (run_backend `Vm config p);
      check "raised on the planned path" true (Fastloop.bail_sites () = []))
    [ flow_config ();
      { (flow_config ()) with Machine.regions = Machine.Rfunc "knl" :: knl_scopes p } ]

(* ---- arrays declared in nests ----

   A nest that declares an array allocates it fresh, zeroed, at every
   execution of the declaration, as the walker does, so bases, memory
   images and region footprints (the array is scratch to every frame)
   agree.  Each case checks that [knl]'s nest is planned, then runs the
   pair unprofiled, flow-profiled, and flow-profiled with an [Rstmt]
   region on the nest itself. *)

let knl_nest p =
  match Ast.find_func p "knl" with
  | Some fn -> (List.hd (Query.loops_in_func fn)).Query.lm_stmt
  | None -> Alcotest.fail "no knl"

let decl_configs p =
  let flow = flow_config () in
  [ ("unprofiled", Machine.default_config);
    ("flow-profiled", flow);
    ( "region on the nest",
      { flow with Machine.regions = Machine.Rstmt (knl_nest p).Ast.sid :: flow.Machine.regions } ) ]

let decl_case name src =
  let p = parse src in
  check (name ^ ": nest planned") true
    (match List.assoc_opt (knl_nest p).Ast.sloc (Ir_lower.plan_report p) with
     | Some (Ir_lower.Planned _) -> true
     | _ -> false);
  List.iter
    (fun (label, config) ->
      check (Printf.sprintf "%s (%s)" name label) true (agree_mostly_planned ~config p))
    (decl_configs p)

let global_sized_src =
  {|
const int N = 6;
int M = 3;
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) {
    double t[M + 1];
    for (int k = 0; k < M; k++) { t[k + 1] = t[k] + a[i] * (double)k; }
    b[i] = t[M] + t[0];
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i + 0.5; b[i] = 0.0; }
  knl(a, b);
  M = 4;
  knl(a, b);
  print_float(b[1] + b[5]);
  return 0;
}|}

let test_decl_global_size () = decl_case "array sized by a global" global_sized_src

let test_decl_zero_trip () =
  decl_case "array in a zero-trip level"
    {|
const int N = 6;
void knl(double* a, double* b, int m) {
  for (int i = 0; i < N; i++) {
    for (int j = 0; j < m; j++) {
      int t[4];
      t[1] = j;
      t[(j + 2) % 4] += 3;
      b[i] += a[i] * (double)(t[1] + t[2] + t[3]);
    }
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; b[i] = 1.0; }
  knl(a, b, 0);
  knl(a, b, 3);
  knl(a, b, 0);
  print_float(b[2] + b[4]);
  return 0;
}|}

let test_decl_in_arm () =
  decl_case "array in an if arm"
    {|
const int N = 8;
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) {
    if (a[i] > 2.0) {
      float t[3];
      t[0] = a[i];
      t[2] = t[0] * 2.0f;
      b[i] = t[2] + t[1];
    } else {
      b[i] = 0.5;
    }
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i * 0.7; b[i] = 0.0; }
  knl(a, b);
  print_float(b[3] + b[7]);
  return 0;
}|}

(* a leaf that declares an array, and a leaf handed one the nest declares:
   the HIP body's shape *)
let decl_leaf_src =
  {|
const int N = 6;
void fill(int t, double* w, double* y) {
  for (int k = 0; k < 4; k++) { w[k] = y[t] * (double)k; }
}
void leaf(int t, double* x, double* w) {
  double s[2];
  s[1] = w[3] + w[1];
  x[t] = s[1] + s[0];
}
void knl(double* a, double* b) {
  for (int i = 0; i < N; i++) {
    double w[4];
    fill(i, w, b);
    leaf(i, a, w);
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = 0.0; b[i] = (double)i + 0.25; }
  knl(a, b);
  print_float(a[2] + a[5]);
  return 0;
}|}

let test_decl_leaf () =
  check "arrays in a leaf: calls inlined" true (List.length (inlined (parse decl_leaf_src)) = 2);
  decl_case "arrays in an inlined leaf" decl_leaf_src;
  let leaf_aliases =
    (Machine.run ~config:(flow_config ()) ~backend:`Vm (parse decl_leaf_src)).Machine.aliased_funcs
  in
  check "a declared array is its own base" true
    (List.assoc_opt "fill" leaf_aliases = Some false
    && List.assoc_opt "leaf" leaf_aliases = Some false)

let test_decl_negative_size () =
  let p =
    parse
      {|
const int N = 4;
int M = 0;
void knl(double* a) {
  for (int i = 0; i < N; i++) {
    double t[M - 1];
    a[i] = 1.0;
  }
}
int main() {
  double a[N];
  knl(a);
  print_float(a[0]);
  return 0;
}|}
  in
  List.iter
    (fun (label, config) ->
      check ("negative size: walker fails (" ^ label ^ ")") true
        (match run_backend `Ast config p with Failed _ -> true | _ -> false);
      check ("negative size (" ^ label ^ ")") true (agree ~config p);
      Fastloop.reset_bail_sites ();
      ignore (run_backend `Vm config p);
      check ("negative size: the guard declines (" ^ label ^ ")") true
        (List.exists (fun (_, r) -> r = "array size") (Fastloop.bail_sites ())))
    (decl_configs p)

let test_decl_budget_sweep () =
  List.iter
    (fun src ->
      let p = parse src in
      List.iter
        (fun (label, base) ->
          let total =
            (Machine.run ~config:base ~backend:`Ast p).Machine.counters.(Counters.steps)
          in
          for max_steps = 1 to total + 2 do
            let config = { base with Machine.max_steps } in
            check (Printf.sprintf "decl budget %d (%s)" max_steps label) true (agree ~config p)
          done)
        (decl_configs p))
    [ global_sized_src; decl_leaf_src ]

(* ---- cursors in site arms, checked per access ----

   A shared-memory tile staged under [if (jj + t < n)] reaches past [n]
   at its endpoints without ever doing so: the guard checks such a
   cursor at each access instead of declining, and an arm that does read
   past the end raises the walker's error after commit. *)

let tile_src n =
  Printf.sprintf
    {|
const int N = %d;
const int TILE = 8;
void knl(double* xs, double* out) {
  for (int jj = 0; jj < N; jj += TILE) {
    double tile[TILE];
    for (int t = 0; t < TILE; t++) {
      if (jj + t < N) { tile[t] = xs[jj + t]; }
    }
    for (int j = jj; j < imin(jj + TILE, N); j++) { out[j] = tile[j - jj] * 2.0; }
  }
  for (int i = 0; i < 3; i++) {
    double row[TILE];
    for (int t = 0; t < TILE; t++) {
      if (t < N) { row[t] = xs[t] + (double)i; } else { row[t] = xs[t - N] * 0.5; }
    }
    for (int t = 0; t < imin(N, TILE); t++) { out[t] += row[t]; }
  }
}
int main() {
  double xs[N];
  double out[N];
  for (int i = 0; i < N; i++) { xs[i] = (double)i + 0.5; out[i] = 0.0; }
  knl(xs, out);
  print_float(out[0] + out[N - 1]);
  return 0;
}|}
    n

let test_arm_tile () =
  List.iter
    (fun n ->
      let p = parse (tile_src n) in
      List.iter
        (fun (label, config) ->
          check (Printf.sprintf "tile, N = %d (%s)" n label) true
            (agree_mostly_planned ~config p);
          Fastloop.reset_bail_sites ();
          ignore (run_backend `Vm config p);
          check (Printf.sprintf "tile, N = %d: no bounds bail (%s)" n label) true
            (not (List.exists (fun (_, r) -> r = "bounds") (Fastloop.bail_sites ()))))
        [ ("unprofiled", Machine.default_config); ("flow-profiled", flow_config ()) ])
    [ 5; 8; 13 ]

let test_arm_read_past_end () =
  List.iter
    (fun (name, arm) ->
      let p =
        parse
          (Printf.sprintf
             {|
const int N = 8;
void knl(double* a, double* b, int lim) {
  for (int i = 0; i < N; i++) {
    b[i] = a[i] * 0.5;
    if (i > lim) { %s }
  }
}
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i; b[i] = 0.0; }
  knl(a, b, N);
  knl(a, b, 3);
  print_float(b[2]);
  return 0;
}|}
             arm)
      in
      List.iter
        (fun (label, config) ->
          check (Printf.sprintf "%s: walker fails (%s)" name label) true
            (match run_backend `Ast config p with Failed _ -> true | _ -> false);
          check (Printf.sprintf "%s (%s)" name label) true (agree ~config p);
          Fastloop.reset_bail_sites ();
          ignore (run_backend `Vm config p);
          check (Printf.sprintf "%s: raised on the planned path (%s)" name label) true
            (Fastloop.bail_sites () = []))
        [ ("unprofiled", Machine.default_config); ("flow-profiled", flow_config ()) ])
    [
      ("load past the end", "b[i] = a[i + 2];");
      ("two loads, one position", "b[i] = a[i] + a[i + 3] * a[i + 3];");
      ("store past the end", "a[i + 3] = b[i];");
      ("accumulation past the end", "a[i + 4] += 1.0;");
      ("ternary past the end", "b[i] = (i > 5) ? a[i + 3] : a[i];");
    ]

(* ---- every float intrinsic of the table ----

   Each float function, double and single, is called once per iteration
   of [knl]'s nest (the single ones on a float copy of the inputs), over
   inputs at every function's edges: negative, signed zeros, NaN, both
   infinities, huge, tiny and exp-overflowing magnitudes.  Two-argument
   functions pair each input with the mirrored one.  Every result is
   stored and printed, so output, memory, counters and loop stats must
   match with the nest planned under the flow-shaped config. *)

let every_intrinsic_src () =
  let fns =
    List.filter
      (fun (i : Intrinsic.t) ->
        match i.Intrinsic.op with Intrinsic.F1 _ | Intrinsic.F2 _ -> true | _ -> false)
      Intrinsic.all
  in
  let inputs =
    [ "-2.5"; "0.0"; "-0.0"; "0.0 / 0.0"; "1.0 / 0.0"; "-1.0 / 0.0"; "1e300"; "-1e30";
      "1e-300"; "0.75"; "3.0"; "710.0"; "-710.0"; "100.5" ]
  in
  let call k (i : Intrinsic.t) =
    let x = if i.Intrinsic.single then "xf" else "x" in
    let args =
      match i.Intrinsic.op with
      | Intrinsic.F2 _ -> Printf.sprintf "%s[i], %s[N - 1 - i]" x x
      | _ -> Printf.sprintf "%s[i]" x
    in
    Printf.sprintf "    y[%d * N + i] = %s(%s);" k i.Intrinsic.name args
  in
  Printf.sprintf
    {|
const int N = %d;
const int M = %d;
void knl(double* x, float* xf, double* y) {
  for (int i = 0; i < N; i++) {
%s
  }
}
int main() {
  double x[N];
  float xf[N];
  double y[M * N];
%s
  for (int i = 0; i < N; i++) { xf[i] = (float)x[i]; }
  knl(x, xf, y);
  for (int k = 0; k < M * N; k++) { print_float(y[k]); }
  return 0;
}|}
    (List.length inputs) (List.length fns)
    (String.concat "\n" (List.mapi call fns))
    (String.concat "\n" (List.mapi (Printf.sprintf "  x[%d] = %s;") inputs))

let test_every_intrinsic () =
  let p = parse (every_intrinsic_src ()) in
  check "knl nest planned" true
    (match List.assoc_opt (knl_nest p).Ast.sloc (Ir_lower.plan_report p) with
     | Some (Ir_lower.Planned _) -> true
     | _ -> false);
  check "every intrinsic (flow-profiled)" true (agree_planned ~config:(flow_config ()) p)

let suite =
  [
    Alcotest.test_case "suite apps fully profiled" `Quick test_suite_apps;
    Alcotest.test_case "suite apps flow-profiled" `Quick test_suite_apps_flow;
    Alcotest.test_case "flow design programs" `Quick test_design_programs;
    Alcotest.test_case "suite apps unprofiled" `Quick test_suite_apps_plain;
    Alcotest.test_case "scope shadowing" `Quick test_shadowing;
    Alcotest.test_case "use before declaration" `Quick test_use_before_decl;
    Alcotest.test_case "early return and break" `Quick test_early_return_and_break;
    Alcotest.test_case "numeric corner cases" `Quick test_numeric_semantics;
    Alcotest.test_case "alias tracing" `Quick test_alias_tracing;
    Alcotest.test_case "global overrides" `Quick test_global_overrides;
    Alcotest.test_case "error parity" `Quick test_error_parity;
    Alcotest.test_case "step limit parity" `Quick test_step_limit_parity;
    Alcotest.test_case "step counts identical" `Quick test_step_count_identical;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "prng stream order" `Quick test_prng_stream;
    Alcotest.test_case "run metrics accumulate" `Quick test_run_metrics_accumulate;
    Alcotest.test_case "planned steps counted per run" `Quick test_planned_counted_per_run;
    Alcotest.test_case "default backend switch" `Quick test_default_backend_switch;
    Alcotest.test_case "fault report backend-invariant" `Slow
      test_fault_report_backend_invariant;
    Alcotest.test_case "nest planned coverage" `Quick test_nest_planned_coverage;
    Alcotest.test_case "nest budget-bail parity" `Quick test_nest_budget_bail_parity;
    Alcotest.test_case "profiled zero-trip level" `Quick test_profiled_zero_trip;
    Alcotest.test_case "profiled levels in arms" `Quick test_profiled_arms;
    Alcotest.test_case "profiled code motion" `Quick test_profiled_code_motion;
    Alcotest.test_case "profiled region re-entry" `Quick test_profiled_reentered_region;
    Alcotest.test_case "profiled budget sweep" `Quick test_profiled_budget_sweep;
    Alcotest.test_case "clamped loop bounds" `Quick test_clamped_bounds;
    Alcotest.test_case "sp fused ops special values" `Quick test_sp_fused_special_values;
    Alcotest.test_case "every intrinsic special values" `Quick test_every_intrinsic;
    Alcotest.test_case "cost walk reuse" `Quick test_walk_reuse;
    Alcotest.test_case "cost walk reuse budget sweep" `Quick test_walk_reuse_budget;
    Alcotest.test_case "planned call coercions" `Quick test_call_coercions;
    Alcotest.test_case "planned call globals" `Quick test_call_globals;
    Alcotest.test_case "planned call guarded" `Quick test_call_guarded;
    Alcotest.test_case "planned call zero-trip levels" `Quick test_call_zero_trip;
    Alcotest.test_case "planned call aliases" `Quick test_call_aliases;
    Alcotest.test_case "planned call callee region" `Quick test_call_callee_region;
    Alcotest.test_case "planned call errors" `Quick test_call_errors;
    Alcotest.test_case "planned call budget sweep" `Quick test_call_budget_sweep;
    Alcotest.test_case "planned call rejections" `Quick test_call_rejections;
    Alcotest.test_case "bulk marks overlapping cursors" `Quick test_bulk_overlapping;
    Alcotest.test_case "bulk marks zero-trip entries" `Quick test_bulk_zero_trip;
    Alcotest.test_case "bulk marks after region writes" `Quick test_bulk_read_after_write;
    Alcotest.test_case "bulk marks two names for a base" `Quick test_bulk_two_names;
    Alcotest.test_case "bulk marks beside guarded ones" `Quick test_bulk_guarded;
    Alcotest.test_case "bulk marks scratch frames" `Quick test_bulk_scratch;
    Alcotest.test_case "bulk marks region re-entry" `Quick test_bulk_reentered;
    Alcotest.test_case "bulk marks first-touch order" `Quick test_bulk_first_touch_order;
    Alcotest.test_case "bulk marks error after commit" `Quick test_bulk_error_after_commit;
    Alcotest.test_case "declared array sized by a global" `Quick test_decl_global_size;
    Alcotest.test_case "declared array in a zero-trip level" `Quick test_decl_zero_trip;
    Alcotest.test_case "declared array in an if arm" `Quick test_decl_in_arm;
    Alcotest.test_case "declared arrays in an inlined leaf" `Quick test_decl_leaf;
    Alcotest.test_case "declared array of negative size" `Quick test_decl_negative_size;
    Alcotest.test_case "declared arrays budget sweep" `Quick test_decl_budget_sweep;
    Alcotest.test_case "arm cursors: tile past the end" `Quick test_arm_tile;
    Alcotest.test_case "arm cursors: read past the end" `Quick test_arm_read_past_end;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    QCheck_alcotest.to_alcotest prop_backends_agree_plain;
    QCheck_alcotest.to_alcotest prop_backends_agree_flow;
    QCheck_alcotest.to_alcotest prop_backends_agree_sp_plain;
    QCheck_alcotest.to_alcotest prop_backends_agree_sp_flow;
    QCheck_alcotest.to_alcotest prop_backends_agree_leaf_plain;
    QCheck_alcotest.to_alcotest prop_backends_agree_leaf_flow;
  ]
