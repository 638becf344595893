(* Tests for the interpreter: value semantics, control flow, memory,
   intrinsics, counters, regions, aliasing, step limits. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run ?config src = Machine.run ?config (Parser.parse_program src)

let ret_int src =
  match (run src).Machine.ret with
  | Some (Value.Vint n) -> n
  | _ -> Alcotest.fail "expected int return"

let output src = (run src).Machine.output

let test_arith_int () = checki "int arith" 17 (ret_int "int main() { return 3 + 2 * 7; }")

let test_int_division_truncates () =
  checki "int division" 3 (ret_int "int main() { return 7 / 2; }")

let test_mod () = checki "mod" 1 (ret_int "int main() { return 7 % 2; }")

let test_div_by_zero_raises () =
  check "div by zero" true
    (try ignore (run "int main() { int z = 0; return 1 / z; }"); false
     with Machine.Runtime_error _ -> true)

let test_float_arith () =
  Alcotest.(check (list string)) "float print" [ "3.5" ]
    (output "int main() { print_float(1.25 + 2.25); return 0; }")

let test_bool_short_circuit () =
  (* the right operand would divide by zero if evaluated *)
  checki "short circuit &&" 0
    (ret_int "int main() { int z = 0; if (false && 1 / z > 0) { return 1; } return 0; }")

let test_ternary () =
  checki "ternary" 5 (ret_int "int main() { int x = 3; return x > 2 ? 5 : 6; }")

let test_for_loop_sum () =
  checki "for sum" 45 (ret_int "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }")

let test_for_loop_step () =
  checki "stepped" 20 (ret_int "int main() { int s = 0; for (int i = 0; i <= 8; i += 2) { s += i; } return s; }")

let test_while_loop () =
  checki "while" 128 (ret_int "int main() { int x = 1; while (x < 100) { x = x * 2; } return x; }")

let test_break () =
  checki "break" 5 (ret_int "int main() { int i = 0; for (int k = 0; k < 100; k++) { if (k == 5) { break; } i = k + 1; } return i; }")

let test_continue () =
  checki "continue skips" 25
    (ret_int "int main() { int s = 0; for (int k = 0; k < 10; k++) { if (k % 2 == 0) { continue; } s += k; } return s; }")

let test_nested_function_call () =
  checki "call" 12 (ret_int "int twice(int x) { return 2 * x; } int main() { return twice(twice(3)); }")

let test_recursion () =
  checki "factorial" 120
    (ret_int "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }")

let test_array_store_load () =
  checki "array rw" 42
    (ret_int "int main() { int a[4]; a[2] = 42; return a[2]; }")

let test_array_out_of_bounds () =
  check "oob raises" true
    (try ignore (run "int main() { int a[4]; return a[4]; }"); false
     with Machine.Runtime_error _ -> true)

let test_array_via_function () =
  checki "array through pointer" 7
    (ret_int "void set(int* p, int i, int v) { p[i] = v; } int main() { int a[3]; set(a, 1, 7); return a[1]; }")

let test_global_array () =
  checki "global array" 9
    (ret_int "const int N = 3; int g[N]; int main() { g[0] = 9; return g[0]; }")

let test_global_override () =
  let config = { Machine.default_config with overrides = [ ("N", Value.Vint 5) ] } in
  let r = run ~config "const int N = 2; int main() { return N; }" in
  check "override applies" true (r.Machine.ret = Some (Value.Vint 5))

let test_float_array_precision () =
  (* float arrays store single precision: 0.1 is not represented exactly *)
  Alcotest.(check (list string)) "sp storage rounds" [ "1" ]
    (output
       "int main() { float a[1]; a[0] = 0.1; double d = a[0]; if (d != 0.1) { print_int(1); } else { print_int(0); } return 0; }")

let test_shadowing_scopes () =
  checki "inner decl shadows" 1
    (ret_int
       "int main() { int x = 1; for (int i = 0; i < 1; i++) { int x = 99; x += 1; } return x; }")

let test_intrinsic_sqrt () =
  Alcotest.(check (list string)) "sqrt" [ "3" ] (output "int main() { print_float(sqrt(9.0)); return 0; }")

let test_intrinsic_minmax () =
  checki "imin/imax" 7 (ret_int "int main() { return imin(7, 9) + imax(-3, 0); }")

let test_intrinsic_rand_deterministic () =
  let a = output "int main() { print_float(rand01()); return 0; }" in
  let b = output "int main() { print_float(rand01()); return 0; }" in
  Alcotest.(check (list string)) "same seed same stream" a b

let test_intrinsic_rand_seed () =
  let config = { Machine.default_config with seed = 1 } in
  let a = (run ~config "int main() { print_float(rand01()); return 0; }").Machine.output in
  let b = output "int main() { print_float(rand01()); return 0; }" in
  check "different seeds differ" true (a <> b)

let test_erf_accuracy () =
  (* erf(1) = 0.8427007929; the A&S approximation is good to ~1e-7 *)
  let r = run "int main() { print_float(erf(1.0)); return 0; }" in
  match r.Machine.output with
  | [ s ] ->
    check "erf(1)" true (Float.abs (float_of_string s -. 0.8427007929) < 1e-5)
  | _ -> Alcotest.fail "no output"

let test_counters_flops () =
  let r = run "int main() { double x = 1.5 * 2.0 + 1.0; print_float(x); return 0; }" in
  let c = r.Machine.counters in
  checki "one dp mul" 1 c.(Counters.flop ~single:false Counters.Mul);
  checki "one dp add" 1 c.(Counters.flop ~single:false Counters.Add)

let test_counters_sp_vs_dp () =
  let r = run "int main() { float x = 1.5f * 2.0f; double y = 1.5 * 2.0; print_float((double)x + y); return 0; }" in
  let c = r.Machine.counters in
  checki "sp mul" 1 c.(Counters.flop ~single:true Counters.Mul);
  checki "dp mul" 1 c.(Counters.flop ~single:false Counters.Mul)

let test_counters_loads_stores () =
  let r = run "int main() { double a[8]; for (int i = 0; i < 8; i++) { a[i] = 1.0; } double s = 0.0; for (int i = 0; i < 8; i++) { s += a[i]; } print_float(s); return 0; }" in
  let c = r.Machine.counters in
  checki "stores" 8 c.(Counters.stores);
  checki "loads" 8 c.(Counters.loads);
  checki "bytes stored" 64 c.(Counters.bytes_stored)

let test_counters_specials () =
  let r = run "int main() { print_float(exp(1.0) + sqrt(4.0)); return 0; }" in
  checki "two dp specials" 2
    r.Machine.counters.(Counters.flop ~single:false Counters.Special)

let test_loop_stats () =
  let config = { Machine.default_config with profile_loops = true } in
  let p = Parser.parse_program "int main() { int s = 0; for (int i = 0; i < 6; i++) { for (int j = 0; j < 3; j++) { s += 1; } } return s; }" in
  let lm = List.hd (Query.loops p) in
  let inner = List.hd (Query.inner_loops lm) in
  let r = Machine.run ~config p in
  let outer_stats = Option.get (Machine.find_loop_stats r lm.Query.lm_stmt.Ast.sid) in
  let inner_stats = Option.get (Machine.find_loop_stats r inner.Query.lm_stmt.Ast.sid) in
  checki "outer iterations" 6 outer_stats.Machine.ls_iterations;
  checki "outer entries" 1 outer_stats.Machine.ls_entries;
  checki "inner iterations" 18 inner_stats.Machine.ls_iterations;
  checki "inner entries" 6 inner_stats.Machine.ls_entries;
  check "outer work includes inner" true
    (outer_stats.Machine.ls_work > inner_stats.Machine.ls_work)

let test_while_loop_stats () =
  let config = { Machine.default_config with profile_loops = true } in
  let p = Parser.parse_program
    "int main() { int x = 0; while (x < 5) { x += 1; } return x; }" in
  let sid =
    match
      Query.select_stmts p (fun _ s ->
          match s.Ast.sdesc with Ast.While _ -> true | _ -> false)
    with
    | [ (_, s) ] -> s.Ast.sid
    | _ -> Alcotest.fail "expected one while loop"
  in
  let r = Machine.run ~config p in
  match Machine.find_loop_stats r sid with
  | Some stats ->
    checki "while iterations" 5 stats.Machine.ls_iterations;
    checki "while entries" 1 stats.Machine.ls_entries
  | None -> Alcotest.fail "while loop not profiled"

let region_src =
  "void knl(double* a, double* b, int n) {\n\
   for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }\n\
   }\n\
   int main() {\n\
   double a[10]; double b[10];\n\
   for (int i = 0; i < 10; i++) { a[i] = 1.0; }\n\
   knl(a, b, 10);\n\
   print_float(b[9]);\n\
   return 0; }"

let test_region_stats () =
  let config = { Machine.default_config with regions = [ Machine.Rfunc "knl" ] } in
  let r = run ~config region_src in
  let rs = Option.get (Machine.find_region_stats r (Machine.Rfunc "knl")) in
  checki "invocations" 1 rs.Machine.rs_invocations;
  checki "bytes in (a read)" 80 rs.Machine.rs_bytes_in;
  checki "bytes out (b written)" 80 rs.Machine.rs_bytes_out

let test_region_write_before_read_not_in () =
  (* elements written before being read are not input data *)
  let src =
    "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1.0; a[i] = a[i] + 1.0; } }\n\
     int main() { double a[4]; knl(a, 4); print_float(a[0]); return 0; }"
  in
  let config = { Machine.default_config with regions = [ Machine.Rfunc "knl" ] } in
  let r = run ~config src in
  let rs = Option.get (Machine.find_region_stats r (Machine.Rfunc "knl")) in
  checki "no input bytes" 0 rs.Machine.rs_bytes_in;
  checki "output bytes" 32 rs.Machine.rs_bytes_out

let test_region_local_arrays_excluded () =
  let src =
    "void knl(double* out) { double tmp[64]; for (int i = 0; i < 64; i++) { tmp[i] = 1.0; } out[0] = tmp[63]; }\n\
     int main() { double out[1]; knl(out); print_float(out[0]); return 0; }"
  in
  let config = { Machine.default_config with regions = [ Machine.Rfunc "knl" ] } in
  let r = run ~config src in
  let rs = Option.get (Machine.find_region_stats r (Machine.Rfunc "knl")) in
  checki "scratch array not transferred" 8 (rs.Machine.rs_bytes_in + rs.Machine.rs_bytes_out)

let test_region_invocations_accumulate () =
  let src =
    "void knl(double* a) { a[0] = a[0] + 1.0; }\n\
     int main() { double a[1]; a[0] = 0.0; for (int i = 0; i < 5; i++) { knl(a); } print_float(a[0]); return 0; }"
  in
  let config = { Machine.default_config with regions = [ Machine.Rfunc "knl" ] } in
  let r = run ~config src in
  let rs = Option.get (Machine.find_region_stats r (Machine.Rfunc "knl")) in
  checki "five invocations" 5 rs.Machine.rs_invocations;
  checki "in bytes accumulate" 40 rs.Machine.rs_bytes_in

let test_region_by_statement () =
  (* profiling a single statement as a region (Rstmt) *)
  let p = Parser.parse_program
    "int main() { double a[4]; for (int i = 0; i < 4; i++) { a[i] = 2.0; } print_float(a[0]); return 0; }" in
  let sid = (List.hd (Query.loops p)).Query.lm_stmt.Ast.sid in
  let config = { Machine.default_config with regions = [ Machine.Rstmt sid ] } in
  let r = Machine.run ~config p in
  (match Machine.find_region_stats r (Machine.Rstmt sid) with
   | Some rs ->
     checki "one invocation" 1 rs.Machine.rs_invocations;
     checki "writes 32 bytes" 32 rs.Machine.rs_bytes_out
   | None -> Alcotest.fail "statement region missing")

let test_memory_to_float_array () =
  let mem = Memory.create () in
  let ptr = Memory.alloc mem ~name:"v" ~elem_ty:Ast.Tint 3 in
  Memory.store mem ptr 1 (Value.Vint 7);
  Alcotest.(check (array (float 0.0))) "snapshot" [| 0.0; 7.0; 0.0 |]
    (Memory.to_float_array mem ptr.Value.base)

let test_value_coerce_errors () =
  check "pointer to int rejected" true
    (try ignore (Value.coerce (Ast.Tptr Ast.Tdouble) (Value.Vint 3)); false
     with Invalid_argument _ -> true)

let test_alias_detection () =
  let src =
    "void knl(double* a, double* b) { a[0] = b[0]; }\n\
     int main() { double x[2]; double y[2]; x[0] = 0.0; y[0] = 0.0; knl(x, y); knl(x, x); return 0; }"
  in
  let config = { Machine.default_config with trace_aliases = true } in
  let r = run ~config src in
  check "alias found" true (List.assoc "knl" r.Machine.aliased_funcs)

let test_no_alias () =
  let src =
    "void knl(double* a, double* b) { a[0] = b[0]; }\n\
     int main() { double x[2]; double y[2]; x[0] = 0.0; y[0] = 0.0; knl(x, y); return 0; }"
  in
  let config = { Machine.default_config with trace_aliases = true } in
  let r = run ~config src in
  check "no alias" false (List.assoc "knl" r.Machine.aliased_funcs)

let test_step_limit () =
  let config = { Machine.default_config with max_steps = 100 } in
  check "step limit enforced" true
    (try ignore (run ~config "int main() { int x = 0; while (true) { x += 1; } return x; }"); false
     with Machine.Step_limit_exceeded -> true)

let test_missing_entry () =
  check "missing entry raises" true
    (try ignore (run "void f() { }"); false with Machine.Runtime_error _ -> true)

let test_output_order () =
  Alcotest.(check (list string)) "output order" [ "1"; "2.5"; "3" ]
    (output "int main() { print_int(1); print_float(2.5); print_int(3); return 0; }")

let test_counters_scale () =
  let c = Counters.create () in
  c.(Counters.flop ~single:false Counters.Add) <- 3;
  c.(Counters.bytes_loaded) <- 10;
  let s = Counters.scale c 4 in
  checki "flops scaled" 12 s.(Counters.flop ~single:false Counters.Add);
  checki "bytes scaled" 40 s.(Counters.bytes_loaded)

let test_counters_diff_add () =
  let a = Counters.create () and b = Counters.create () in
  a.(Counters.loads) <- 10;
  b.(Counters.loads) <- 4;
  let d = Counters.diff a b in
  checki "diff" 6 d.(Counters.loads);
  Counters.add_into b d;
  checki "add_into" 10 b.(Counters.loads)

(* Known answers, with inputs and expectations built in double
   arithmetic only: a process-wide float mode such as flush-to-zero
   would move an Int32-round-trip oracle along with the result, but not
   these *)
let test_value_demote () =
  check "demote rounds" true (Intrinsic.demote 0.1 <> 0.1);
  check "demote idempotent" true (Intrinsic.demote (Intrinsic.demote 0.1) = Intrinsic.demote 0.1);
  let is x y = Int64.equal (Int64.bits_of_float (Intrinsic.demote x)) (Int64.bits_of_float y) in
  let tiny = Float.ldexp 1.0 (-149) and flt_max = Float.ldexp (2.0 -. Float.ldexp 1.0 (-23)) 127 in
  check "smallest float subnormal kept" true (is tiny tiny);
  check "three quarters of it rounds up" true (is (0.75 *. tiny) tiny);
  check "half of it ties to zero" true (is (0.5 *. tiny) 0.0);
  check "tie to even, down" true (is (1.0 +. Float.ldexp 1.0 (-24)) 1.0);
  check "tie to even, up" true
    (is (1.0 +. (3.0 *. Float.ldexp 1.0 (-24))) (1.0 +. Float.ldexp 1.0 (-22)));
  check "FLT_MAX kept" true (is (-.flt_max) (-.flt_max));
  check "above the overflow threshold" true (is (flt_max +. Float.ldexp 1.0 103) infinity)

let test_memory_distinct_bases () =
  let mem = Memory.create () in
  let p1 = Memory.alloc mem ~name:"a" ~elem_ty:Ast.Tdouble 4 in
  let p2 = Memory.alloc mem ~name:"b" ~elem_ty:Ast.Tdouble 4 in
  check "distinct bases" true (p1.Value.base <> p2.Value.base);
  Memory.store mem p1 0 (Value.Vfloat (Value.Dp, 5.0));
  check "no cross talk" true (Memory.load mem p2 0 = Value.Vfloat (Value.Dp, 0.0))

let suite =
  [
    Alcotest.test_case "int arithmetic" `Quick test_arith_int;
    Alcotest.test_case "int division truncates" `Quick test_int_division_truncates;
    Alcotest.test_case "mod" `Quick test_mod;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero_raises;
    Alcotest.test_case "float arithmetic" `Quick test_float_arith;
    Alcotest.test_case "short circuit" `Quick test_bool_short_circuit;
    Alcotest.test_case "ternary" `Quick test_ternary;
    Alcotest.test_case "for sum" `Quick test_for_loop_sum;
    Alcotest.test_case "for step" `Quick test_for_loop_step;
    Alcotest.test_case "while" `Quick test_while_loop;
    Alcotest.test_case "break" `Quick test_break;
    Alcotest.test_case "continue" `Quick test_continue;
    Alcotest.test_case "function call" `Quick test_nested_function_call;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "array store/load" `Quick test_array_store_load;
    Alcotest.test_case "array bounds" `Quick test_array_out_of_bounds;
    Alcotest.test_case "array via pointer param" `Quick test_array_via_function;
    Alcotest.test_case "global array" `Quick test_global_array;
    Alcotest.test_case "global override" `Quick test_global_override;
    Alcotest.test_case "float array precision" `Quick test_float_array_precision;
    Alcotest.test_case "scope shadowing" `Quick test_shadowing_scopes;
    Alcotest.test_case "intrinsic sqrt" `Quick test_intrinsic_sqrt;
    Alcotest.test_case "intrinsic imin/imax" `Quick test_intrinsic_minmax;
    Alcotest.test_case "rand deterministic" `Quick test_intrinsic_rand_deterministic;
    Alcotest.test_case "rand seeded" `Quick test_intrinsic_rand_seed;
    Alcotest.test_case "erf accuracy" `Quick test_erf_accuracy;
    Alcotest.test_case "counters flops" `Quick test_counters_flops;
    Alcotest.test_case "counters sp vs dp" `Quick test_counters_sp_vs_dp;
    Alcotest.test_case "counters loads/stores" `Quick test_counters_loads_stores;
    Alcotest.test_case "counters specials" `Quick test_counters_specials;
    Alcotest.test_case "loop stats" `Quick test_loop_stats;
    Alcotest.test_case "while loop stats" `Quick test_while_loop_stats;
    Alcotest.test_case "region stats" `Quick test_region_stats;
    Alcotest.test_case "region write-before-read" `Quick test_region_write_before_read_not_in;
    Alcotest.test_case "region local arrays excluded" `Quick test_region_local_arrays_excluded;
    Alcotest.test_case "region invocations" `Quick test_region_invocations_accumulate;
    Alcotest.test_case "region by statement" `Quick test_region_by_statement;
    Alcotest.test_case "memory snapshot" `Quick test_memory_to_float_array;
    Alcotest.test_case "value coerce errors" `Quick test_value_coerce_errors;
    Alcotest.test_case "alias detection" `Quick test_alias_detection;
    Alcotest.test_case "no alias" `Quick test_no_alias;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "missing entry" `Quick test_missing_entry;
    Alcotest.test_case "output order" `Quick test_output_order;
    Alcotest.test_case "counters scale" `Quick test_counters_scale;
    Alcotest.test_case "counters diff/add" `Quick test_counters_diff_add;
    Alcotest.test_case "value demote" `Quick test_value_demote;
    Alcotest.test_case "memory distinct bases" `Quick test_memory_distinct_bases;
  ]
