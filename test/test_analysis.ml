(* Tests for the analysis library: constant evaluation, affine subscripts,
   dependence verdicts, trip counts, hotspot detection/extraction,
   arithmetic intensity, data in/out, aliasing, scalarisation. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let parse = Parser.parse_program

(* ---- consteval ---- *)

let test_consteval_globals () =
  let p = parse "const int N = 4; const int M = N * 2 + 1; int main() { return 0; }" in
  let env = Consteval.of_program p in
  check "N" true (Consteval.lookup env "N" = Some 4);
  check "M chains" true (Consteval.lookup env "M" = Some 9)

let test_consteval_non_const_excluded () =
  let p = parse "int N = 4; int main() { return 0; }" in
  check "mutable global unknown" true
    (Consteval.lookup (Consteval.of_program p) "N" = None)

let test_consteval_exprs () =
  let env = Consteval.with_overrides Consteval.empty [ ("K", 3) ] in
  let e = Parser.parse_expr "K * 4 - 2" in
  check "expr" true (Consteval.eval_int env e = Some 10);
  check "unknown var" true (Consteval.eval_int env (Parser.parse_expr "J + 1") = None);
  check "div by zero none" true
    (Consteval.eval_int env (Parser.parse_expr "4 / (K - 3)") = None)

let test_consteval_ternary () =
  let env = Consteval.empty in
  check "cond" true (Consteval.eval_int env (Parser.parse_expr "1 < 2 ? 7 : 9") = Some 7)

(* ---- affine ---- *)

let classify ?(consts = Consteval.empty) src =
  Affine.classify ~index:"i" ~consts (Parser.parse_expr src)

let test_affine_simple () =
  (match classify "i" with
   | Affine.Affine { coeff = 1; offset = 0 } -> ()
   | _ -> Alcotest.fail "i");
  (match classify "i + 3" with
   | Affine.Affine { coeff = 1; offset = 3 } -> ()
   | _ -> Alcotest.fail "i+3");
  (match classify "2 * i - 1" with
   | Affine.Affine { coeff = 2; offset = -1 } -> ()
   | _ -> Alcotest.fail "2i-1")

let test_affine_const_coeff () =
  let consts = Consteval.with_overrides Consteval.empty [ ("D", 4) ] in
  match Affine.classify ~index:"i" ~consts (Parser.parse_expr "i * D + 2") with
  | Affine.Affine { coeff = 4; offset = 2 } -> ()
  | _ -> Alcotest.fail "i*D+2 with D=4"

let test_affine_invariant () =
  (match classify "j + 1" with Affine.Invariant -> () | _ -> Alcotest.fail "j+1");
  (match classify "42" with Affine.Invariant -> () | _ -> Alcotest.fail "42")

let test_affine_linear_plus () =
  let consts = Consteval.with_overrides Consteval.empty [ ("D", 4) ] in
  match Affine.classify ~index:"i" ~consts (Parser.parse_expr "i * D + j") with
  | Affine.Linear_plus { coeff = 4; _ } -> ()
  | _ -> Alcotest.fail "i*D+j"

let test_affine_unknown () =
  (match classify "i * i" with Affine.Unknown -> () | _ -> Alcotest.fail "i*i");
  (match classify "(i * 7) % 16" with Affine.Unknown -> () | _ -> Alcotest.fail "mod")

let test_affine_mentions () =
  check "mentions" true (Affine.mentions "i" (Parser.parse_expr "a[i + 1]"));
  check "not mentions" false (Affine.mentions "i" (Parser.parse_expr "a[j]"))

(* ---- dependence ---- *)

let loop_verdict ?(globals = "") body =
  let src = Printf.sprintf "%s\nvoid f(double* a, double* b, int n) { %s }" globals body in
  let p = parse src in
  let lm = List.hd (Query.loops p) in
  Dependence.analyse_loop p lm

let test_dep_parallel_map () =
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }" in
  check "parallel" true v.Dependence.parallel

let test_dep_carried_distance () =
  let v = loop_verdict "for (int i = 1; i < n; i++) { a[i] = a[i - 1] + 1.0; }" in
  check "not parallel" false v.Dependence.parallel_with_reductions;
  check "array carried" true
    (List.exists
       (function Dependence.Array_carried _ -> true | _ -> false)
       v.Dependence.carried)

let test_dep_same_index_ok () =
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }" in
  check "a[i] += is not carried" true v.Dependence.parallel_with_reductions

let test_dep_scalar_reduction () =
  let v = loop_verdict "double s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; } b[0] = s;" in
  (* the loop here is not the first statement; fetch it explicitly *)
  ignore v;
  let src = "void f(double* a, double* b, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; } b[0] = s; }" in
  let p = parse src in
  let lm = List.hd (Query.loops p) in
  let v = Dependence.analyse_loop p lm in
  check "not strictly parallel" false v.Dependence.parallel;
  check "parallel with reductions" true v.Dependence.parallel_with_reductions;
  (match v.Dependence.reductions with
   | [ r ] ->
     check "target s" true (r.Dependence.red_target = "s");
     check "add op" true (r.Dependence.red_op = Dependence.Radd);
     check "scalar" false r.Dependence.red_is_array
   | _ -> Alcotest.fail "one reduction expected")

let test_dep_set_form_reduction () =
  let src = "void f(double* a, int n) { double s = 1.0; for (int i = 0; i < n; i++) { s = s * a[i]; } a[0] = s; }" in
  let p = parse src in
  let v = Dependence.analyse_loop p (List.hd (Query.loops p)) in
  check "s = s * e recognised" true
    (List.exists (fun (r : Dependence.reduction) -> r.red_op = Dependence.Rmul)
       v.Dependence.reductions)

let test_dep_scalar_carried () =
  let src = "void f(double* a, int n) { double prev = 0.0; for (int i = 0; i < n; i++) { a[i] = prev; prev = a[i] + 1.0; } }" in
  let p = parse src in
  let v = Dependence.analyse_loop p (List.hd (Query.loops p)) in
  check "carried scalar" true
    (List.exists
       (function Dependence.Scalar_carried "prev" -> true | _ -> false)
       v.Dependence.carried)

let test_dep_private_scalar_ok () =
  let v = loop_verdict "for (int i = 0; i < n; i++) { double t = b[i] * 2.0; a[i] = t + 1.0; }" in
  check "private scalar fine" true v.Dependence.parallel

let test_dep_private_array_ok () =
  let v =
    loop_verdict
      "for (int i = 0; i < n; i++) { double tmp[4]; for (int k = 0; k < 4; k++) { tmp[k] = b[i] + (double)k; } a[i] = tmp[3]; }"
  in
  check "local array private" true v.Dependence.parallel

let test_dep_array_reduction () =
  let src =
    "void f(double* acc, double* b, int n) { for (int j = 0; j < n; j++) { acc[0] += b[j]; } }"
  in
  let p = parse src in
  let v = Dependence.analyse_loop p (List.hd (Query.loops p)) in
  check "array reduction" true
    (List.exists
       (fun (r : Dependence.reduction) -> r.red_is_array && r.red_target = "acc")
       v.Dependence.reductions);
  check "no carried" true (v.Dependence.carried = [])

let test_dep_fixed_element_write () =
  let src = "void f(double* a, double* b, int n) { for (int i = 0; i < n; i++) { a[0] = b[i]; } }" in
  let p = parse src in
  let v = Dependence.analyse_loop p (List.hd (Query.loops p)) in
  check "fixed-element write carried" false v.Dependence.parallel_with_reductions

let test_dep_flattened_2d () =
  let globals = "const int D = 4;" in
  let v =
    loop_verdict ~globals
      "for (int i = 0; i < n; i++) { for (int d = 0; d < D; d++) { a[i * D + d] = b[i * D + d] + 1.0; } }"
  in
  check "delinearised access parallel" true v.Dependence.parallel

let test_dep_flattened_2d_overflow () =
  (* inner range exceeds the stride: iterations can collide *)
  let globals = "const int D = 4;" in
  let v =
    loop_verdict ~globals
      "for (int i = 0; i < n; i++) { for (int d = 0; d < 9; d++) { a[i * D + d] = 0.0; } }"
  in
  check "overflowing block carried" false v.Dependence.parallel

let test_dep_nonaffine_conservative () =
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[(i * 7) % 16] = b[i]; }" in
  check "non-affine write carried" false v.Dependence.parallel

let test_dep_gather_read_ok () =
  (* random reads of an array nobody writes do not serialise *)
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[i] = b[(i * 7) % 16]; }" in
  check "gather read parallel" true v.Dependence.parallel

let test_static_trip_count () =
  let consts = Consteval.with_overrides Consteval.empty [ ("N", 10) ] in
  let header src =
    match (Parser.parse_stmt src).Ast.sdesc with
    | Ast.For (h, _) -> h
    | _ -> Alcotest.fail "not a for"
  in
  check "lt" true (Dependence.static_trip_count consts (header "for (int i = 0; i < N; i++) { }") = Some 10);
  check "le" true (Dependence.static_trip_count consts (header "for (int i = 0; i <= N; i++) { }") = Some 11);
  check "step" true (Dependence.static_trip_count consts (header "for (int i = 0; i < N; i += 3) { }") = Some 4);
  check "dynamic" true (Dependence.static_trip_count consts (header "for (int i = 0; i < n; i++) { }") = None)

let test_range_of () =
  let consts = Consteval.empty in
  let ranges v = if v = "j" then Some (0, 3) else None in
  check "range j+1" true
    (Dependence.range_of ranges consts (Parser.parse_expr "j + 1") = Some (1, 4));
  check "range 2*j" true
    (Dependence.range_of ranges consts (Parser.parse_expr "2 * j") = Some (0, 6));
  check "range unknown" true
    (Dependence.range_of ranges consts (Parser.parse_expr "k") = None)

let test_affine_negative_coeff () =
  match classify "3 - i" with
  | Affine.Affine { coeff = -1; offset = 3 } -> ()
  | _ -> Alcotest.fail "3 - i"

let test_affine_sub_of_invariants () =
  (match classify "n - 1" with Affine.Invariant -> () | _ -> Alcotest.fail "n-1")

let test_dep_write_write_distance () =
  (* two writes with distinct offsets collide across iterations *)
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[i] = 1.0; a[i + 1] = 2.0; }" in
  check "overlapping writes carried" false v.Dependence.parallel

let test_dep_disjoint_strided_writes () =
  (* a[2i] and a[2i+1] never collide *)
  let v = loop_verdict "for (int i = 0; i < n; i++) { a[2 * i] = 1.0; a[2 * i + 1] = 2.0; }" in
  check "odd/even writes parallel" true v.Dependence.parallel

(* ---- trip count analysis: loop statistics of the profiled run ---- *)

let test_tripcount_dynamic () =
  let p = parse "int main() { int s = 0; for (int i = 0; i < 12; i++) { s += i; } return s; }" in
  let result = Memo.run ~config:(Memo.analysis_config ()) p in
  match Query.loops p with
  | [ lm ] ->
    let stats = Option.get (Machine.find_loop_stats result lm.Query.lm_stmt.Ast.sid) in
    checki "iterations" 12 stats.Machine.ls_iterations;
    checki "entries" 1 stats.Machine.ls_entries;
    check "static agrees" true
      (Dependence.static_trip_count (Consteval.of_program p) lm.Query.lm_header = Some 12)
  | _ -> Alcotest.fail "one loop expected"

(* ---- hotspot ---- *)

let hot_src =
  "int main() {\n\
   double a[64];\n\
   double out[64];\n\
   for (int i = 0; i < 64; i++) { a[i] = rand01(); }\n\
   for (int i = 0; i < 64; i++) { double t = 0.0; for (int j = 0; j < 64; j++) { t += a[i] * a[j]; } out[i] = t; }\n\
   double s = 0.0;\n\
   for (int i = 0; i < 64; i++) { s += out[i]; }\n\
   print_float(s);\n\
   return 0; }"

let test_hotspot_detect_ranks () =
  let p = parse hot_src in
  match Hotspot.detect p with
  | h :: _ ->
    check "hottest covers most of run" true (h.Hotspot.hs_share > 0.5)
  | [] -> Alcotest.fail "no hotspots"

let test_hotspot_extract () =
  let p = parse hot_src in
  (* pick the hottest depth-0 loop: the O(n^2) nest *)
  let h =
    List.find (fun (h : Hotspot.hotspot) -> h.hs_depth = 0 && h.hs_share > 0.5)
      (Hotspot.detect p)
  in
  match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
  | Error e -> Alcotest.fail e
  | Ok ex ->
    check "kernel exists" true (Ast.find_func ex.Hotspot.ex_program "knl" <> None);
    (* the extracted program must behave identically *)
    let r1 = Machine.run p in
    let r2 = Machine.run ex.Hotspot.ex_program in
    Alcotest.(check (list string)) "same output" r1.Machine.output r2.Machine.output

let test_hotspot_extract_scalar_write_rejected () =
  let p =
    parse
      "int main() { double s = 0.0; for (int i = 0; i < 9; i++) { s += (double)i; } print_float(s); return 0; }"
  in
  let h = List.hd (Hotspot.detect p) in
  match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "extraction of scalar-writing loop must fail"

let test_hotspot_extract_globals_not_params () =
  let p =
    parse
      "const int N = 16;\n\
       int main() { double a[N]; for (int i = 0; i < N; i++) { a[i] = 1.0; } print_float(a[0]); return 0; }"
  in
  let h = List.hd (Hotspot.detect p) in
  match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
  | Error e -> Alcotest.fail e
  | Ok ex ->
    check "N stays global" true
      (List.for_all (fun (q : Ast.param) -> q.prm_name <> "N") ex.Hotspot.ex_params)

(* ---- intensity ---- *)

let test_intensity_flop_equiv () =
  let c = Counters.create () in
  c.Counters.flops_dp_add <- 10;
  c.Counters.flops_dp_div <- 1;
  c.Counters.flops_dp_special <- 1;
  Alcotest.(check (float 1e-9)) "weighted" 38.0 (Intensity.flop_equiv c)

(* ---- data in/out and aliasing: the kernel profile ---- *)

let dio_src =
  "void knl(double* src, double* dst, int n) { for (int i = 0; i < n; i++) { dst[i] = src[i]; } }\n\
   int main() { double a[32]; double b[32]; for (int i = 0; i < 32; i++) { a[i] = 1.0; } knl(a, b, 32); print_float(b[5]); return 0; }"

let dio_profile p =
  match Kprofile.collect p ~kernel:"knl" with
  | Ok kp -> kp
  | Error e -> Alcotest.fail e

let test_datainout () =
  let kp = dio_profile (parse dio_src) in
  checki "in bytes" 256 kp.Kprofile.kp_bytes_in;
  checki "out bytes" 256 kp.Kprofile.kp_bytes_out;
  checki "invocations" 1 kp.Kprofile.kp_invocations

let test_transfer_time () =
  let kp = dio_profile (parse dio_src) in
  let link = { Transfer.link_name = "1 GB/s"; bw_gbs = 1.0; latency_us = 0.0 } in
  let t =
    Transfer.time_s link
      ~bytes:(kp.Kprofile.kp_bytes_in + kp.Kprofile.kp_bytes_out)
      ~transactions:(2 * kp.Kprofile.kp_invocations)
  in
  Alcotest.(check (float 1e-12)) "512B at 1GB/s" 5.12e-07 t

let test_alias_mark_restrict () =
  let p = parse dio_src in
  check "no alias observed" true (dio_profile p).Kprofile.kp_no_alias;
  let p = Alias.mark_restrict p ~fname:"knl" in
  let fn = Option.get (Ast.find_func p "knl") in
  check "pointers restrict" true
    (List.for_all
       (fun (q : Ast.param) ->
         match q.prm_ty with Ast.Tptr _ -> q.prm_restrict | _ -> true)
       fn.Ast.fparams)

(* ---- scalarize ---- *)

let scal_src =
  "void knl(double* acc, double* b, int n) {\n\
   for (int i = 0; i < n; i++) {\n\
   acc[i] = 0.0;\n\
   for (int j = 0; j < n; j++) { acc[i] += b[j]; }\n\
   }\n\
   }\n\
   int main() { double acc[8]; double b[8]; for (int i = 0; i < 8; i++) { b[i] = (double)i; } knl(acc, b, 8); print_float(acc[3]); return 0; }"

let test_scalarize_candidates () =
  let p = parse scal_src in
  let fn = Option.get (Ast.find_func p "knl") in
  let inner = List.hd (Query.inner_loops (List.hd (Query.outermost_loops fn))) in
  let cands = Scalarize.candidates p ~loop_sid:inner.Query.lm_stmt.Ast.sid in
  checki "one candidate" 1 (List.length cands);
  check "targets acc" true ((List.hd cands).Scalarize.ca_array = "acc")

let test_scalarize_apply_semantics () =
  let p = parse scal_src in
  let fn = Option.get (Ast.find_func p "knl") in
  let inner = List.hd (Query.inner_loops (List.hd (Query.outermost_loops fn))) in
  let p' = Scalarize.apply p ~loop_sid:inner.Query.lm_stmt.Ast.sid in
  let r1 = Machine.run p and r2 = Machine.run p' in
  Alcotest.(check (list string)) "same result" r1.Machine.output r2.Machine.output;
  (* and the inner loop must now be a scalar reduction *)
  let fn' = Option.get (Ast.find_func p' "knl") in
  let inner' = List.hd (Query.inner_loops (List.hd (Query.outermost_loops fn'))) in
  let v = Dependence.analyse_loop p' inner' in
  check "scalar reduction after" true
    (List.exists (fun (r : Dependence.reduction) -> not r.red_is_array)
       v.Dependence.reductions)

let test_scalarize_reduces_memory_traffic () =
  let p = parse scal_src in
  let fn = Option.get (Ast.find_func p "knl") in
  let inner = List.hd (Query.inner_loops (List.hd (Query.outermost_loops fn))) in
  let p' = Scalarize.apply p ~loop_sid:inner.Query.lm_stmt.Ast.sid in
  let r1 = Machine.run p and r2 = Machine.run p' in
  check "fewer stores after scalarisation" true
    (r2.Machine.counters.Counters.stores < r1.Machine.counters.Counters.stores)

let test_scalarize_no_candidates_noop () =
  let p = parse dio_src in
  let lm = List.hd (Query.loops p) in
  let p' = Scalarize.apply p ~loop_sid:lm.Query.lm_stmt.Ast.sid in
  Alcotest.(check string) "unchanged" (Pretty.program_to_string p) (Pretty.program_to_string p')

let suite =
  [
    Alcotest.test_case "consteval globals" `Quick test_consteval_globals;
    Alcotest.test_case "consteval non-const" `Quick test_consteval_non_const_excluded;
    Alcotest.test_case "consteval exprs" `Quick test_consteval_exprs;
    Alcotest.test_case "consteval ternary" `Quick test_consteval_ternary;
    Alcotest.test_case "affine simple" `Quick test_affine_simple;
    Alcotest.test_case "affine const coeff" `Quick test_affine_const_coeff;
    Alcotest.test_case "affine invariant" `Quick test_affine_invariant;
    Alcotest.test_case "affine linear_plus" `Quick test_affine_linear_plus;
    Alcotest.test_case "affine unknown" `Quick test_affine_unknown;
    Alcotest.test_case "affine mentions" `Quick test_affine_mentions;
    Alcotest.test_case "dep parallel map" `Quick test_dep_parallel_map;
    Alcotest.test_case "dep carried distance" `Quick test_dep_carried_distance;
    Alcotest.test_case "dep same index ok" `Quick test_dep_same_index_ok;
    Alcotest.test_case "dep scalar reduction" `Quick test_dep_scalar_reduction;
    Alcotest.test_case "dep set-form reduction" `Quick test_dep_set_form_reduction;
    Alcotest.test_case "dep scalar carried" `Quick test_dep_scalar_carried;
    Alcotest.test_case "dep private scalar" `Quick test_dep_private_scalar_ok;
    Alcotest.test_case "dep private array" `Quick test_dep_private_array_ok;
    Alcotest.test_case "dep array reduction" `Quick test_dep_array_reduction;
    Alcotest.test_case "dep fixed element write" `Quick test_dep_fixed_element_write;
    Alcotest.test_case "dep flattened 2d" `Quick test_dep_flattened_2d;
    Alcotest.test_case "dep flattened 2d overflow" `Quick test_dep_flattened_2d_overflow;
    Alcotest.test_case "dep non-affine conservative" `Quick test_dep_nonaffine_conservative;
    Alcotest.test_case "dep gather read ok" `Quick test_dep_gather_read_ok;
    Alcotest.test_case "static trip count" `Quick test_static_trip_count;
    Alcotest.test_case "range_of" `Quick test_range_of;
    Alcotest.test_case "affine negative coeff" `Quick test_affine_negative_coeff;
    Alcotest.test_case "affine invariant sub" `Quick test_affine_sub_of_invariants;
    Alcotest.test_case "dep write-write distance" `Quick test_dep_write_write_distance;
    Alcotest.test_case "dep strided disjoint writes" `Quick test_dep_disjoint_strided_writes;
    Alcotest.test_case "tripcount dynamic" `Quick test_tripcount_dynamic;
    Alcotest.test_case "hotspot detect" `Quick test_hotspot_detect_ranks;
    Alcotest.test_case "hotspot extract" `Quick test_hotspot_extract;
    Alcotest.test_case "hotspot scalar write rejected" `Quick test_hotspot_extract_scalar_write_rejected;
    Alcotest.test_case "hotspot globals not params" `Quick test_hotspot_extract_globals_not_params;
    Alcotest.test_case "intensity flop equiv" `Quick test_intensity_flop_equiv;
    Alcotest.test_case "data in/out" `Quick test_datainout;
    Alcotest.test_case "transfer time" `Quick test_transfer_time;
    Alcotest.test_case "alias mark restrict" `Quick test_alias_mark_restrict;
    Alcotest.test_case "scalarize candidates" `Quick test_scalarize_candidates;
    Alcotest.test_case "scalarize semantics" `Quick test_scalarize_apply_semantics;
    Alcotest.test_case "scalarize reduces traffic" `Quick test_scalarize_reduces_memory_traffic;
    Alcotest.test_case "scalarize noop" `Quick test_scalarize_no_candidates_noop;
  ]
