(* Tests for the code generators and optimising transforms: OpenMP, HIP,
   oneAPI, SP pipeline, shared-memory tiling, pinned memory, zero-copy,
   unroll annotations.  Every generated design must stay runnable and
   functionally equivalent to its reference. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let parse = Parser.parse_program

(* a reference program with an already-extracted kernel *)
let base_src =
  "const int N = 24;\n\
   void knl(const double* xs, double* out, int n) {\n\
   for (int i = 0; i < n; i++) {\n\
   double acc = 0.0;\n\
   for (int j = 0; j < n; j++) { acc += xs[j] * 0.5; }\n\
   out[i] = sqrt(acc + (double)i);\n\
   }\n\
   }\n\
   int main() {\n\
   double xs[N]; double out[N];\n\
   for (int i = 0; i < N; i++) { xs[i] = rand01(); }\n\
   knl(xs, out, N);\n\
   double s = 0.0;\n\
   for (int i = 0; i < N; i++) { s += out[i]; }\n\
   print_float(s);\n\
   return 0; }"

let reference_output src = (Machine.run (parse src)).Machine.output

let close_outputs ?(tol = 1e-3) a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match float_of_string_opt x, float_of_string_opt y with
         | Some fx, Some fy ->
           Float.abs (fx -. fy) /. Float.max 1.0 (Float.abs fx) <= tol
         | _, _ -> x = y)
       a b

(* ---- OpenMP ---- *)

let test_openmp_generate () =
  let p = parse base_src in
  match Openmp.generate p ~kernel:"knl" with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let lm = Option.get (Query.find_loop r.Openmp.omp_program r.Openmp.omp_loop_sid) in
    check "omp pragma present" true
      (List.exists (fun (pr : Ast.pragma) -> pr.pname = "omp") lm.Query.lm_stmt.Ast.pragmas);
    (* semantics unchanged *)
    Alcotest.(check (list string)) "same output" (reference_output base_src)
      (Machine.run r.Openmp.omp_program).Machine.output

let test_openmp_reduction_clause () =
  let src =
    "void knl(double* a, double* out, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }\n\
     int main() { double a[8]; double out[1]; for (int i = 0; i < 8; i++) { a[i] = 1.0; } knl(a, out, 8); print_float(out[0]); return 0; }"
  in
  let p = parse src in
  match Openmp.generate p ~kernel:"knl" with
  | Error e -> Alcotest.fail e
  | Ok r -> check "reduction clause" true (r.Openmp.omp_reductions = [ "+:s" ])

let test_openmp_rejects_carried () =
  let src =
    "void knl(double* a, int n) { for (int i = 1; i < n; i++) { a[i] = a[i - 1]; } }\n\
     int main() { double a[4]; a[0] = 1.0; knl(a, 4); print_float(a[3]); return 0; }"
  in
  match Openmp.generate (parse src) ~kernel:"knl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "carried loop must be rejected"

let test_openmp_num_threads_roundtrip () =
  let p = parse base_src in
  let r = Result.get_ok (Openmp.generate p ~kernel:"knl") in
  let p = Openmp.set_num_threads r.Openmp.omp_program ~kernel:"knl" ~threads:16 in
  check "threads readable" true (Openmp.num_threads p ~kernel:"knl" = Some 16);
  let p = Openmp.set_num_threads p ~kernel:"knl" ~threads:32 in
  check "threads replaced" true (Openmp.num_threads p ~kernel:"knl" = Some 32)

(* ---- HIP ---- *)

let hip_design () =
  match Hip.generate (parse base_src) ~kernel:"knl" with
  | Error e -> Alcotest.fail e
  | Ok r -> r

let test_hip_structure () =
  let r = hip_design () in
  check "body fn" true (Ast.find_func r.Hip.hip_program r.Hip.hip_body_fn <> None);
  check "launch fn" true (Ast.find_func r.Hip.hip_program r.Hip.hip_launch_fn <> None);
  check "manage keeps name" true (r.Hip.hip_manage_fn = "knl");
  check "written arrays" true (r.Hip.hip_written_arrays = [ "out" ])

let test_hip_runs_equivalent () =
  let r = hip_design () in
  (* generation itself does not demote precision, so outputs match exactly *)
  Alcotest.(check (list string)) "hip design output" (reference_output base_src)
    (Machine.run r.Hip.hip_program).Machine.output

let test_hip_blocksize_annotation () =
  let r = hip_design () in
  check "default blocksize" true
    (Hip.blocksize r.Hip.hip_program ~launch_fn:r.Hip.hip_launch_fn = Some 256);
  let p = Hip.set_blocksize r.Hip.hip_program ~launch_fn:r.Hip.hip_launch_fn 512 in
  check "set blocksize" true (Hip.blocksize p ~launch_fn:r.Hip.hip_launch_fn = Some 512)

let test_hip_pinned () =
  let r = hip_design () in
  check "not pinned initially" false (Hip.is_pinned r.Hip.hip_program ~manage_fn:"knl");
  let p = Hip.employ_pinned r.Hip.hip_program ~manage_fn:"knl" in
  check "pinned after task" true (Hip.is_pinned p ~manage_fn:"knl")

let test_hip_rejects_scalar_reduction () =
  let src =
    "void knl(double* a, double* out, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; } out[0] = s; }\n\
     int main() { double a[4]; double out[1]; knl(a, out, 4); print_float(out[0]); return 0; }"
  in
  match Hip.generate (parse src) ~kernel:"knl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scalar reduction needs atomics: must be rejected"

let test_hip_loc_grows () =
  let r = hip_design () in
  check "hip adds code" true
    (Loc_count.added_pct
       ~reference_loc:(Loc_count.program_loc (parse base_src))
       ~design:r.Hip.hip_program
     > 10.0)

(* ---- SP transforms ---- *)

let test_sp_math_fns () =
  let r = hip_design () in
  let p = Sp_transforms.sp_math_fns r.Hip.hip_program ~fnames:[ r.Hip.hip_body_fn ] in
  let fn = Option.get (Ast.find_func p r.Hip.hip_body_fn) in
  let text = Pretty.func_to_string fn in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "sqrtf used" true (contains "sqrtf(" text);
  check "sqrt( gone" false
    (contains " sqrt(" text)

let test_sp_literals_and_types () =
  let r = hip_design () in
  let p = Sp_transforms.apply_all r.Hip.hip_program ~fnames:[ r.Hip.hip_body_fn ] in
  let fn = Option.get (Ast.find_func p r.Hip.hip_body_fn) in
  check "params demoted" true
    (List.for_all
       (fun (q : Ast.param) ->
         match q.prm_ty with
         | Ast.Tptr Ast.Tdouble | Ast.Tdouble -> false
         | _ -> true)
       fn.Ast.fparams);
  (* still runs, close to reference *)
  let out = (Machine.run p).Machine.output in
  check "sp output close" true (close_outputs (reference_output base_src) out)

let test_sp_kernel_counts_sp_flops () =
  let r = hip_design () in
  let p = Sp_transforms.apply_all r.Hip.hip_program ~fnames:[ r.Hip.hip_body_fn ] in
  (* demote the device buffers as the flow does *)
  let run = Machine.run p in
  check "sp flops appear" true (Counters.flops_sp run.Machine.counters > 0)

(* ---- specialised math ---- *)

let test_specialized_rsqrt () =
  let src =
    "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1.0 / sqrt((double)i + 1.0); } }\n\
     int main() { double a[4]; knl(a, 4); print_float(a[3]); return 0; }"
  in
  let p = parse src in
  checki "one site" 1 (Specialized_math.rsqrt_sites p ~fname:"knl");
  let p' = Specialized_math.apply p ~fnames:[ "knl" ] in
  checki "rewritten away" 0 (Specialized_math.rsqrt_sites p' ~fname:"knl");
  Alcotest.(check (list string)) "same numerics"
    (Machine.run p).Machine.output (Machine.run p').Machine.output

(* ---- shared memory ---- *)

let test_shared_mem_candidates_and_apply () =
  let r = hip_design () in
  (match Shared_mem.candidate_arrays r.Hip.hip_program ~body_fn:r.Hip.hip_body_fn with
   | Some (_, arrays) -> check "xs is a candidate" true (List.mem "xs" arrays)
   | None -> Alcotest.fail "expected candidates");
  match Shared_mem.apply r.Hip.hip_program ~body_fn:r.Hip.hip_body_fn with
  | Error e -> Alcotest.fail e
  | Ok applied ->
    check "tile pragma present" true
      (let fn = Option.get (Ast.find_func applied.Shared_mem.sm_program r.Hip.hip_body_fn) in
       List.exists
         (fun (lm : Query.loop_match) ->
           List.exists (fun (pr : Ast.pragma) -> List.mem "shared_tiling" pr.Ast.pargs)
             lm.lm_stmt.Ast.pragmas)
         (Query.loops_in_func fn));
    Alcotest.(check (list string)) "tiling preserves semantics"
      (reference_output base_src)
      (Machine.run applied.Shared_mem.sm_program).Machine.output

let test_shared_mem_no_candidate () =
  let src =
    "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1.0; } }\n\
     int main() { double a[4]; knl(a, 4); print_float(a[0]); return 0; }"
  in
  check "no candidates in write-only kernel" true
    (Shared_mem.candidate_arrays (parse src) ~body_fn:"knl" = None)

(* ---- oneAPI ---- *)

let oneapi_design () =
  match Oneapi.generate (parse base_src) ~kernel:"knl" with
  | Error e -> Alcotest.fail e
  | Ok r -> r

let test_oneapi_structure () =
  let r = oneapi_design () in
  check "kernel fn" true (Ast.find_func r.Oneapi.oneapi_program r.Oneapi.oneapi_kernel_fn <> None);
  check "single_task pragma" true
    (let fn = Option.get (Ast.find_func r.Oneapi.oneapi_program r.Oneapi.oneapi_kernel_fn) in
     List.exists
       (fun (lm : Query.loop_match) ->
         List.exists (fun (pr : Ast.pragma) -> List.mem "single_task" pr.Ast.pargs)
           lm.lm_stmt.Ast.pragmas)
       (Query.loops_in_func fn))

let test_oneapi_runs_equivalent () =
  let r = oneapi_design () in
  (* generation alone does not change precision: outputs match exactly *)
  Alcotest.(check (list string)) "oneapi design output" (reference_output base_src)
    (Machine.run r.Oneapi.oneapi_program).Machine.output

let test_oneapi_unroll_fixed_inner () =
  (* the fixed inner loop of this kernel gets #pragma unroll *)
  let src =
    "const int M = 4;\n\
     void knl(double* a, int n) { for (int i = 0; i < n; i++) { double s = 0.0; for (int k = 0; k < M; k++) { s += (double)k; } a[i] = s; } }\n\
     int main() { double a[4]; knl(a, 4); print_float(a[0]); return 0; }"
  in
  let r = Result.get_ok (Oneapi.generate (parse src) ~kernel:"knl") in
  let prog = Unroll.unroll_fixed_inner r.Oneapi.oneapi_program ~kernel:r.Oneapi.oneapi_kernel_fn in
  let fn = Option.get (Ast.find_func prog r.Oneapi.oneapi_kernel_fn) in
  let inner = Query.inner_loops (List.hd (Query.outermost_loops fn)) in
  check "inner annotated" true
    (List.exists
       (fun (lm : Query.loop_match) ->
         List.exists (fun (pr : Ast.pragma) -> pr.Ast.pname = "unroll") lm.lm_stmt.Ast.pragmas)
       inner)

let test_oneapi_outer_unroll_roundtrip () =
  let r = oneapi_design () in
  let p = Unroll.set_outer_unroll r.Oneapi.oneapi_program ~kernel:r.Oneapi.oneapi_kernel_fn ~factor:8 in
  checki "factor read back" 8 (Unroll.outer_unroll_factor p ~kernel:r.Oneapi.oneapi_kernel_fn);
  let p = Unroll.set_outer_unroll p ~kernel:r.Oneapi.oneapi_kernel_fn ~factor:16 in
  checki "factor replaced" 16 (Unroll.outer_unroll_factor p ~kernel:r.Oneapi.oneapi_kernel_fn)

let test_oneapi_zero_copy () =
  let r = oneapi_design () in
  let p =
    Oneapi.employ_zero_copy r.Oneapi.oneapi_program ~manage_fn:"knl"
      ~kernel_fn:r.Oneapi.oneapi_kernel_fn
  in
  check "zero copy annotated" true (Oneapi.is_zero_copy p ~kernel_fn:r.Oneapi.oneapi_kernel_fn);
  (* the zero-copy design must still run and produce identical output *)
  Alcotest.(check (list string)) "still equivalent" (reference_output base_src)
    (Machine.run p).Machine.output;
  (* its management code must be leaner than the buffered version *)
  check "fewer lines than buffered" true
    (Loc_count.program_loc p < Loc_count.program_loc r.Oneapi.oneapi_program)

let test_oneapi_loc_exceeds_hip () =
  let hip = hip_design () in
  let one = oneapi_design () in
  let reference_loc = Loc_count.program_loc (parse base_src) in
  check "both add code" true
    (Loc_count.added_pct ~reference_loc ~design:hip.Hip.hip_program > 5.0
     && Loc_count.added_pct ~reference_loc ~design:one.Oneapi.oneapi_program > 5.0)

(* ---- buffers ---- *)

let test_buffers_length_resolution () =
  let p = parse base_src in
  check "xs length found" true (Buffers.length_expr_of_array p "xs" <> None);
  check "unknown array" true (Buffers.length_expr_of_array p "nope" = None)

let test_buffers_reject_scope_dependent () =
  let src =
    "void f(int m) { double a[m * 2]; a[0] = 1.0; }\nint main() { f(3); return 0; }"
  in
  check "local-size arrays rejected" true
    (Buffers.length_expr_of_array (parse src) "a" = None)

let suite =
  [
    Alcotest.test_case "openmp generate" `Quick test_openmp_generate;
    Alcotest.test_case "openmp reduction clause" `Quick test_openmp_reduction_clause;
    Alcotest.test_case "openmp rejects carried" `Quick test_openmp_rejects_carried;
    Alcotest.test_case "openmp num_threads" `Quick test_openmp_num_threads_roundtrip;
    Alcotest.test_case "hip structure" `Quick test_hip_structure;
    Alcotest.test_case "hip runs equivalent" `Quick test_hip_runs_equivalent;
    Alcotest.test_case "hip blocksize annotation" `Quick test_hip_blocksize_annotation;
    Alcotest.test_case "hip pinned" `Quick test_hip_pinned;
    Alcotest.test_case "hip rejects scalar reduction" `Quick test_hip_rejects_scalar_reduction;
    Alcotest.test_case "hip loc grows" `Quick test_hip_loc_grows;
    Alcotest.test_case "sp math fns" `Quick test_sp_math_fns;
    Alcotest.test_case "sp literals+types" `Quick test_sp_literals_and_types;
    Alcotest.test_case "sp kernel counts sp flops" `Quick test_sp_kernel_counts_sp_flops;
    Alcotest.test_case "specialised rsqrt" `Quick test_specialized_rsqrt;
    Alcotest.test_case "shared mem apply" `Quick test_shared_mem_candidates_and_apply;
    Alcotest.test_case "shared mem no candidate" `Quick test_shared_mem_no_candidate;
    Alcotest.test_case "oneapi structure" `Quick test_oneapi_structure;
    Alcotest.test_case "oneapi runs equivalent" `Quick test_oneapi_runs_equivalent;
    Alcotest.test_case "oneapi unroll fixed inner" `Quick test_oneapi_unroll_fixed_inner;
    Alcotest.test_case "oneapi outer unroll" `Quick test_oneapi_outer_unroll_roundtrip;
    Alcotest.test_case "oneapi zero copy" `Quick test_oneapi_zero_copy;
    Alcotest.test_case "codegen loc comparison" `Quick test_oneapi_loc_exceeds_hip;
    Alcotest.test_case "buffer lengths" `Quick test_buffers_length_resolution;
    Alcotest.test_case "buffer scope-dependent rejected" `Quick test_buffers_reject_scope_dependent;
  ]
