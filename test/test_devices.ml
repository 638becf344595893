(* Tests for the device models: kernel profiles, static features, CPU/GPU/
   FPGA estimates and their monotonicity/shape properties. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let parse = Parser.parse_program

let simple_kernel_src =
  "const int M = 4;\n\
   void knl(double* a, double* b, int n) {\n\
   for (int i = 0; i < n; i++) {\n\
   double s = 0.0;\n\
   for (int k = 0; k < M; k++) { s += b[i] * (double)k; }\n\
   a[i] = sqrt(s + 1.0);\n\
   }\n\
   }\n\
   int main() { double a[32]; double b[32]; for (int i = 0; i < 32; i++) { b[i] = rand01(); } knl(a, b, 32); print_float(a[0]); return 0; }"

let simple_profile () =
  let p = parse simple_kernel_src in
  match Kprofile.collect p ~kernel:"knl" with
  | Ok kp -> (p, kp)
  | Error e -> Alcotest.fail e

let test_kprofile_basic () =
  let _, kp = simple_profile () in
  checki "outer trips" 32 kp.Kprofile.kp_outer_trips;
  checki "invocations" 1 kp.Kprofile.kp_invocations;
  check "outer parallel" true kp.Kprofile.kp_outer_parallel;
  checki "one inner loop" 1 (List.length kp.Kprofile.kp_inner);
  check "no alias" true kp.Kprofile.kp_no_alias

let test_kprofile_inner_structure () =
  let _, kp = simple_profile () in
  let il = List.hd kp.Kprofile.kp_inner in
  check "inner static trips" true (il.Kprofile.il_static_trips = Some 4);
  check "inner unrollable" true il.Kprofile.il_fully_unrollable;
  check "inner fp reduction" true il.Kprofile.il_fp_reduction;
  Alcotest.(check (float 1e-9)) "iters per outer" 4.0 il.Kprofile.il_iters_per_outer

let test_kprofile_scale () =
  let _, kp = simple_profile () in
  let s = Kprofile.scale kp 8 in
  checki "trips scaled" 256 s.Kprofile.kp_outer_trips;
  checki "bytes in scaled" (8 * kp.Kprofile.kp_bytes_in) s.Kprofile.kp_bytes_in;
  checki "invocations unchanged" kp.Kprofile.kp_invocations s.Kprofile.kp_invocations;
  Alcotest.(check (float 1e-9)) "flops scale linearly"
    (8.0 *. Intensity.flop_equiv kp.Kprofile.kp_counters)
    (Intensity.flop_equiv s.Kprofile.kp_counters)

let test_kstatic_ops () =
  let p, _ = simple_profile () in
  match Kstatic.of_kernel p ~fname:"knl" with
  | Error e -> Alcotest.fail e
  | Ok ks ->
    (* the unrolled M=4 inner loop multiplies its body ops *)
    check "dp adds at least 4" true (ks.Kstatic.ks_ops.Kstatic.dp_addsub >= 4);
    checki "one sqrt" 1 ks.Kstatic.ks_ops.Kstatic.dp_sqrt;
    check "regs sane" true (ks.Kstatic.ks_regs_estimate > 16 && ks.ks_regs_estimate <= 255)

let test_kstatic_no_loop_with_thread_index () =
  let p = parse "void body(int i, double* a) { a[i] = 2.0 * (double)i; } int main() { double a[4]; body(1, a); print_float(a[1]); return 0; }" in
  (match Kstatic.of_kernel p ~fname:"body" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "loopless kernel should need thread_index");
  match Kstatic.of_kernel p ~fname:"body" ~thread_index:"i" with
  | Ok ks -> check "analysed" true (Kstatic.total_flop_sites ks.Kstatic.ks_ops >= 1)
  | Error e -> Alcotest.fail e

let test_kstatic_unroll_pragma_gate () =
  (* under the HLS view, a fixed-bound inner loop multiplies its body only
     when annotated #pragma unroll; otherwise it pipelines serially *)
  let p, _ = simple_profile () in
  let plain =
    Result.get_ok (Kstatic.of_kernel ~require_unroll_pragma:true p ~fname:"knl")
  in
  check "unannotated loop is serial" true (plain.Kstatic.ks_has_serial_inner <> None);
  let annotated = Unroll.unroll_fixed_inner p ~kernel:"knl" in
  let ks =
    Result.get_ok (Kstatic.of_kernel ~require_unroll_pragma:true annotated ~fname:"knl")
  in
  check "annotated loop unrolled" true (ks.Kstatic.ks_has_serial_inner = None);
  check "ops multiplied" true
    (Kstatic.total_flop_sites ks.Kstatic.ks_ops
     > Kstatic.total_flop_sites plain.Kstatic.ks_ops)

(* ---- CPU model ---- *)

let test_cpu_single_thread_positive () =
  let _, kp = simple_profile () in
  let e = Cpu_model.single_thread Device.epyc_7543 kp in
  check "positive time" true (e.Cpu_model.ce_time_s > 0.0);
  checki "one thread" 1 e.Cpu_model.ce_threads

let test_cpu_openmp_speedup () =
  let _, kp = simple_profile () in
  let kp = Kprofile.scale kp 50000 in
  let t1 = (Cpu_model.single_thread Device.epyc_7543 kp).Cpu_model.ce_time_s in
  let t32 = (Cpu_model.openmp Device.epyc_7543 ~threads:32 kp).Cpu_model.ce_time_s in
  let speedup = t1 /. t32 in
  check "speedup in 25..32" true (speedup > 25.0 && speedup <= 32.0)

let test_cpu_threads_monotone () =
  let _, kp = simple_profile () in
  let kp = Kprofile.scale kp 50000 in
  let t8 = (Cpu_model.openmp Device.epyc_7543 ~threads:8 kp).Cpu_model.ce_time_s in
  let t16 = (Cpu_model.openmp Device.epyc_7543 ~threads:16 kp).Cpu_model.ce_time_s in
  check "more threads faster" true (t16 < t8)

let test_cpu_dram_roofline () =
  (* a footprint beyond the LLC must add a memory term *)
  let c = Counters.create () in
  c.(Counters.bytes_loaded) <- 1_000_000_000;
  c.(Counters.loads) <- 125_000_000;
  let small =
    Cpu_model.time_of_counters Device.epyc_7543 c ~footprint_bytes:1024 ~threads:1
      ~parallel_regions:0
  in
  let large =
    Cpu_model.time_of_counters Device.epyc_7543 c
      ~footprint_bytes:(512 * 1024 * 1024) ~threads:1 ~parallel_regions:0
  in
  check "dram-bound slower" true (large.Cpu_model.ce_time_s > small.Cpu_model.ce_time_s);
  check "memory term present" true (large.Cpu_model.ce_memory_s > 0.0)

(* ---- GPU model ---- *)

let gpu_inputs () =
  let p, kp = simple_profile () in
  let ks = Result.get_ok (Kstatic.of_kernel p ~fname:"knl") in
  (ks, Kprofile.scale kp 4096)

let test_gpu_occupancy_blocks () =
  let spec = Device.gtx_1080_ti in
  checki "thread-limited" 8 (Gpu_model.occupancy spec ~regs_per_thread:32 ~blocksize:256 ~shared_bytes:0);
  checki "reg-limited" 1
    (Gpu_model.occupancy spec ~regs_per_thread:255 ~blocksize:256 ~shared_bytes:0);
  checki "unlaunchable blocksize" 0
    (Gpu_model.occupancy spec ~regs_per_thread:32 ~blocksize:2048 ~shared_bytes:0);
  checki "shared-limited" 2
    (Gpu_model.occupancy spec ~regs_per_thread:16 ~blocksize:64
       ~shared_bytes:(40 * 1024))

let test_gpu_estimate_positive () =
  let ks, kp = gpu_inputs () in
  let e = Gpu_model.estimate Device.rtx_2080_ti ks kp Gpu_model.default_params in
  check "launchable" true e.Gpu_model.ge_launchable;
  check "time positive" true (e.Gpu_model.ge_time_s > 0.0);
  check "occupancy in (0,1]" true (e.Gpu_model.ge_occupancy > 0.0 && e.ge_occupancy <= 1.0)

let test_gpu_pinned_faster_transfers () =
  let ks, kp = gpu_inputs () in
  let base = Gpu_model.default_params in
  let e1 = Gpu_model.estimate Device.rtx_2080_ti ks kp { base with Gpu_model.pinned = false } in
  let e2 = Gpu_model.estimate Device.rtx_2080_ti ks kp { base with Gpu_model.pinned = true } in
  check "pinned reduces transfer" true (e2.Gpu_model.ge_transfer_s < e1.Gpu_model.ge_transfer_s)

let test_gpu_shared_tiling_cuts_traffic () =
  let ks, kp = gpu_inputs () in
  let base = { Gpu_model.default_params with Gpu_model.blocksize = 256 } in
  let e1 = Gpu_model.estimate Device.rtx_2080_ti ks kp { base with Gpu_model.shared_tiling = false } in
  let e2 = Gpu_model.estimate Device.rtx_2080_ti ks kp { base with Gpu_model.shared_tiling = true } in
  check "tiling reduces memory time" true (e2.Gpu_model.ge_memory_s <= e1.Gpu_model.ge_memory_s)

let test_gpu_register_saturation_effect () =
  (* a 255-register kernel gets lower occupancy on the 1080 Ti's wider SMs:
     its hiding efficiency drops below the 2080 Ti's (the Rush Larsen effect) *)
  let ks, kp = gpu_inputs () in
  let ks = { ks with Kstatic.ks_regs_estimate = 255; ks_regs_raw = 300 } in
  let params = { Gpu_model.default_params with Gpu_model.blocksize = 256 } in
  let e1080 = Gpu_model.estimate Device.gtx_1080_ti ks kp params in
  let e2080 = Gpu_model.estimate Device.rtx_2080_ti ks kp params in
  check "1080 hides worse" true
    (e1080.Gpu_model.ge_hiding_efficiency < e2080.Gpu_model.ge_hiding_efficiency)

let test_gpu_spill_traffic () =
  let ks, kp = gpu_inputs () in
  let no_spill = { ks with Kstatic.ks_regs_raw = 100 } in
  let spill = { ks with Kstatic.ks_regs_raw = 400; ks_regs_estimate = 255 } in
  let e1 = Gpu_model.estimate Device.rtx_2080_ti no_spill kp Gpu_model.default_params in
  let e2 = Gpu_model.estimate Device.rtx_2080_ti spill kp Gpu_model.default_params in
  check "spilling adds memory time" true (e2.Gpu_model.ge_memory_s > e1.Gpu_model.ge_memory_s)

let test_gpu_wave_efficiency_small_grid () =
  let ks, kp = gpu_inputs () in
  let tiny = { kp with Kprofile.kp_outer_trips = 64 } in
  let e = Gpu_model.estimate Device.rtx_2080_ti ks tiny { Gpu_model.default_params with Gpu_model.blocksize = 64 } in
  check "small grid underutilises" true (e.Gpu_model.ge_wave_efficiency < 0.5)

(* ---- FPGA model ---- *)

let test_fpga_resources_scale_with_unroll () =
  let p, _ = simple_profile () in
  let ks = Result.get_ok (Kstatic.of_kernel p ~fname:"knl") in
  let r1 = Fpga_model.resources_of Device.pac_arria10 ks ~unroll:1 in
  let r4 = Fpga_model.resources_of Device.pac_arria10 ks ~unroll:4 in
  check "alms grow" true (r4.Fpga_model.r_alms > r1.Fpga_model.r_alms);
  check "shell counted once" true (r4.Fpga_model.r_alms < 4 * r1.Fpga_model.r_alms)

let test_fpga_unroll_speeds_up () =
  let ks, kp = gpu_inputs () in
  let e1 = Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 1; zero_copy = false } in
  let e4 = Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 4; zero_copy = false } in
  check "unroll reduces kernel time" true (e4.Fpga_model.fe_kernel_s < e1.Fpga_model.fe_kernel_s)

let test_fpga_overmap_flag () =
  let p, _ = simple_profile () in
  let ks = Result.get_ok (Kstatic.of_kernel p ~fname:"knl") in
  let huge = Fpga_model.estimate Device.pac_arria10 ks (snd (gpu_inputs ()))
      { Fpga_model.unroll = 100000; zero_copy = false } in
  check "overmap detected" true huge.Fpga_model.fe_overmapped;
  check "overmapped time infinite" true (huge.Fpga_model.fe_time_s = Float.infinity)

let test_fpga_zero_copy_only_on_usm () =
  let ks, kp = gpu_inputs () in
  let za =
    Fpga_model.estimate Device.pac_arria10 ks kp { Fpga_model.unroll = 1; zero_copy = true }
  in
  let zs =
    Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 1; zero_copy = true }
  in
  let ns =
    Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 1; zero_copy = false }
  in
  (* on the A10 (no USM) zero_copy must not change the additive model *)
  let za_plain =
    Fpga_model.estimate Device.pac_arria10 ks kp { Fpga_model.unroll = 1; zero_copy = false }
  in
  Alcotest.(check (float 1e-12)) "a10 unaffected" za_plain.Fpga_model.fe_time_s za.Fpga_model.fe_time_s;
  check "s10 zero-copy no slower" true (zs.Fpga_model.fe_time_s <= ns.Fpga_model.fe_time_s)

let test_fpga_serial_inner_raises_ii () =
  (* a kernel with a dynamic-bound inner reduction pipelines serially *)
  let src =
    "void knl(double* a, double* b, int n) {\n\
     for (int i = 0; i < n; i++) { double s = 0.0; for (int j = 0; j < n; j++) { s += b[j]; } a[i] = s; }\n\
     }\n\
     int main() { double a[16]; double b[16]; for (int i = 0; i < 16; i++) { b[i] = 1.0; } knl(a, b, 16); print_float(a[0]); return 0; }"
  in
  let p = parse src in
  let kp = Result.get_ok (Kprofile.collect p ~kernel:"knl") in
  let ks = Result.get_ok (Kstatic.of_kernel p ~fname:"knl") in
  check "serial inner recorded" true (ks.Kstatic.ks_has_serial_inner <> None);
  let e = Fpga_model.estimate Device.pac_arria10 ks kp Fpga_model.default_params in
  check "II well above 1" true (e.Fpga_model.fe_ii > 10.0)

let test_fpga_congestion_derates_clock () =
  let ks, kp = gpu_inputs () in
  (* compare cycle time at low vs near-threshold utilisation via unroll *)
  let e1 = Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 1; zero_copy = false } in
  let e8 = Fpga_model.estimate Device.pac_stratix10 ks kp { Fpga_model.unroll = 8; zero_copy = false } in
  (* 8x unroll must be less than 8x faster because congestion derates fmax *)
  check "sub-linear scaling" true
    (e1.Fpga_model.fe_kernel_s /. e8.Fpga_model.fe_kernel_s < 8.0)

(* ---- transfer ---- *)

let test_transfer_model () =
  let link = { Transfer.link_name = "x"; bw_gbs = 1.0; latency_us = 100.0 } in
  Alcotest.(check (float 1e-12)) "bytes + latency" 0.0011
    (Transfer.time_s link ~bytes:1_000_000 ~transactions:1)

let suite =
  [
    Alcotest.test_case "kprofile basic" `Quick test_kprofile_basic;
    Alcotest.test_case "kprofile inner structure" `Quick test_kprofile_inner_structure;
    Alcotest.test_case "kprofile scale" `Quick test_kprofile_scale;
    Alcotest.test_case "kstatic ops" `Quick test_kstatic_ops;
    Alcotest.test_case "kstatic loopless body" `Quick test_kstatic_no_loop_with_thread_index;
    Alcotest.test_case "kstatic unroll pragma gate" `Quick test_kstatic_unroll_pragma_gate;
    Alcotest.test_case "cpu single thread" `Quick test_cpu_single_thread_positive;
    Alcotest.test_case "cpu openmp speedup" `Quick test_cpu_openmp_speedup;
    Alcotest.test_case "cpu threads monotone" `Quick test_cpu_threads_monotone;
    Alcotest.test_case "cpu dram roofline" `Quick test_cpu_dram_roofline;
    Alcotest.test_case "gpu occupancy" `Quick test_gpu_occupancy_blocks;
    Alcotest.test_case "gpu estimate" `Quick test_gpu_estimate_positive;
    Alcotest.test_case "gpu pinned transfers" `Quick test_gpu_pinned_faster_transfers;
    Alcotest.test_case "gpu shared tiling" `Quick test_gpu_shared_tiling_cuts_traffic;
    Alcotest.test_case "gpu register saturation" `Quick test_gpu_register_saturation_effect;
    Alcotest.test_case "gpu spill traffic" `Quick test_gpu_spill_traffic;
    Alcotest.test_case "gpu wave efficiency" `Quick test_gpu_wave_efficiency_small_grid;
    Alcotest.test_case "fpga resources scale" `Quick test_fpga_resources_scale_with_unroll;
    Alcotest.test_case "fpga unroll speeds up" `Quick test_fpga_unroll_speeds_up;
    Alcotest.test_case "fpga overmap" `Quick test_fpga_overmap_flag;
    Alcotest.test_case "fpga zero-copy usm only" `Quick test_fpga_zero_copy_only_on_usm;
    Alcotest.test_case "fpga serial inner II" `Quick test_fpga_serial_inner_raises_ii;
    Alcotest.test_case "fpga congestion" `Quick test_fpga_congestion_derates_clock;
    Alcotest.test_case "transfer model" `Quick test_transfer_model;
  ]
