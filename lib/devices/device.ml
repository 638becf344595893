type cpu_spec = {
  cpu_name : string;
  cores : int;
  freq_ghz : float;
  cyc_per_flop_addmul : float;
  cyc_per_flop_div : float;
  cyc_per_flop_special : float;
  cyc_per_int_op : float;
  cyc_per_mem_op : float;
  dram_bw_gbs : float;
  core_bw_gbs : float;
  llc_bytes : int;
  cache_bw_core_gbs : float;
  omp_fork_us : float;
  omp_efficiency : float;
}

type gpu_spec = {
  gpu_name : string;
  sms : int;
  cores_per_sm : int;
  freq_ghz : float;
  regs_per_sm : int;
  max_regs_per_thread : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  shared_mem_per_sm : int;
  sp_flops_per_cycle_per_sm : float;
  dp_ratio : float;
  sfu_per_sm : int;
  mem_bw_gbs : float;
  l2_bytes : int;
  l2_bw_gbs : float;
  latency_hiding_threads_per_core : float;
  launch_overhead_us : float;
  pcie_pageable_gbs : float;
  pcie_pinned_gbs : float;
  pcie_latency_us : float;
}

type fpga_spec = {
  fpga_name : string;
  alms : int;
  dsps : int;
  m20ks : int;
  fmax_mhz : float;
  ddr_bw_gbs : float;
  usm_zero_copy : bool;
  shell_alm_frac : float;
  shell_dsp_frac : float;
  fadd_latency : int;
  pipeline_depth : int;
  fpga_pcie_gbs : float;
  fpga_pcie_latency_us : float;
  reconfig_overhead_ms : float;
}

let epyc_7543 =
  {
    cpu_name = "AMD EPYC 7543 (32c @ 2.8GHz)";
    cores = 32;
    freq_ghz = 2.8;
    (* scalar, unoptimised reference code: roughly one dependent FP op per
       cycle, microcoded division, library transcendentals *)
    cyc_per_flop_addmul = 0.7;
    cyc_per_flop_div = 14.0;
    cyc_per_flop_special = 25.0;
    cyc_per_int_op = 0.35;
    cyc_per_mem_op = 0.6;
    dram_bw_gbs = 190.0;
    core_bw_gbs = 22.0;
    llc_bytes = 256 * 1024 * 1024;
    cache_bw_core_gbs = 60.0;
    omp_fork_us = 6.0;
    omp_efficiency = 0.92;
  }

let gtx_1080_ti =
  {
    gpu_name = "NVIDIA GeForce GTX 1080 Ti";
    sms = 28;
    cores_per_sm = 128;
    freq_ghz = 1.58;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    shared_mem_per_sm = 96 * 1024;
    (* achieved rates for compiler-generated kernels (~0.4 of peak) *)
    sp_flops_per_cycle_per_sm = 96.0;
    dp_ratio = 1.0 /. 32.0;
    sfu_per_sm = 20;
    mem_bw_gbs = 484.0;
    l2_bytes = 2816 * 1024;
    l2_bw_gbs = 1200.0;
    latency_hiding_threads_per_core = 3.0;
    launch_overhead_us = 6.0;
    pcie_pageable_gbs = 4.0;
    pcie_pinned_gbs = 7.0;
    pcie_latency_us = 12.0;
  }

let rtx_2080_ti =
  {
    gpu_name = "NVIDIA GeForce RTX 2080 Ti";
    sms = 68;
    cores_per_sm = 64;
    freq_ghz = 1.545;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    max_threads_per_sm = 1024;
    max_blocks_per_sm = 16;
    shared_mem_per_sm = 64 * 1024;
    sp_flops_per_cycle_per_sm = 48.0;
    dp_ratio = 1.0 /. 32.0;
    sfu_per_sm = 10;
    mem_bw_gbs = 616.0;
    l2_bytes = 5632 * 1024;
    l2_bw_gbs = 2200.0;
    latency_hiding_threads_per_core = 3.0;
    launch_overhead_us = 5.0;
    pcie_pageable_gbs = 4.0;
    pcie_pinned_gbs = 7.5;
    pcie_latency_us = 12.0;
  }

let pac_arria10 =
  {
    fpga_name = "Intel PAC Arria 10 GX";
    alms = 427_200;
    dsps = 1518;
    m20ks = 2713;
    fmax_mhz = 240.0;
    ddr_bw_gbs = 34.0;
    usm_zero_copy = false;
    shell_alm_frac = 0.20;
    shell_dsp_frac = 0.05;
    fadd_latency = 8;
    pipeline_depth = 220;
    fpga_pcie_gbs = 7.0;
    fpga_pcie_latency_us = 20.0;
    reconfig_overhead_ms = 0.0;
  }

let pac_stratix10 =
  {
    fpga_name = "Intel PAC Stratix 10 SX (D5005)";
    alms = 933_120;
    dsps = 5760;
    m20ks = 11_721;
    fmax_mhz = 300.0;
    ddr_bw_gbs = 76.0;
    usm_zero_copy = true;
    shell_alm_frac = 0.18;
    shell_dsp_frac = 0.05;
    fadd_latency = 6;
    pipeline_depth = 260;
    fpga_pcie_gbs = 10.0;
    fpga_pcie_latency_us = 20.0;
    reconfig_overhead_ms = 0.0;
  }
