(** Device specifications and the catalog of the paper's five platforms.

    The specs hold published hardware parameters (core/SM/ALM counts,
    clocks, bandwidths, register files).  The performance models consume
    these; nothing in the catalog is tuned per benchmark. *)

type cpu_spec = {
  cpu_name : string;
  cores : int;
  freq_ghz : float;
  (* single-thread scalar issue costs, cycles per operation *)
  cyc_per_flop_addmul : float;
  cyc_per_flop_div : float;
  cyc_per_flop_special : float;
  cyc_per_int_op : float;
  cyc_per_mem_op : float;     (** cache-hit load/store *)
  dram_bw_gbs : float;        (** all-core DRAM bandwidth *)
  core_bw_gbs : float;        (** single-core DRAM bandwidth *)
  llc_bytes : int;            (** last-level cache capacity *)
  cache_bw_core_gbs : float;  (** per-core bandwidth when resident in cache *)
  omp_fork_us : float;        (** parallel-region fork/join overhead *)
  omp_efficiency : float;     (** per-thread scaling efficiency, 0..1 *)
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
  shared_mem_per_sm : int;     (** bytes *)
  sp_flops_per_cycle_per_sm : float;  (** FMA counted as 2 *)
  dp_ratio : float;            (** DP throughput as fraction of SP *)
  sfu_per_sm : int;            (** special-function units *)
  mem_bw_gbs : float;
  l2_bytes : int;
  l2_bw_gbs : float;
  latency_hiding_threads_per_core : float;
      (** resident threads per core needed to reach full throughput *)
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
  fmax_mhz : float;           (** achieved HLS clock *)
  ddr_bw_gbs : float;
  usm_zero_copy : bool;       (** unified shared memory supported *)
  shell_alm_frac : float;     (** board-support-package overhead *)
  shell_dsp_frac : float;
  fadd_latency : int;         (** cycles; II of a naive FP accumulation *)
  pipeline_depth : int;       (** fill/drain latency of a typical kernel pipeline *)
  fpga_pcie_gbs : float;
  fpga_pcie_latency_us : float;
  reconfig_overhead_ms : float;
}

val epyc_7543 : cpu_spec
(** AMD EPYC 7543, 32 cores @ 2.8 GHz — the paper's CPU platform. *)

val gtx_1080_ti : gpu_spec
val rtx_2080_ti : gpu_spec

val pac_arria10 : fpga_spec
val pac_stratix10 : fpga_spec
