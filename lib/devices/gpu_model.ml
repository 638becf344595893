type params = {
  blocksize : int;
  pinned : bool;
  shared_tiling : bool;
}

let default_params = { blocksize = 256; pinned = false; shared_tiling = false }

type estimate = {
  ge_time_s : float;
  ge_kernel_s : float;
  ge_transfer_s : float;
  ge_compute_s : float;
  ge_memory_s : float;
  ge_occupancy : float;
  ge_blocks_per_sm : int;
  ge_active_threads_per_sm : int;
  ge_regs_per_thread : int;
  ge_hiding_efficiency : float;
  ge_wave_efficiency : float;
  ge_launchable : bool;
}

let occupancy (spec : Device.gpu_spec) ~regs_per_thread ~blocksize ~shared_bytes =
  if blocksize <= 0 || blocksize > 1024 then 0
  else begin
    let by_blocks = spec.max_blocks_per_sm in
    let by_threads = spec.max_threads_per_sm / blocksize in
    let by_regs =
      let per_block = regs_per_thread * blocksize in
      if per_block = 0 then spec.max_blocks_per_sm else spec.regs_per_sm / per_block
    in
    let by_shared =
      if shared_bytes = 0 then spec.max_blocks_per_sm
      else spec.shared_mem_per_sm / shared_bytes
    in
    max 0 (min (min by_blocks by_threads) (min by_regs by_shared))
  end

let infinite =
  {
    ge_time_s = Float.infinity;
    ge_kernel_s = Float.infinity;
    ge_transfer_s = 0.0;
    ge_compute_s = Float.infinity;
    ge_memory_s = 0.0;
    ge_occupancy = 0.0;
    ge_blocks_per_sm = 0;
    ge_active_threads_per_sm = 0;
    ge_regs_per_thread = 0;
    ge_hiding_efficiency = 0.0;
    ge_wave_efficiency = 0.0;
    ge_launchable = false;
  }

let estimate (spec : Device.gpu_spec) (ks : Kstatic.t) (kp : Kprofile.t)
    (params : params) =
  let regs = min ks.ks_regs_estimate spec.max_regs_per_thread in
  let shared_bytes =
    if params.shared_tiling then max ks.ks_local_array_bytes (params.blocksize * 8)
    else ks.ks_local_array_bytes
  in
  let blocks_per_sm =
    occupancy spec ~regs_per_thread:regs ~blocksize:params.blocksize ~shared_bytes
  in
  if blocks_per_sm = 0 then infinite
  else begin
    let active = blocks_per_sm * params.blocksize in
    let occ = float_of_int active /. float_of_int spec.max_threads_per_sm in
    let hiding =
      Float.min 1.0
        (float_of_int active
         /. (float_of_int spec.cores_per_sm *. spec.latency_hiding_threads_per_core))
    in
    (* wave quantisation over the whole grid *)
    let total_threads = max 1 kp.kp_outer_trips in
    let total_blocks = (total_threads + params.blocksize - 1) / params.blocksize in
    let blocks_per_wave = spec.sms * blocks_per_sm in
    let waves = (total_blocks + blocks_per_wave - 1) / blocks_per_wave in
    let wave_eff =
      float_of_int total_blocks /. float_of_int (waves * blocks_per_wave)
    in
    (* pipeline times over the whole run *)
    let c = kp.kp_counters in
    let f = float_of_int in
    let cycle_rate = f spec.sms *. spec.freq_ghz *. 1e9 in
    let sp_rate = cycle_rate *. spec.sp_flops_per_cycle_per_sm in
    let dp_rate = sp_rate *. spec.dp_ratio in
    let sfu_rate = cycle_rate *. f spec.sfu_per_sm in
    let int_rate = sp_rate /. 2.0 in
    let sp cls = c.(Counters.flop ~single:true cls)
    and dp cls = c.(Counters.flop ~single:false cls) in
    let compute_s =
      (f (sp Counters.Add + sp Counters.Mul) /. sp_rate)
      +. (f (sp Counters.Div) /. (sfu_rate /. 2.0))
      +. (f (sp Counters.Special) /. sfu_rate)
      +. (f (dp Counters.Add + dp Counters.Mul) /. dp_rate)
      +. (f (dp Counters.Div) /. (dp_rate /. 4.0))
      +. (f (dp Counters.Special) /. (dp_rate /. 4.0))
      +. (f c.(Counters.int_ops) /. int_rate)
    in
    (* register spills: live state beyond 255 registers round-trips through
       local memory (the paper's Rush Larsen saturation effect) *)
    let spill_traffic =
      if ks.ks_regs_raw <= spec.max_regs_per_thread then 0.0
      else begin
        let frac =
          f (ks.ks_regs_raw - spec.max_regs_per_thread) /. f ks.ks_regs_raw
        in
        frac *. f (Counters.flops c) *. 8.0 *. 8.0
      end
    in
    let traffic =
      let raw = f (Counters.bytes c) in
      (* uncoalesced gathers fetch a whole 32B sector per 4B element *)
      let gather_frac =
        if ks.ks_ops.Kstatic.mem_sites = 0 then 0.0
        else f ks.ks_gather_sites /. f ks.ks_ops.Kstatic.mem_sites
      in
      let raw = raw *. (1.0 +. (7.0 *. gather_frac)) in
      if params.shared_tiling then raw /. f params.blocksize else raw
    in
    let mem_bw =
      if kp.kp_footprint_bytes <= spec.l2_bytes then spec.l2_bw_gbs *. 1e9
      else spec.mem_bw_gbs *. 1e9
    in
    (* spills stream at raw DRAM bandwidth; occupancy cannot hide them *)
    let spill_s = spill_traffic /. (spec.mem_bw_gbs *. 1e9) in
    let memory_s = traffic /. mem_bw in
    let derate = hiding *. wave_eff in
    let kernel_s =
      (Float.max compute_s memory_s /. Float.max derate 1e-9)
      +. spill_s
      +. (f kp.kp_invocations *. spec.launch_overhead_us *. 1e-6)
    in
    let pcie_bw =
      (if params.pinned then spec.pcie_pinned_gbs else spec.pcie_pageable_gbs) *. 1e9
    in
    let transfer_s =
      (f (kp.kp_bytes_in + kp.kp_bytes_out) /. pcie_bw)
      +. (f kp.kp_invocations *. 2.0 *. spec.pcie_latency_us *. 1e-6)
    in
    {
      ge_time_s = kernel_s +. transfer_s;
      ge_kernel_s = kernel_s;
      ge_transfer_s = transfer_s;
      ge_compute_s = compute_s;
      ge_memory_s = memory_s +. spill_s;
      ge_occupancy = occ;
      ge_blocks_per_sm = blocks_per_sm;
      ge_active_threads_per_sm = active;
      ge_regs_per_thread = regs;
      ge_hiding_efficiency = hiding;
      ge_wave_efficiency = wave_eff;
      ge_launchable = true;
    }
  end
