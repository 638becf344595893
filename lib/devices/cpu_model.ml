type estimate = {
  ce_time_s : float;
  ce_compute_s : float;
  ce_memory_s : float;
  ce_threads : int;
  ce_overhead_s : float;
}

let compute_cycles (spec : Device.cpu_spec) (c : Counters.t) =
  let f = float_of_int and flops = Counters.flops_of c in
  (f (flops Counters.Add + flops Counters.Mul) *. spec.cyc_per_flop_addmul)
  +. (f (flops Counters.Div) *. spec.cyc_per_flop_div)
  +. (f (flops Counters.Special) *. spec.cyc_per_flop_special)
  +. (f c.(Counters.int_ops) *. spec.cyc_per_int_op)
  +. (f (c.(Counters.loads) + c.(Counters.stores)) *. spec.cyc_per_mem_op)
  +. (f c.(Counters.branches) *. 0.5)

let time_of_counters (spec : Device.cpu_spec) counters ~footprint_bytes ~threads
    ~parallel_regions =
  let threads = max 1 threads in
  let compute_s =
    compute_cycles spec counters /. (spec.freq_ghz *. 1e9)
    /. float_of_int threads
    /. (if threads = 1 then 1.0 else spec.omp_efficiency)
  in
  let memory_s =
    if footprint_bytes <= spec.llc_bytes then 0.0
    else begin
      let traffic = float_of_int (Counters.bytes counters) in
      let bw =
        if threads = 1 then spec.core_bw_gbs *. 1e9
        else Float.min (float_of_int threads *. spec.core_bw_gbs) spec.dram_bw_gbs *. 1e9
      in
      traffic /. bw
    end
  in
  let overhead_s =
    if threads = 1 then 0.0
    else float_of_int parallel_regions *. spec.omp_fork_us *. 1e-6
  in
  {
    ce_time_s = Float.max compute_s memory_s +. overhead_s;
    ce_compute_s = compute_s;
    ce_memory_s = memory_s;
    ce_threads = threads;
    ce_overhead_s = overhead_s;
  }

let single_thread spec (kp : Kprofile.t) =
  time_of_counters spec kp.kp_counters ~footprint_bytes:kp.kp_footprint_bytes
    ~threads:1 ~parallel_regions:0

let openmp spec ~threads (kp : Kprofile.t) =
  if not kp.kp_outer_parallel then single_thread spec kp
  else
    time_of_counters spec kp.kp_counters ~footprint_bytes:kp.kp_footprint_bytes
      ~threads ~parallel_regions:kp.kp_invocations
