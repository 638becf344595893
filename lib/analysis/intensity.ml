type measure = {
  ai_flop_equiv : float;
  ai_raw_flops : int;
  ai_footprint_bytes : int;
  ai_traffic_bytes : int;
  ai_value : float;
}

let div_weight = 8.0

let special_weight = 20.0

let flop_equiv (c : Counters.t) =
  float_of_int
    (c.flops_sp_add + c.flops_dp_add + c.flops_sp_mul + c.flops_dp_mul)
  +. (float_of_int (c.flops_sp_div + c.flops_dp_div) *. div_weight)
  +. (float_of_int (c.flops_sp_special + c.flops_dp_special) *. special_weight)

let of_region_stats (rs : Machine.region_stats) =
  let footprint = rs.rs_bytes_in + rs.rs_bytes_out in
  let flops = flop_equiv rs.rs_counters in
  {
    ai_flop_equiv = flops;
    ai_raw_flops = Counters.flops rs.rs_counters;
    ai_footprint_bytes = footprint;
    ai_traffic_bytes = Counters.bytes rs.rs_counters;
    ai_value = (if footprint = 0 then Float.infinity else flops /. float_of_int footprint);
  }
