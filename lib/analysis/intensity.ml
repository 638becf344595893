type measure = { ai_value : float }

let div_weight = 8.0

let special_weight = 20.0

let flop_equiv (c : Counters.t) =
  float_of_int
    (c.flops_sp_add + c.flops_dp_add + c.flops_sp_mul + c.flops_dp_mul)
  +. (float_of_int (c.flops_sp_div + c.flops_dp_div) *. div_weight)
  +. (float_of_int (c.flops_sp_special + c.flops_dp_special) *. special_weight)

let of_region_stats (rs : Machine.region_stats) =
  let footprint = rs.rs_bytes_in + rs.rs_bytes_out in
  {
    ai_value =
      (if footprint = 0 then Float.infinity
       else flop_equiv rs.rs_counters /. float_of_int footprint);
  }
