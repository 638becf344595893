type measure = { ai_value : float }

let div_weight = 8.0

let special_weight = 20.0

let flop_equiv (c : Counters.t) =
  let flops = Counters.flops_of c in
  float_of_int (flops Counters.Add + flops Counters.Mul)
  +. (float_of_int (flops Counters.Div) *. div_weight)
  +. (float_of_int (flops Counters.Special) *. special_weight)

let of_region_stats (rs : Machine.region_stats) =
  let footprint = rs.rs_bytes_in + rs.rs_bytes_out in
  {
    ai_value =
      (if footprint = 0 then Float.infinity
       else flop_equiv rs.rs_counters /. float_of_int footprint);
  }
