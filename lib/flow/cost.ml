type pricing = {
  cpu_per_hour : float;
  gpu_per_hour : float;
  fpga_per_hour : float;
}

let default_pricing = { cpu_per_hour = 2.0; gpu_per_hour = 3.0; fpga_per_hour = 1.65 }

let unit_price pricing = function
  | Target.Omp _ -> pricing.cpu_per_hour
  | Target.Gpu _ -> pricing.gpu_per_hour
  | Target.Fpga _ -> pricing.fpga_per_hour

let monetary_cost pricing target ~time_s = unit_price pricing target *. time_s /. 3600.0

let relative_cost ~fpga_s ~gpu_s ~price_ratio =
  if gpu_s <= 0.0 then Float.infinity else fpga_s /. gpu_s *. price_ratio

let crossover_ratio ~fpga_s ~gpu_s =
  if fpga_s <= 0.0 then Float.infinity else gpu_s /. fpga_s

let cheapest pricing alternatives =
  let costed =
    List.map
      (fun (target, time_s) -> (target, time_s, monetary_cost pricing target ~time_s))
      alternatives
  in
  List.fold_left
    (fun acc ((_, _, c) as x) ->
      match acc with
      | None -> Some x
      | Some (_, _, cb) -> if c < cb then Some x else acc)
    None costed
