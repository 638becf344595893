(** Cost and performance trade-offs (Fig. 3's cost evaluation and the
    Fig. 6 analysis).

    Cloud resources are priced per provisioned time; the monetary cost of a
    design is its execution time times the resource's unit price.  Fig. 6
    plots the cost of FPGA execution relative to GPU execution as the price
    ratio varies: with execution times [t_fpga] and [t_gpu] and a price
    ratio [r = p_fpga / p_gpu], the relative cost is
    [(t_fpga / t_gpu) * r]; the crossover ratio where both cost the same is
    [t_gpu / t_fpga]. *)

type pricing = {
  cpu_per_hour : float;
  gpu_per_hour : float;
  fpga_per_hour : float;
}

val default_pricing : pricing
(** Indicative on-demand prices (USD/h): CPU 2.0, GPU 3.0, FPGA 1.65 —
    in line with the cloud instance classes the paper cites. *)

val unit_price : pricing -> Target.t -> float

val monetary_cost : pricing -> Target.t -> time_s:float -> float
(** USD for one execution. *)

val relative_cost : fpga_s:float -> gpu_s:float -> price_ratio:float -> float
(** Fig. 6's y-value: FPGA cost / GPU cost at the given price ratio. *)

val crossover_ratio : fpga_s:float -> gpu_s:float -> float
(** Price ratio [p_fpga/p_gpu] at which both targets cost the same. *)

val cheapest :
  pricing -> (Target.t * float) list -> (Target.t * float * float) option
(** Given (target, time) alternatives, the one with minimal monetary cost;
    returns (target, time, cost). *)
