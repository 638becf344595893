(** Arithmetic-intensity analysis (FLOPs per byte).

    The informed PSA strategy (Fig. 3) offloads a hotspot only when
    [FLOPs/B > X] (X is [Psa.default_config]'s threshold).  The measure
    is computed from the kernel profile ({!Kprofile}): its region
    counters and footprint come from the same profiled run as every
    other dynamic fact of the flow.

    The measure is footprint-based — operations divided by the
    *distinct* bytes the region touches — so a kernel that re-reads a small
    working set (N-Body's inner loop) is correctly classified as
    compute-bound.  Expensive operations count at their flop-equivalent
    weight (a division or transcendental is many adds). *)

type measure = {
  ai_value : float;  (** flop-equivalents per footprint byte (in + out) *)
}

val flop_equiv : Counters.t -> float
(** Weighted flops: add/mul 1, div 8, special functions 20. *)

val of_region_stats : Machine.region_stats -> measure
