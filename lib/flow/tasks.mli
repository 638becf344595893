(** The repository of codified design-flow tasks (the Fig. 4 table).

    Target-independent tasks fill the artifact's facts; target-specific
    tasks generate and optimise designs.  Dynamic tasks execute the program
    under the interpreter (the paper's clock-marked tasks). *)

(** {1 Target-independent tasks} *)

val identify_hotspot_loops : Task.t
(** Instrument every loop with timers, execute, rank; choose the
    outermost parallelisable loop covering at least half the run, falling
    back to the hottest outermost loop. *)

val hotspot_extraction : Task.t
(** Outline the chosen loop into the kernel function [knl]. *)

val remove_array_acc_dependency : Task.t
(** "Remove Array += Dependency": scalarise loop-invariant array
    accumulators in the kernel's loops. *)

val pointer_analysis : Task.t
(** Dynamic alias check; marks kernel pointers [__restrict__] when clean. *)

val loop_tripcount_analysis : Task.t

val data_inout_analysis : Task.t
(** Also estimates the target-independent transfer time (PCIe). *)

val arithmetic_intensity_analysis : Task.t
(** Also computes the single-thread CPU baseline time of the kernel. *)

val loop_dependence_analysis : Task.t

val target_independent : Task.t list
(** The eight tasks above, in execution order. *)

(** {1 CPU (OpenMP) tasks} *)

val multi_thread_parallel_loops : Task.t
val omp_num_threads_dse : Task.t

(** {1 GPU (HIP) tasks} *)

val generate_hip_design : Task.t
val gpu_sp_math_fns : Task.t
val gpu_sp_numeric_literals : Task.t
(** Applies the demotion and validates the design output against the
    reference; reverts to double precision when the application's
    tolerance is exceeded (the Rush Larsen case). *)

val employ_hip_pinned_memory : Task.t
val introduce_shared_mem_buf : Task.t
val employ_specialised_math_fns : Task.t
val profile_gpu_design : Task.t
(** Dynamic: executes the generated design to obtain its kernel profile,
    static features and functional output. *)

val has_shared_tiling : Ast.program -> body_fn:string -> bool
(** Whether "Introduce Shared Mem Buf" staged a loop of the HIP body
    [body_fn] through shared-memory tiles (its [shared_tiling] pragma):
    the GPU model's [shared_tiling] parameter. *)

val gpu_blocksize_dse : Device.gpu_spec -> Task.t
(** Device-specific (branch C): picks the blocksize minimising the modelled
    time on the given GPU and pins the target. *)

(** {1 FPGA (oneAPI) tasks} *)

val generate_oneapi_design : Task.t
val unroll_fixed_loops : Task.t
val fpga_sp_math_fns : Task.t
val fpga_sp_numeric_literals : Task.t
val zero_copy_data_transfer : Task.t
(** Stratix10-only (USM). *)

val profile_fpga_design : Task.t

val fpga_unroll_until_overmap_dse : Device.fpga_spec -> Task.t
(** Device-specific (branch B): Fig. 2's doubling DSE against the resource
    model; flags the design infeasible when unroll 1 already overmaps. *)

(** {1 Helpers shared with strategies} *)

val kernel_name : string
(** Name given to extracted hotspot kernels ("knl"). *)

val ensure_kprofile : Artifact.t -> (Artifact.t, string) result
(** Profile the (current) reference program's kernel once and memoise. *)

val validate_outputs : ?tol:float -> reference:string list -> string list -> bool
(** Line-by-line numeric comparison with relative tolerance. *)
