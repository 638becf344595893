(** Kernel profile: the bundle of dynamic observations about an extracted
    hotspot kernel that every device model consumes.

    Produced by one profiled interpreter run (loop profiling + kernel
    region + alias tracing, {!Memo.analysis_config} with [~kernel]) plus
    the static dependence verdicts.  It is the flow's only dynamic
    analysis: the trip counts, data in/out volumes, pointer-alias
    verdict and the counters behind the arithmetic intensity (Fig. 4's
    dynamic tasks) are all read from it.  Design paths validate their
    single-precision literals under the same configuration, so profiling
    a design whose canonical program is unchanged since that validation
    replays the validation's run from the memo. *)

type inner_loop = {
  il_sid : int;
  il_static_trips : int option;
  il_avg_trips : float;              (** dynamic iterations per entry *)
  il_iters_per_outer : float;        (** total iterations per outer-loop iteration
                                         (captures the whole nest below this loop) *)
  il_fully_unrollable : bool;        (** static trips under the unroll threshold *)
  il_fp_reduction : bool;            (** carries a floating-point accumulation *)
  il_parallel : bool;                (** strictly independent: no carried deps and no reductions *)
}

type t = {
  kp_kernel : string;
  kp_invocations : int;              (** kernel calls during the run *)
  kp_outer_sid : int;                (** outermost kernel loop statement id *)
  kp_outer_trips : int;              (** total outer iterations across the run *)
  kp_counters : Counters.t;          (** kernel-region event counts, whole run *)
  kp_bytes_in : int;
  kp_bytes_out : int;
  kp_footprint_bytes : int;          (** distinct bytes touched *)
  kp_outer_verdict : Dependence.verdict;
  kp_outer_parallel : bool;          (** parallel up to reductions *)
  kp_inner : inner_loop list;        (** loops nested in the outer loop *)
  kp_no_alias : bool;                (** pointer args never aliased *)
  kp_cpu_baseline_result : Machine.result; (** the profiling run itself *)
}

val collect :
  ?config:Machine.config ->
  ?unroll_threshold:int ->
  Ast.program ->
  kernel:string ->
  (t, string) result
(** Profile the program and assemble the kernel profile: one
    {!Memo.run} under [Memo.analysis_config ?config ~kernel ()].  Fails
    when the kernel has no loop or was never called. *)

val scale : t -> int -> t
(** Extrapolate the profile to [k] times the outer trip count: counters,
    trips and data volumes multiply; per-iteration structure (inner-loop
    shapes, verdicts, invocation count) is preserved.  Used to evaluate
    paper-scale workloads the interpreter cannot execute directly. *)
