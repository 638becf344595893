(** Content-addressed caching of DSE point evaluations.

    Every DSE strategy evaluates an analytic device model over a small
    integer space (blocksize, thread count, unroll factor).  The model
    inputs — device spec, kernel features, kernel profile, base
    parameters — are fixed for one DSE invocation, so each wrapper
    digests them once (the {e context}) and keys individual points as
    [context.point].  Identical sweeps across branch arms, suite runs
    and warm processes then replay instead of re-evaluating.

    Both wrappers return the evaluation function unchanged while the
    cache is disabled ({!Cache.enabled}), so [--cache off] pays nothing
    and stays byte-identical.  Evaluations must be pure and contexts
    closure-free (they are marshalled to build the key). *)

val stable_kp : Kprofile.t -> Kprofile.t
(** Sid-free copy of a kernel profile for use inside contexts: statement
    ids are allocation-order-dependent and differ between cold and warm
    processes, so they are replaced by positional information (inner
    loops by their index, the outer sid and verdict sid by 0, baseline
    per-loop statistics by sorted sid-free lists). *)

val stable_ks : kp:Kprofile.t -> Kstatic.t -> Kstatic.t
(** Same for static kernel features; the serial-inner link is rewritten
    to the index of the matching entry in [kp]'s inner-loop list. *)

val scores : tag:string -> 'ctx -> (int -> float) -> int -> float
(** [scores ~tag ctx eval] caches a score-valued evaluation under the
    namespace [tag] (e.g. ["gpu-blocksize"]). *)

val resources :
  tag:string ->
  'ctx ->
  (int -> Fpga_model.resources) ->
  int ->
  Fpga_model.resources
(** Same for FPGA resource reports (the unroll DSE's doubling loop). *)
