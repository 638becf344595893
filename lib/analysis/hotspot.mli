(** Hotspot loop detection and extraction (the partitioning stage).

    Detection instruments every loop with "timers" (the interpreter's
    inclusive work counters) and ranks the outermost loops of the entry
    function by their share of total execution work — the dynamic task the
    paper describes as "instrument the application with loop timers and
    execute to identify time-consuming loops".

    Extraction outlines the chosen loop into a standalone kernel function,
    replacing it with a call — the paper's "once a hotspot is identified, it
    is extracted into an isolated function for further analysis and
    eventual offloading". *)

type hotspot = {
  hs_sid : int;          (** loop statement id *)
  hs_func : string;      (** function containing the loop *)
  hs_depth : int;        (** loop nesting depth inside its function (0 = outermost) *)
  hs_work : float;       (** inclusive abstract cycles *)
  hs_share : float;      (** fraction of whole-program work, 0..1 *)
  hs_iterations : int;
  hs_stats : Machine.loop_stats;
}

val detect : ?config:Machine.config -> Ast.program -> hotspot list
(** Every loop of every function (all nesting levels), hottest first;
    nested loops' inclusive work overlaps their parents'.  [config]
    defaults to {!Machine.default_config}; loop profiling is forced on. *)

(** Result of outlining a hotspot. *)
type extraction = {
  ex_program : Ast.program;   (** program with the kernel function added and the loop replaced by a call *)
  ex_kernel : string;         (** kernel function name *)
  ex_params : Ast.param list; (** kernel parameters, in call order *)
  ex_call_sid : int;          (** id of the replacement call statement *)
}

val extract :
  Ast.program -> sid:int -> kernel_name:string -> (extraction, string) result
(** Outline the loop with statement id [sid].  Free scalars are passed by
    value (const), arrays as pointers; globals remain globals (they stay
    visible inside the kernel, preserving static trip counts).  Fails with
    a message when the loop writes a free scalar (its value would not flow
    back) or when a free variable's type cannot be determined. *)
