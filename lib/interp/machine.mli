(** The interpreter: executes mini-C++ programs while accumulating the event
    counters and profiles that the paper's dynamic analyses need.

    This is the stand-in for "run the instrumented application natively":
    hotspot detection reads {!loop_stats}, trip-count analysis reads
    iteration counts, data-movement analysis reads per-region array traffic,
    and pointer-alias analysis reads the per-function alias record. *)

exception Runtime_error of Loc.t * string

exception Step_limit_exceeded

(** A profiled code region: a whole function body, or a single statement. *)
type region = Rfunc of string | Rstmt of int

type config = {
  seed : int;                          (** seed for the in-language [rand01()] *)
  overrides : (string * Value.t) list; (** global constants to override, e.g. workload size [N] *)
  profile_loops : bool;                (** per-loop inclusive cost and trip counts *)
  regions : region list;               (** regions to profile for counters + data in/out *)
  trace_aliases : bool;                (** record pointer-argument aliasing per function *)
  max_steps : int;                     (** statement budget; exceeding raises {!Step_limit_exceeded} *)
  entry : string;                      (** entry function, default ["main"] *)
}

val default_config : config
(** seed 42, no overrides, all profiling off, 400M-step budget, entry [main]. *)

(** Inclusive statistics of one loop statement (identified by stmt id). *)
type loop_stats = {
  ls_entries : int;      (** times the loop was entered *)
  ls_iterations : int;   (** total iterations across entries *)
  ls_work : float;       (** inclusive abstract CPU cycles ({!Counters.work}) *)
  ls_counters : Counters.t; (** inclusive event counts *)
}

(** Per-array traffic observed inside a region (summed over invocations). *)
type array_traffic = {
  at_name : string;
  at_elem_bytes : int;
  at_read_elems : int;    (** distinct elements read before first write *)
  at_written_elems : int; (** distinct elements written *)
}

type region_stats = {
  rs_invocations : int;
  rs_counters : Counters.t;
  rs_traffic : array_traffic list;
  rs_bytes_in : int;   (** bytes that must reach an accelerator running the region *)
  rs_bytes_out : int;  (** bytes it must send back *)
}

type result = {
  ret : Value.t option;
  output : string list;                       (** lines from [print_int]/[print_float] *)
  counters : Counters.t;                      (** whole-program events *)
  loop_stats : (int * loop_stats) list;       (** by loop stmt id, present when [profile_loops] *)
  region_stats : (region * region_stats) list;
  aliased_funcs : (string * bool) list;       (** function -> two pointer args shared a base in some call *)
  memory : Memory.t;                          (** final memory, for inspecting results *)
}

(** Interpreter backend: [`Ast] is the reference tree-walker; [`Vm] (the
    superinstruction VM) is the walker with eligible canonical loops
    lowered to a typed flat IR and executed over unboxed register files
    with bounds-check elision, fused opcode pairs and batched step/counter
    accounting, every other statement running on the walker.  Both produce
    bit-identical observables. *)
type backend = [ `Ast | `Vm ]

val interp_version : int
(** Bumped whenever observable interpreter semantics change; memoization
    keys include it (together with the backend tag) so cached results from
    older interpreters are never replayed. *)

val backend_name : backend -> string

val backend_tag : backend -> int
(** The backend's encoding in the run cache's keys ({!Memo}). *)

val backend_of_string : string -> backend option

val default_backend : unit -> backend
(** The backend used when {!run} is not given [?backend]; initially
    [`Vm]. *)

val set_default_backend : backend -> unit

val plan_bail_sites : unit -> (Loc.t * string) list
(** Planned loops that fell back to the walker at runtime, as a
    sorted (root location, reason) set — reasons like ["budget"],
    ["bounds"], ["alias"], ["trip-count"], ["overflow"], ["binding"].
    Profiled runs ([profile_loops], observation regions) stay on the
    planned path.  Deterministic at any [--jobs]: memoization makes the
    set of executed runs, and therefore the set of bail sites,
    schedule-independent. *)

val run : ?config:config -> ?backend:backend -> Ast.program -> result
(** Execute the program from its entry function.  A completed run adds
    to the [interp.runs], [interp.steps], [interp.seconds] and
    [vm.steps.planned] metrics ({!Obs.Metrics}); the last counts the
    statements that ran on the VM's planned fast path, so
    [vm.steps.planned / interp.steps] is the VM's step coverage.  An
    aborted run moves none of them.  The request context's
    step budget ({!Util.Reqctx}), when set, caps [max_steps]; a blown
    budget in a flow's branch fan-out prunes that path (exit 3 or 4).
    The cap is absent from memo keys: a capped run that completes is
    identical to the uncapped run, so its result replays safely.
    @raise Runtime_error on dynamic errors (bounds, division by zero, ...)
    @raise Step_limit_exceeded when [max_steps] is exhausted. *)

val find_loop_stats : result -> int -> loop_stats option

val find_region_stats : result -> region -> region_stats option
