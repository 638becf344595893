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

(** Interpreter backend: [`Vm] (the superinstruction VM) additionally lowers
    eligible canonical loops to a typed flat IR executed over unboxed
    register files with bounds-check elision, fused opcode pairs and batched
    step/counter accounting; [`Compiled] lowers the AST to OCaml closures in
    a one-shot pass before execution (slot-indexed frames, pre-resolved
    calls, block-batched step counting); [`Ast] is the reference
    tree-walker.  All three produce bit-identical observables. *)
type backend = [ `Ast | `Compiled | `Vm ]

val interp_version : int
(** Bumped whenever observable interpreter semantics change; memoization
    keys include it (together with the backend tag) so cached results from
    older interpreters are never replayed. *)

val backend_name : backend -> string

val backend_of_string : string -> backend option

val default_backend : unit -> backend
(** The backend used when {!run} is not given [?backend]; initially
    [`Vm]. *)

val set_default_backend : backend -> unit

(** Cumulative execution statistics across all {!run} calls (thread-safe). *)
type exec_stats = {
  exec_runs : int;      (** completed interpreter runs *)
  exec_steps : int;     (** total interpreted statements *)
  exec_seconds : float; (** total wall-clock seconds inside the interpreter *)
}

val exec_stats : unit -> exec_stats

val reset_exec_stats : unit -> unit

val planned_steps : unit -> int
(** Statements executed on the VM backend's planned fast path, cumulative
    across all runs in the process (backed by the [vm.steps.planned]
    metric).  [planned_steps () / exec_steps] is the VM's step coverage:
    the fraction of interpreted statements that ran as lowered loop-nest
    plans rather than closures. *)

val plan_bail_sites : unit -> (Loc.t * string) list
(** Planned loops that fell back to the closure path at runtime, as a
    sorted (root location, reason) set — reasons like ["budget"],
    ["bounds"], ["alias"], ["trip-count"], ["overflow"], ["binding"].
    Profiled runs ([profile_loops], observation regions) stay on the
    planned path.  Deterministic at any [--jobs]: memoization makes the
    set of executed runs, and therefore the set of bail sites,
    schedule-independent. *)

val set_step_cap : int option -> unit
(** Arm ([Some n]) or clear ([None]) a process-wide cap on [max_steps]:
    while armed, every {!run} executes with [min config.max_steps n].
    Used by flow resilience policies to give tasks an interpreter step
    budget.  Sound with respect to memoization: a capped run that
    completes is identical to the uncapped run (the cap only decides
    whether {!Step_limit_exceeded} fires), so the cap is deliberately
    absent from cache keys — which also means a memoized result can be
    replayed without re-spending the steps that produced it. *)

val step_cap : unit -> int option
(** The currently armed cap, if any. *)

val run : ?config:config -> ?backend:backend -> Ast.program -> result
(** Execute the program from its entry function.
    @raise Runtime_error on dynamic errors (bounds, division by zero, ...)
    @raise Step_limit_exceeded when [max_steps] is exhausted. *)

val find_loop_stats : result -> int -> loop_stats option

val find_region_stats : result -> region -> region_stats option
