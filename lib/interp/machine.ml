(* Public interpreter façade.

   Dispatches between the three backends over the shared Interp_rt core:
   - [`Vm] (default): the superinstruction VM — the closure compiler with
     eligible loops lowered to the typed flat IR and run by Fastloop;
   - [`Compiled]: Compile, the closure-compiling backend, plan-free;
   - [`Ast]: Walker, the reference tree-walker.

   Also keeps cumulative execution statistics (runs, interpreted
   statements, wall-clock seconds) so callers can report interpreter
   throughput without instrumenting every call site. *)

exception Runtime_error = Interp_rt.Runtime_error

exception Step_limit_exceeded = Interp_rt.Step_limit_exceeded

type region = Interp_rt.region = Rfunc of string | Rstmt of int

type config = Interp_rt.config = {
  seed : int;
  overrides : (string * Value.t) list;
  profile_loops : bool;
  regions : region list;
  trace_aliases : bool;
  max_steps : int;
  entry : string;
}

let default_config = Interp_rt.default_config

type loop_stats = Interp_rt.loop_stats = {
  ls_entries : int;
  ls_iterations : int;
  ls_work : float;
  ls_counters : Counters.t;
}

type array_traffic = Interp_rt.array_traffic = {
  at_name : string;
  at_elem_bytes : int;
  at_read_elems : int;
  at_written_elems : int;
}

type region_stats = Interp_rt.region_stats = {
  rs_invocations : int;
  rs_counters : Counters.t;
  rs_traffic : array_traffic list;
  rs_bytes_in : int;
  rs_bytes_out : int;
}

type result = Interp_rt.result = {
  ret : Value.t option;
  output : string list;
  counters : Counters.t;
  loop_stats : (int * loop_stats) list;
  region_stats : (region * region_stats) list;
  aliased_funcs : (string * bool) list;
  memory : Memory.t;
}

(* ---- backend selection ---- *)

type backend = [ `Ast | `Compiled | `Vm ]

(* Bump when observable interpreter semantics change; memoization keys
   include this so stale cached results are never replayed. *)
let interp_version = 2

let backend_name = function `Ast -> "ast" | `Compiled -> "compiled" | `Vm -> "vm"

let backend_of_string = function
  | "ast" -> Some `Ast
  | "compiled" -> Some `Compiled
  | "vm" -> Some `Vm
  | _ -> None

let default_backend_ref : backend Atomic.t = Atomic.make `Vm

let default_backend () = Atomic.get default_backend_ref

let set_default_backend b = Atomic.set default_backend_ref b

(* ---- cumulative execution statistics ---- *)

type exec_stats = { exec_runs : int; exec_steps : int; exec_seconds : float }

(* Backed by the process-wide metrics registry so interpreter throughput
   shows up next to cache and bench metrics without extra plumbing. *)
let m_runs = Obs.Metrics.counter "interp.runs"

let m_steps = Obs.Metrics.counter "interp.steps"

let m_seconds = Obs.Metrics.gauge "interp.seconds"

let exec_stats () =
  {
    exec_runs = Obs.Metrics.Counter.value m_runs;
    exec_steps = Obs.Metrics.Counter.value m_steps;
    exec_seconds = Obs.Metrics.Gauge.value m_seconds;
  }

let reset_exec_stats () =
  Obs.Metrics.Counter.set m_runs 0;
  Obs.Metrics.Counter.set m_steps 0;
  Obs.Metrics.Gauge.set m_seconds 0.0

let record_run steps seconds =
  Obs.Metrics.Counter.incr m_runs;
  Obs.Metrics.Counter.add m_steps steps;
  Obs.Metrics.Gauge.add m_seconds seconds

(* Statements executed on the VM's planned fast path (process-wide, like
   exec_stats); planned / exec_steps is the vm.coverage ratio.  Like
   exec_stats it counts completed runs only: a run's planned steps are
   added when it returns, so an aborted run moves neither. *)
let m_planned = Obs.Metrics.counter "vm.steps.planned"

let planned_steps () = Obs.Metrics.Counter.value m_planned

let plan_bail_sites = Fastloop.bail_sites

(* ---- resilience step cap ---- *)

(* When armed (flow resilience policies with a per-task step budget),
   every run's max_steps is clamped to this value.  A capped run that
   completes is identical to the uncapped run — the cap only affects
   whether Step_limit_exceeded fires — so the cap does not belong in
   memoization keys and capped results replay safely. *)
let the_step_cap : int option Atomic.t = Atomic.make None

let set_step_cap c = Atomic.set the_step_cap (Option.map (max 1) c)

let step_cap () = Atomic.get the_step_cap

let effective_config config =
  match Atomic.get the_step_cap with
  | None -> config
  | Some cap -> { config with max_steps = min config.max_steps cap }

(* ---- execution ---- *)

let run ?(config = default_config) ?backend (program : Ast.program) : result =
  let config = effective_config config in
  let backend = match backend with Some b -> b | None -> default_backend () in
  Obs.Trace.with_span
    ~attrs:[ ("backend", Obs.Trace.Str (backend_name backend)) ]
    ~name:"interp-run" ~kind:Obs.Trace.Interp_run
    (fun sp ->
      let t0 = Obs.Monotonic.now_s () in
      let planned0 = Fastloop.domain_planned_steps () in
      let finish (r : result) =
        let steps = r.counters.Counters.steps in
        let planned = Fastloop.domain_planned_steps () - planned0 in
        record_run steps (Obs.Monotonic.now_s () -. t0);
        Obs.Metrics.Counter.add m_planned planned;
        Obs.Trace.add_attr sp "steps" (Obs.Trace.Int steps);
        Obs.Trace.add_attr sp "planned" (Obs.Trace.Int planned);
        r
      in
      match backend with
      | `Ast -> finish (Walker.run config program)
      | `Compiled -> finish (Compile.run config program)
      | `Vm -> finish (Vm.run config program))

let find_loop_stats (r : result) sid = List.assoc_opt sid r.loop_stats

let find_region_stats (r : result) region = List.assoc_opt region r.region_stats
