(* Public interpreter façade.

   Dispatches between the two backends over the shared Interp_rt core:
   - [`Vm] (default): the superinstruction VM — the walker with eligible
     loops lowered to the typed flat IR and run by Fastloop;
   - [`Ast]: Walker alone, the reference tree-walker.

   Each completed run is counted into the metrics registry
   (interp.runs, interp.steps, interp.seconds, vm.steps.planned), so
   callers report interpreter work by reading those names, without
   instrumenting every call site. *)

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

type backend = [ `Ast | `Vm ]

(* Bump when observable interpreter semantics change; memoization keys
   include this so stale cached results are never replayed.  3 since the
   VM raises the walker's "unbound variable" for a global initialiser
   calling a function that reads a later global. *)
let interp_version = 3

let backend_name = function `Ast -> "ast" | `Vm -> "vm"

let backend_tag = function `Ast -> 0 | `Vm -> 1

let backend_of_string = function
  | "ast" -> Some `Ast
  | "vm" -> Some `Vm
  | _ -> None

let default_backend_ref : backend Atomic.t = Atomic.make `Vm

let default_backend () = Atomic.get default_backend_ref

let set_default_backend b = Atomic.set default_backend_ref b

(* ---- execution counts, in the metrics registry ---- *)

let m_runs = Obs.Metrics.counter "interp.runs"

let m_steps = Obs.Metrics.counter "interp.steps"

let m_seconds = Obs.Metrics.gauge "interp.seconds"

(* Statements executed on the VM's planned fast path; planned /
   interp.steps is the vm.coverage ratio.  Like interp.runs and
   interp.steps it counts completed runs only: a run's planned steps are
   added when it returns, so an aborted run moves none of them. *)
let m_planned = Obs.Metrics.counter "vm.steps.planned"

let plan_bail_sites = Fastloop.bail_sites

(* ---- execution ---- *)

(* The request context's step budget caps every run.  A capped run that
   completes is identical to the uncapped run (the cap only decides
   whether Step_limit_exceeded fires), so the budget stays out of memo
   keys and capped results replay safely. *)
let run ?(config = default_config) ?backend (program : Ast.program) : result =
  let config =
    match Util.Reqctx.step_budget () with
    | Some budget -> { config with max_steps = min config.max_steps budget }
    | None -> config
  in
  let backend = match backend with Some b -> b | None -> default_backend () in
  (* the observer set, so a trace tells observed runs from plain ones *)
  Obs.Trace.with_span
    ~attrs:
      [
        ("backend", Obs.Trace.Str (backend_name backend));
        ("profile_loops", Obs.Trace.Bool config.profile_loops);
        ("trace_aliases", Obs.Trace.Bool config.trace_aliases);
        ("regions", Obs.Trace.Int (List.length config.regions));
      ]
    ~name:"interp-run" ~kind:Obs.Trace.Interp_run
    (fun sp ->
      let t0 = Obs.Monotonic.now_s () in
      let planned0 = Fastloop.planned_on_domain () in
      let finish (r : result) =
        let steps = r.counters.(Counters.steps) in
        let planned = Fastloop.planned_on_domain () - planned0 in
        Obs.Metrics.Counter.incr m_runs;
        Obs.Metrics.Counter.add m_steps steps;
        Obs.Metrics.Gauge.add m_seconds (Obs.Monotonic.now_s () -. t0);
        Obs.Metrics.Counter.add m_planned planned;
        Obs.Trace.add_attr sp "steps" (Obs.Trace.Int steps);
        Obs.Trace.add_attr sp "planned" (Obs.Trace.Int planned);
        r
      in
      match backend with
      | `Ast -> finish (Walker.run config program)
      | `Vm -> finish (Vm.run config program))

let find_loop_stats (r : result) sid = List.assoc_opt sid r.loop_stats

let find_region_stats (r : result) region = List.assoc_opt region r.region_stats
