(** Request-scoped flow execution: one self-contained spec in, one
    self-contained outcome out.

    This is the engine entry used by the [psaflowd] daemon (and usable by
    any embedder): a {!spec} carries everything a flow run depends on —
    the application (a suite slug or inline mini-C++ source), the branch
    strategy, the workload choice and an optional interpreter step budget
    — and {!run} resolves, executes and renders it without touching
    process-global CLI state.

    {2 Determinism invariant}

    The outcome's rendered texts ([oc_text], [oc_why]) are produced by
    {!Report.run_text}/{!Report.why_text} over the engine report, so they
    are byte-identical at any [--jobs] level and equal to what
    [psaflow run] prints for the same spec — including when other
    requests execute concurrently on the same scheduler: the engine
    never branches on scheduling, cached values are content-addressed,
    and single-flight replay returns the same values a fresh computation
    would.  A request's step budget travels with its own futures
    ({!Engine.run}'s [~step_budget]), so it never reaches another
    request's interpreter runs.  It bounds executed statements: a
    budgeted request replays runs that an earlier or concurrent request
    completed instead of re-executing them, so which paths it prunes
    depends on what the cache already holds. *)

(** Where the program comes from. *)
type source =
  | Builtin of string  (** suite slug, e.g. ["nbody"] *)
  | Inline of { name : string; text : string; scale : int }
      (** user-supplied mini-C++ source; [scale] is the outer-trip
          extrapolation factor ([psaflow run --file --scale]) *)

type spec = {
  sp_source : source;
  sp_mode : Pipeline.mode;
  sp_quick : bool;  (** test workload instead of the evaluation workload *)
  sp_step_budget : int option;
      (** caps each interpreter run of the branch fan-out; a blown budget
          prunes that path (status 3, or 4 when none survives) *)
  sp_jobs_hint : int option;
      (** advisory only: recorded for provenance; execution parallelism
          belongs to the process-wide scheduler ([--jobs] at daemon
          startup), never to a single request *)
}

(** What a request produced.  [oc_status] uses the [psaflow run] exit
    code convention: 0 all designs ok, 1 flow failed or spec unresolvable,
    3 partial (paths pruned, >= 1 design), 4 no design survived. *)
type outcome = {
  oc_status : int;
  oc_report : Engine.report option;  (** present when the engine ran *)
  oc_error : string;  (** non-empty iff the flow failed outright *)
  oc_text : string;  (** {!Report.run_text}, [""] on failure *)
  oc_why : string;  (** {!Report.why_text}, [""] on failure *)
}

val exit_partial : int
(** 3 — some branch paths pruned, at least one design produced. *)

val exit_none : int
(** 4 — every branch path pruned. *)

val resolve : spec -> (App.t * (string * int) list, string) result
(** Resolve the spec's application and workload without running anything:
    suite lookup for {!Builtin} (unknown slugs listed in the error),
    parse + typecheck for {!Inline} (errors reported, nothing raised). *)

val status_of_report : Engine.report -> int
(** The exit code {!run} derives from a completed report. *)

val run : spec -> outcome
(** Resolve and execute the spec on the current scheduler, then render
    the report.  Never raises: resolution and flow failures come back as
    [oc_status = 1] with [oc_error] set. *)
