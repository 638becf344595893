(** Flow execution engine: runs the implemented PSA-flow on an application
    and packages the evaluated designs.

    The informed mode reproduces the paper's "Informed" experiments
    (branch point A decides one target); the uninformed mode takes every
    path, generating all five designs.

    {2 Failure model}

    By default the engine is {e fault-tolerant}: a task failure during
    the branch fan-out (after {!Resilience} retries) prunes only the
    branch path that hit it — surviving paths still produce designs, and
    each pruned path is reported in [rep_failures] with a provenance
    trail ending in {!Prov.Sfailed}.  With [~strict:true] any failure
    aborts the run ([psaflow run --strict]).  The target-independent
    phase is always fail-fast: there is exactly one path, so nothing
    survives pruning it.

    {2 Determinism invariant}

    With no faults injected and no failures, the report — designs,
    trails, logs — is byte-identical at every [--jobs] level and for
    both values of [~strict]; parallel scheduling is never observable in
    outputs. *)

type report = {
  rep_app : App.t;
  rep_mode : Pipeline.mode;
  rep_workload : (string * int) list;
  rep_analysed : Artifact.t;          (** artifact after the T-INDEP tasks *)
  rep_decision : Psa.decision;        (** Fig. 3 strategy verdict (also computed in uninformed mode, for reporting) *)
  rep_baseline_s : float;             (** single-thread CPU hotspot time *)
  rep_designs : Design.t list;        (** in branch order *)
  rep_failures : Graph.failure list;  (** pruned paths: fan-out failures in branch order, then assemble failures *)
}

val run :
  ?psa_config:Psa.config ->
  ?workload:(string * int) list ->
  ?strict:bool ->
  ?step_budget:int ->
  mode:Pipeline.mode ->
  App.t ->
  (report, string) result
(** Default workload: the app's evaluation workload.  [~strict] (default
    [false]) restores fail-fast: the first task failure aborts the run
    instead of pruning its branch.  [~step_budget:n] caps every
    interpreter run of the branch fan-out at [n] statements: a run that
    blows it fails its task with a {!Resilience.Timeout}, which prunes
    that path (exit 3, or 4 when none survives).  The budget travels with
    the fan-out's futures ({!Util.Reqctx}), so concurrent flows never see
    each other's; the target-independent phase and design assembly run
    uncapped.  Default: no budget. *)

val best_design : report -> Design.t option
(** Fastest feasible design (the paper's "Auto-Selected" bar under the
    informed mode; under uninformed, the best of all five). *)

val design_for : report -> short:string -> Design.t option
(** Look up a design by its target's short label ("OMP", "HIP 2080Ti",
    "oneAPI A10", ...). *)

(** {1 Budget-constrained selection}

    Fig. 3's cost-evaluation feedback: after a path is selected, the
    design's monetary cost (execution time times the resource's unit
    price) is checked against a user budget; over-budget designs are
    revised by falling back to the next branch. *)

type attempt = {
  at_branch : string;           (** branch tried at point A *)
  at_design : Design.t option;  (** best feasible design of that branch *)
  at_cost : float option;       (** USD per run *)
  at_within : bool;
}

type budget_report = {
  br_app : App.t;
  br_budget : float;
  br_pricing : Cost.pricing;
  br_attempts : attempt list;   (** in the order the feedback loop tried them *)
  br_accepted : attempt option; (** first within-budget attempt, or the
                                    cheapest one when none fits *)
  br_within_budget : bool;
  br_baseline_s : float;
}

val run_budgeted :
  ?psa_config:Psa.config ->
  ?workload:(string * int) list ->
  ?pricing:Cost.pricing ->
  budget:float ->
  App.t ->
  (budget_report, string) result
(** Informed run under a monetary budget (USD per execution).  The
    informed decision is tried first; when its design costs more than the
    budget, the remaining branches are tried in turn ("IF cost > budget:
    revise design").  When nothing fits, the cheapest attempt is reported
    with [br_within_budget = false]. *)
