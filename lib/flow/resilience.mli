(** Fault tolerance for flow execution.

    Every task application in a {!Graph} run crosses one supervised
    boundary ({!supervise}): exceptions and error results are classified
    into a small taxonomy, retryable classes are retried once after a
    deterministic seeded backoff, and what remains becomes a structured
    {!failure} that the engine turns into a pruned branch (an
    {!Prov.Sfailed} trail step) rather than an aborted run — except under
    [psaflow run --strict], which restores fail-fast.

    The one kind of timeout is the interpreter step budget
    ([Engine.run ~step_budget], a served request's [step_budget]): it caps
    every interpreter run of the branch fan-out, and a blown budget raises
    [Machine.Step_limit_exceeded], classified as {!Timeout}, which prunes
    that path (exit 3, or 4 when no design survives).  Step budgets are
    exact and deterministic: the same program blows the same budget at
    the same statement at any [--jobs] level.

    Determinism invariant: with no faults injected and no budget blown,
    supervision is observationally free — every task succeeds on its
    first attempt and flow output is byte-identical to an unsupervised
    run at any [--jobs] level. *)

(** Why a task ultimately failed. *)
type error_class =
  | Task_failed  (** the task returned an error or raised *)
  | Timeout  (** interpreter step budget exhausted *)
  | Cache_corrupt  (** failure traced to a corrupted cache entry *)
  | Resource_exhausted  (** out of memory / stack overflow *)

type failure = {
  f_class : error_class;
  f_site : string;  (** supervised site, e.g. ["FPGA/Generate oneAPI Design"] *)
  f_msg : string;  (** underlying error message, attempt-independent *)
  f_attempts : int;  (** attempts consumed, [>= 1] *)
}

val class_label : error_class -> string
(** Stable lowercase label ("task-failed", "timeout", "cache-corrupt",
    "resource-exhausted") used in provenance rendering and metrics. *)

val classify_message : string -> error_class
(** Heuristic classification of a task's error string. *)

val supervise :
  site:string -> (unit -> ('a, string) result) -> ('a, failure) result
(** [supervise ~site thunk] runs [thunk]: exceptions are caught and
    classified ([Machine.Step_limit_exceeded] is a {!Timeout},
    [Out_of_memory]/[Stack_overflow] are {!Resource_exhausted}, anything
    else {!Task_failed}) and error results are classified by message.
    {!Task_failed} and {!Cache_corrupt} are retried once, after a backoff
    of [0.01 s * jitter], the jitter drawn in [\[0.5, 1.5)] from a
    {!Util.Prng} stream seeded by 42 and the site name, so the wait is
    deterministic per site; {!Timeout} and {!Resource_exhausted} are
    deterministic blowouts that would fail identically again.  Each retry
    increments the [flow.retries] counter; a final failure increments
    [flow.task.failures]. *)
