(** The request context: settings that belong to one request and travel
    with its work across the scheduler.

    A flow fans its branch paths out as {!Pool.Fut} futures, and a
    daemon runs many requests' futures on the same worker domains, so a
    per-request setting can live neither in a global nor in a domain's
    own state.  The context is one [Domain.DLS] slot holding the
    settings of the work the domain is executing right now.
    {!Pool.Fut.spawn} captures the spawner's context, and every
    execution of the future's thunk (by a worker, a thief, an awaiting
    or helping domain, or a domain reclaiming a crashed worker's claim)
    installs it and restores the executor's own context afterwards, also
    when the thunk raises and also when the captured context is empty,
    as every domain's context starts.

    The context carries one setting: the interpreter step budget, which
    [Machine.run] applies as a cap on each run's [max_steps]. *)

type t
(** A captured context. *)

val current : unit -> t
(** The calling domain's context. *)

val run_in : t -> (unit -> 'a) -> 'a
(** [run_in c f] runs [f] with [c] installed, then restores the calling
    domain's previous context, also when [f] raises. *)

val step_budget : unit -> int option
(** The current context's interpreter step budget, if any. *)

val with_step_budget : int -> (unit -> 'a) -> 'a
(** [with_step_budget n f] runs [f] with the step budget [max 1 n]
    installed (see {!run_in}). *)
