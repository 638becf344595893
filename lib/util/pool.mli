(** A future-based work-stealing scheduler on OCaml 5 domains.

    Every domain that touches the pool owns a bounded work-stealing
    deque (LIFO for the owner, FIFO for thieves; overflow spills to a
    global injector queue), and a long-lived set of worker domains —
    grown lazily to [default_jobs () - 1], shrunk by
    {!set_default_jobs} — pops, drains and steals from all of them.
    {!Fut.spawn} enqueues a future and returns immediately;
    {!Fut.await} drives it to completion.  A domain blocked on [await]
    never idles while work exists: it runs its own still-pending future
    inline, executes {e other} queued tasks (help-first stealing), and
    parks only when no runnable task exists anywhere.  Nested
    parallelism therefore composes: suite runs, branch fan-outs and DSE
    sweeps all feed the same deques, and an inner fan-out issued from a
    worker is serviced by every idle domain instead of degrading to
    sequential execution.

    Help-first stealing cannot deadlock on nested [await]: a claim is
    only ever held by an executor actively running the claimed thunk
    (or by a dead one, which the awaiter reclaims), and structured
    usage — awaiting only futures you spawned — makes the
    waits-on relation a sub-DAG of the spawn tree, so some claimed
    future always has a running executor making progress.

    {2 Determinism invariant}

    For a pure [f], [Fut.await_all (List.map (fun x -> Fut.spawn (fun
    () -> f x)) xs)] is [List.map f xs] for every job count: results are
    read back in input order, the first failure in input order is
    re-raised (with its original backtrace) after all elements settle,
    and work-stealing order is never observable in results.  With an
    effective job count of 1 the scheduler is never engaged — [spawn]
    evaluates eagerly in program order — which is the reference
    semantics.
    The rest of the repo relies on this: [psaflow run --jobs N] must
    emit byte-identical reports, [--why] and [--explain] output for
    every [N].  (The [pool.*] metrics themselves are scheduling
    telemetry and are deliberately excluded from [--explain].)

    {2 Worker failure}

    An injected pool fault ({!Faultsim.Crash}, armed via
    [--faults pool:worker]) fires between claiming a task and computing
    it.  A worker domain dies on the spot and its claimed task — owned
    or stolen — is detected by the awaiting domain through the
    claimant's dead flag, re-claimed, and recomputed without re-firing,
    so the result is byte-identical to the fault-free run.  The
    submitting domain survives a fired fault and recovers the same way.
    Each occurrence increments [pool.worker_failures].  Dead workers
    are respawned by the next [spawn] that needs them, never from the
    crash path, so recovery terminates even under always-firing fault
    rules. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Set the degree of parallelism, clamped to [\[1; 126\]] domains
    (including the caller's), joining surplus worker domains.  Growth
    back to the new target is lazy (the next [spawn] that needs workers
    creates them).  The initial default is [recommended_jobs ()]. *)

val default_jobs : unit -> int
(** Current default degree of parallelism. *)

(** Structured futures over the shared scheduler. *)
module Fut : sig
  type 'a t
  (** A future: a task that is pending, running, or settled. *)

  val spawn : ?label:string -> (unit -> 'a) -> 'a t
  (** [spawn f] schedules [f] on the pool and returns its future.  When
      the default job count is 1, [f] runs eagerly at the spawn point
      (in program order, exceptions propagating immediately) so
      sequential runs never observe the scheduler.  [f] runs in the
      spawner's request context ({!Reqctx}) whichever domain executes
      it.  [label] names the task's span in [--trace] output. *)

  val await : 'a t -> 'a
  (** [await fut] returns the future's value, executing it inline if no
      worker picked it up, helping with other queued tasks while it is
      running elsewhere, and reclaiming it if its executor was killed
      by an injected crash.  Re-raises the task's exception with its
      original backtrace. *)

  val await_no_help : 'a t -> 'a
  (** [await_no_help fut] is {!await} for a caller that must run no
      other task while it waits: it runs [fut] inline when no domain has
      claimed it, reclaims it from a crashed claimant, and otherwise
      parks until it settles.  A planned nest awaits its chunk futures
      this way, because the interpreter run around it may hold a
      single-flight claim that a helped task could block on. *)

  val await_all : 'a t list -> 'a list
  (** [await_all futs] settles {e every} future, then returns their
      values in order — or re-raises the first failure in list order,
      as a sequential left-to-right evaluation would have.  Settling
      everything first keeps side effects (metrics, cache writes) of
      later elements inside the call. *)
end
