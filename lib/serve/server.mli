(** The [psaflowd] daemon core: accept loop, router and dispatcher.

    Serves the flow engine as an HTTP/JSON workload: requests are
    validated ([Codec]), rate-limited per client ([Limiter]), admitted
    through a bounded queue ([Admission]) and executed concurrently as
    {!Util.Pool.Fut} futures on the process-wide work-stealing scheduler
    — the same scheduler a CLI run uses, so branch fan-outs and DSE
    sweeps of concurrent requests interleave freely.  All requests share
    the process evaluation cache: request N+1 for a kernel another client
    just ran is served by cache splicing (single-flight dedup while the
    first is still computing; memory/disk hits afterwards), not by
    recomputation.

    {2 Admission state machine}

    {v
    POST /v1/flows
      -> 429 when the client's token bucket is empty   (serve.ratelimited)
      -> 400 when the body fails Codec validation      (serve.malformed)
      -> 503 when the admission queue is full          (serve.shed)
      -> 202 otherwise: record persisted as "queued"   (serve.accepted)
    queued   -> running      when the dispatcher has an inflight slot
    running  -> done|failed  when its future settles   (serve.completed/.failed)
    running  -> interrupted  only by daemon death (detected at next startup)
    queued/interrupted -> queued  re-admitted at startup (serve.resumed)
    v}

    Shedding happens strictly before flow work: an overload burst beyond
    the queue bound costs one rejected connection each, and cannot crash,
    stall or slow requests already in flight.

    {2 Drain semantics}

    SIGTERM/SIGINT (or {!request_stop}) puts the daemon in draining
    state: the listener closes, nothing new is dispatched, in-flight
    futures run to completion and persist their terminal records, queued
    requests stay [queued] on disk, and {!run} returns 0.  Combined with
    [Store.recover]'s rewrite of [running] records, a daemon killed at
    {e any} point leaves every request either terminal (report preserved)
    or resumable — a subsequent start with [resume] re-admits the
    unfinished ones.

    {2 Determinism}

    Report bytes served for a spec equal the CLI's for the same spec at
    any [--jobs] level and any request interleaving (see {!Request});
    what concurrency and restarts may change is only telemetry ([serve.*],
    cache temperatures) and which requests shed under overload.
    Step-budgeted requests are dispatched like any other: the budget
    travels with the request's own futures, and a blown budget prunes
    paths (status 3, or 4 when none survives).  Because it bounds
    executed statements, a budgeted request replays runs that another
    request completed, so its pruning can depend on the cache. *)

type listen =
  | Unix_sock of string  (** path; an existing socket file is replaced *)
  | Tcp of int  (** loopback (127.0.0.1) port *)

type config = {
  c_listen : listen;
  c_store : string;  (** request-store directory *)
  c_ledger : string option;  (** ledger directory, [None] = off *)
  c_queue_cap : int;  (** admission-queue bound *)
  c_max_inflight : int;  (** concurrent dispatched requests *)
  c_rate : float;  (** per-client tokens/second; <= 0 disables limiting *)
  c_burst : float;  (** per-client bucket capacity *)
  c_max_body : int;  (** request-body cap in bytes *)
  c_resume : bool;  (** re-admit queued/interrupted store entries at startup *)
  c_verbose : bool;  (** per-request log lines on stderr *)
  c_runner : Request.spec -> Request.outcome;
      (** how an admitted request executes; {!Request.run} in production,
          injectable so tests can gate/fail requests deterministically *)
}

val default_config : listen -> config
(** Production defaults: store [.psa-reqs], ledger [.psa-runs], queue cap
    64, inflight = the pool's default job count, 10 req/s burst 20 per
    client, 1 MiB bodies, resume on, quiet, {!Request.run}. *)

val run : config -> (int, string) result
(** Bind, resume, serve until a stop signal, drain, and return the exit
    code (0 on a clean drain).  [Error] only for startup failures (bind,
    unusable store).  Installs SIGTERM/SIGINT handlers and ignores
    SIGPIPE for the duration.  Raises the scheduler's default job count
    to at least 2 so request futures run on worker domains rather than
    inline in the accept loop (which would wedge the listener for the
    duration of a flow). *)

val request_stop : unit -> unit
(** What the signal handlers call; exposed so tests (and embedders) can
    drain a server running in another domain without process signals. *)
