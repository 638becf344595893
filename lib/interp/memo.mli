(** Memoization of {!Machine.run}.

    A flow run interprets the same program many times: hotspot detection,
    trip-count analysis, alias tracing, data-movement analysis and kernel
    profiling all execute the identical [(program, config)] pair, and
    ablation/DSE studies re-run whole branches over shared prefixes.  This
    table caches {!Machine.result}s keyed by a canonical form of the pair
    so each distinct interpretation happens once per process (and, with
    the disk tier on, once per cache directory).  It is the flow's only
    cache: tasks and DSE points are recomputed around it, because
    outside interpreter runs they cost microseconds to milliseconds,
    less than writing and unmarshalling their results would.

    Canonicalization makes the key independent of accidents of program
    identity: expression/statement ids are renumbered in traversal order,
    source locations are dummied, and attributes the interpreter never
    reads (pragmas, [restrict]/[const] qualifiers) are stripped.  Two
    programs that the interpreter cannot distinguish therefore share one
    cache entry, even when one was produced from the other by a
    pragma-only transform or an id-refreshing rewrite.  Cached loop and
    region statistics are translated back into the requester's own
    statement ids on every lookup, so a hit is structurally equivalent to
    a direct run.

    Thread safety: lookups go through a {!Cache} instance (kind
    ["run"]), which is single-flight: two domains requesting the same
    key at once run one interpretation, and the second blocks on its
    result.  Its hits and misses are the [cache.run.*] counters of
    {!Obs.Metrics}.

    Sharing caveat: a cached {!Machine.result} is returned to every
    requester, so [result.memory] and [result.counters] are physically
    shared.  Callers must treat results as read-only — all in-tree
    consumers do ({!Counters.scale}, {!Counters.diff} and
    {!Memory.to_float_array} are non-mutating).

    Disk-tier caveat: the persisted copy of an entry drops the final
    memory image ([result.memory] unmarshals empty on a cross-process
    replay).  The image is hundreds of KB per entry and no consumer
    reads it from a memoized run; within one process the in-memory tier
    still returns the full result.  The persisted copy also lists
    [loop_stats] and [region_stats] in canonical-id order (a direct run
    lists them in the order of the requester's raw statement ids), so
    the bytes an entry holds depend only on the canonical program and
    config, never on how many ids the process minted before. *)

val run :
  ?config:Machine.config -> ?backend:Machine.backend -> Ast.program -> Machine.result
(** Memoizing equivalent of {!Machine.run}.  The cache key includes
    {!Machine.interp_version} and the backend tag ([backend] defaults to
    {!Machine.default_backend}), so entries cached under an older
    interpreter version or the other backend are never replayed.
    Exceptions ({!Machine.Runtime_error}, {!Machine.Step_limit_exceeded},
    ...) propagate and are never cached. *)

val analysis_config :
  ?config:Machine.config -> ?kernel:string -> unit -> Machine.config
(** The one observed interpreter configuration: [config] (default
    {!Machine.default_config}) with [profile_loops] and [trace_aliases]
    both enabled and, given [kernel], an [Rfunc kernel] region added.
    Without [kernel] it serves hotspot detection; with it,
    [Kprofile.collect] and a design's single-precision-literal
    validation, whose run a later profile of the same canonical program
    therefore hits.
    Observers never change a run's output, counters or memory, so every
    analysis of a program can share one interpretation instead of one
    per analysis. *)
