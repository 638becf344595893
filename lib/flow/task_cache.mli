(** Flow-level task caching on top of {!Cache}.

    A flow's expensive tasks — the dynamic ones that run the interpreter
    and the Optimisation ones that run DSE sweeps — are pure functions of
    the incoming artifact, so their applications can be content-addressed
    and replayed: across repeated flow runs in one process (suite runs,
    bench iterations, ablation studies) via the in-memory tier, and
    across processes via the on-disk tier when {!Cache.set_dir} enabled
    it.

    The key is a digest of the task's identity plus a canonical
    projection of the artifact: the program in {!Memo.canonicalize} id
    space, every statement-id-bearing field (hotspots, kernel profiles,
    static features) translated through the same mapping, and the log
    reduced to its structural task/branch tags (free-text lines embed
    raw, allocation-order-dependent ids).  The cached value is the raw
    output artifact; a disk hit reserves the loaded program's id range
    (see {!Ast.reserve_ids}) before the artifact re-enters the flow.

    When the disk tier is disabled the whole mechanism is bypassed and
    {!Task.apply} runs directly, keeping [--cache off] byte-identical to
    a cache-free build (recomputed tasks mint fresh node ids; replayed
    ones would not). *)

val cacheable : Task.t -> bool
(** Dynamic or Optimisation tasks. *)

val key_of : Task.t -> Artifact.t -> string
(** Content key for applying [task] to this artifact (a binary digest;
    hex-encode for display). *)

val apply : Task.t -> Artifact.t -> (Artifact.t, string) result
(** {!Task.apply} through the cache.  Uncacheable tasks, and every task
    while the cache is disabled, run directly.  Task errors are never
    cached.  Concurrent applications of the same key single-flight. *)
