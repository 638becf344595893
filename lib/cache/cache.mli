(** Two-tier content-addressed evaluation cache.

    The PSA-flow recomputes the same evaluations over and over: the
    uninformed mode takes every branch path, device branch points evaluate
    both arms, and bench/experiment harnesses re-run whole suites.  The
    costly evaluations are interpreter runs, and {!Memo} caches them
    (kind ["run"]) in two tiers:

    - an {b in-memory tier} with single-flight deduplication: when two
      {!Util.Pool} workers request the same [(kind, key)] concurrently
      (the two arms of a device branch point, suite runs over the same
      app), one computes and the others block on its result instead of
      recomputing;
    - a {b persistent on-disk tier} (off by default; enabled via
      {!set_dir}, conventionally [.psa-cache/]) so warm reruns skip
      recomputation across processes.  Entries use the checksummed
      record format of {!Obs.Atomic_io} (the run ledger's and the
      request store's): a text header whose tag names the kind and the
      key digest, the {!SPEC.version}, and the payload's digest and
      length.  Entries are written atomically (temp file + rename), and
      anything corrupted or mismatched is treated as a miss.  The
      directory is size-capped with LRU-ish eviction (read hits refresh
      an entry's mtime; eviction removes oldest-mtime entries first).

    Keys are caller-supplied content strings — callers derive them from a
    canonical binary serialization of whatever the evaluation depends on
    (program, device spec, config, interpreter version).  The cache
    digests them for file names; equal content means equal key.

    Values cross the disk boundary via [Marshal], so cached value types
    must be closure-free.  Values served from the in-memory tier are
    physically shared between requesters and must be treated as
    read-only (the same caveat as {!Memo}).

    {2 Key versioning invariant}

    Every instance carries a {!SPEC.version}; an entry is only ever
    replayed under the exact [(kind, version)] it was recorded with.
    Whenever the cached value type, the serialization, or the semantics
    of the computation change, the version {e must} be bumped — stale
    entries then read as plain misses (never as corruption) and age out
    via eviction.  Keys themselves must already encode every input the
    computation depends on; the version covers what keys cannot: the
    meaning of the computation.

    {2 Failure accounting}

    Every instance counts into the {!Obs.Metrics} registry, one counter
    per field named [cache.<kind>.<field>]: [mem_hits], [disk_hits],
    [misses], [waits] (single-flight: blocked on another worker's
    computation), [errors] (failed disk writes), [corrupt], [evictions],
    [bytes_read] and [bytes_written] (payload bytes).  The registry is
    the only reader of these counts.

    A disk entry that fails any header check or its digest, or that no
    longer unmarshals, is {e corruption}: the entry is deleted, the
    lookup is recomputed, and [cache.<kind>.corrupt] is incremented —
    it is never reported as a hit.  A header version that disagrees
    with the file name counts as corruption too.  Deterministic read
    corruption can be injected with {!Util.Faultsim}
    ([--faults cache:<kind>]) to exercise this path: it flips a payload
    byte before the digest check. *)

val set_dir : string option -> unit
(** Enable ([Some dir]) or disable ([None], the default) the on-disk
    tier.  The directory is created lazily on first use.  Also forgets
    the process's byte total of the tier (see {!set_max_bytes}). *)

val dir : unit -> string option

val set_max_bytes : int -> unit
(** Size cap for the on-disk tier (default 512 MiB).  The process scans
    the directory at its first store and then adds the size of every
    entry it writes; a store that takes that total past the cap rescans,
    and evicts oldest-mtime entries down to 3/4 of the cap when the
    directory is over it.  Scans count in the [cache.evict_scans]
    metric. *)

val max_bytes : unit -> int

val clear_memory : unit -> unit
(** Drop the in-memory tier of every instance (testing: forces the next
    lookup to the disk tier).  In-flight computations are unaffected. *)

val entry_path : kind:string -> version:int -> key:string -> string option
(** Absolute path the disk tier would use for this entry, [None] when the
    disk tier is disabled.  Exposed so tests can corrupt/relabel entries. *)

module type SPEC = sig
  type value

  val kind : string
  (** Short namespace id; also the on-disk file prefix. *)

  val version : int
  (** Bumped whenever the value type or the semantics producing it
      change; entries recorded under any other version are never
      replayed. *)
end

module Make (V : SPEC) : sig
  val find_or_compute :
    ?to_disk:(V.value -> V.value) ->
    key:string ->
    (unit -> V.value) ->
    V.value
  (** Serve [key] from the in-memory tier, else from the disk tier, else
      compute it (storing the result in both tiers).  Concurrent
      requests for the same key block on the first one (single-flight);
      exceptions from the computation propagate to the computing caller,
      are never cached, and release the waiters (which then compute
      themselves).  [to_disk] maps the value just before it is
      marshalled to the disk tier — use it to drop fields that are
      expensive to persist and semantically dead on replay, or to put
      the persisted copy in a canonical order; the in-memory tier and
      the returned value are never transformed, so only entries restored
      from disk observe the mapping. *)
end
