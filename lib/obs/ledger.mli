(** Persistent run ledger: one structured record per flow execution.

    Every [psaflow run] and every request [psaflowd] serves appends a
    {!record} to a ledger directory ([.psa-runs/] by default) so
    observability survives the process: [psaflow report]/[diff]/[stats]
    reconstruct hit rates, latency percentiles and failure breakdowns
    purely from prior runs' records, with nothing rerun.

    {2 Entry discipline}

    Records reuse the [.psa-cache] publication discipline: each record is
    its own file ([r*.psarun]), written to a temp file and published with
    an atomic rename, carrying a header with a format tag, the schema
    version and an MD5 digest of the payload ({!Atomic_io}).  A
    truncated, corrupted or foreign-version file is {e skipped and
    counted} on load (and tallied under the [ledger.skipped] counter),
    never fatal — a damaged ledger degrades to a smaller population.

    {2 Determinism and versioning invariants}

    A record separates {b stable} fields — pure functions of (app, spec,
    seed, backend, code version): designs, decision, failure taxonomy,
    exit status — from {b volatile} ones (wall-clock metrics, cache
    temperatures, scheduling counters, provenance metadata).  Stable
    fields are byte-identical at any [--jobs] level; report/diff/stats
    output over a fixed ledger is byte-identical across invocations.
    {!schema_version} is bumped whenever a field's meaning, presence or
    serialization changes; readers only accept their own version. *)

val schema_version : int

(** Design-quality summary of one produced design. *)
type design = {
  ds_target : string;  (** e.g. ["GPU-2080"] *)
  ds_device : string;
  ds_time_s : float option;  (** modelled hotspot time *)
  ds_speedup : float option;
  ds_feasible : bool;
  ds_valid : bool;
}

(** One pruned branch path (or outright flow failure). *)
type failure = {
  fs_path : string;  (** branch path label, or the failing site *)
  fs_class : string;  (** {!Resilience.class_label} taxonomy string *)
  fs_site : string;
  fs_attempts : int;
  fs_msg : string;
}

(** Volatile provenance: how and when the record was produced. *)
type meta = {
  m_git_rev : string;  (** best-effort; ["unknown"] outside a checkout *)
  m_cmdline : string;
  m_jobs : int;
  m_unix_time : float;  (** seconds since the epoch at record time *)
}

(** Jobs-invariant description of what the run computed. *)
type stable = {
  s_kind : string;  (** ["run"] or ["serve"] *)
  s_app : string;  (** app slug *)
  s_mode : string;
  s_workload : (string * int) list;
  s_backend : string;
  s_ir_version : int;
  s_status : int;  (** process exit code *)
  s_decision : string;  (** informed branch decision, [""] when n/a *)
  s_best : string option;  (** chosen design point (fastest feasible) *)
  s_best_cost : float option;  (** estimated monetary cost of [s_best] *)
  s_designs : design list;
  s_failures : failure list;
}

type record = {
  r_meta : meta;
  r_stable : stable;
  r_metrics : (string * float) list;
      (** full flattened {!Metrics.snapshot} at record time — counters,
          gauges, histogram percentiles, per-kind cache stats, resilience
          and fault counters.  Volatile.  Sorted by name. *)
}

val to_json : record -> string
(** One-line JSON document (no newline). *)

val stable_json : record -> string
(** The serialized [stable] object alone — the byte-comparable part. *)

val of_json : string -> (record, string) result

val append : dir:string -> record -> (string, string) result
(** Atomically publish a record file in [dir] (created if missing);
    returns the file path. *)

val load : dir:string -> record list * int
(** All valid records in [dir], in file-name (i.e. recording-time) order,
    plus the count of skipped (corrupt/truncated/foreign-version) files.
    A missing directory is an empty ledger. *)

val load_path : string -> (record list * int, string) result
(** [load] on a directory, or a single-record load on a record file. *)

val count : dir:string -> int
(** Number of record files (valid or not) — the [--explain] footer. *)
