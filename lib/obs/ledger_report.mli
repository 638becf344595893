(** Offline analysis over {!Ledger} populations.

    Everything here is a pure function of the loaded records: hit rates,
    latency percentiles, throughput and failure taxonomies are
    reconstructed from the persisted metric snapshots and stable fields,
    with nothing rerun.  Output over a fixed ledger is deterministic —
    byte-identical across invocations and [--jobs] levels. *)

val report : Ledger.record list * int -> string
(** Aggregate one ledger: population by kind/app, status breakdown,
    failure taxonomy, per-kind cache hit rates, count-weighted latency
    percentiles (p50/p90/p99 over persisted histogram summaries), interp
    throughput and resilience counts.  The [int] is the skipped-file
    count from {!Ledger.load}.  An empty ledger yields a one-line
    report, not an error. *)

val diff :
  label_a:string ->
  label_b:string ->
  Ledger.record list * int ->
  Ledger.record list * int ->
  string * bool
(** [diff a b] compares two ledger populations (B is the candidate).
    Returns the textual comparison and a regression verdict, [true] when
    B regresses versus A: the mean best-design speedup dropped by more
    than 10%, or B exhibits a failure (class, site) pair absent from A.
    The cache hit rate is reported but does not trip the verdict — CI
    gates on the boolean (nonzero exit), humans read the text.  Wall-clock
    times are not compared here: bench timings are diffed by
    [bench/compare.exe] alone. *)

val stats : Ledger.record list * int -> string
(** Per-population table: one row per (app, mode) with record count,
    ok-rate, mean designs produced, mean best time and speedup. *)
