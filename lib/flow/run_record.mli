(** Assembly of {!Obs.Ledger} records from flow executions.

    The engine computes; this module observes.  A record is assembled at
    run completion (or on the failure path) from the {!Engine.report},
    the process-wide metrics snapshot and best-effort provenance — the
    flow itself never reads the ledger.

    Stable fields are derived only from the report (designs, decision,
    failure taxonomy, exit status), so they inherit the engine's
    determinism invariant: byte-identical at any [--jobs] level. *)

val git_rev : string
(** Best-effort current commit: reads [.git/HEAD] (and the ref or
    packed-refs it points to) in this or an enclosing directory, without
    spawning a subprocess.  ["unknown"] outside a checkout or on any
    read failure.  Computed once per process. *)

val meta : cmdline:string -> Obs.Ledger.meta
(** Provenance for a record assembled now. *)

val of_report :
  ?kind:string ->
  cmdline:string -> status:int -> mode:Pipeline.mode -> Engine.report ->
  Obs.Ledger.record
(** Record a completed [psaflow run]: design-quality summary (per-design
    time/speedup/feasibility, chosen best design and its estimated
    monetary cost under {!Cost.default_pricing}), branch decision, and
    any pruned paths as the failure taxonomy.  [kind] defaults to
    ["run"]; the daemon records under ["serve"] so ledger analyses can
    tell CLI runs from served requests. *)

val of_failure :
  ?kind:string ->
  cmdline:string ->
  status:int ->
  app:string ->
  mode:string ->
  workload:(string * int) list ->
  string ->
  Obs.Ledger.record
(** Record a run that produced no report (flow abort, bad spec): the
    error message becomes a single failure entry. *)
