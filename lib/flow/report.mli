(** Text rendering of flow reports. *)

val design_table : Engine.report -> string
(** One row per generated design: target, estimated time, speedup over the
    single-thread baseline, added LOC, precision, validity. *)

val decision_text : Engine.report -> string
(** The informed PSA decision with its reasoning trail. *)

val log_text : Engine.report -> string
(** The analysed artifact's task log, headed by the active interpreter
    backend ([psaflow --explain]). *)

val why_text : Engine.report -> string
(** Per-design provenance trails ([psaflow --why]): the active interpreter
    backend, then ordered tasks, branch decisions with their reasons, DSE
    sweeps with point counts.  Pruned paths (if any) follow the designs,
    each trail ending in its {!Prov.Sfailed} step.  Timing-free and
    cache-free, so a given flow renders the same bytes at any
    parallelism and whether its interpreter runs were computed or
    replayed (cache off, cold or warm). *)

val failures_text : Engine.report -> string
(** One line per pruned path: where it failed, the failure class,
    attempts consumed, and the error.  Empty for a clean run. *)

val summary_line : Engine.report -> string
(** One line: app, chosen branch, best design and speedup. *)

val run_text : Engine.report -> string
(** The complete default output of [psaflow run]: header line (app, mode,
    workload), {!decision_text}, baseline line, {!design_table}, and —
    only when paths were pruned — a blank line plus {!failures_text}.
    Shared verbatim by the CLI and by [psaflowd]'s [/v1/flows/ID/report]
    endpoint, so a daemon-served report is byte-identical to the CLI
    report for the same spec.  Inherits the engine's determinism
    invariant: byte-identical at any [--jobs] level. *)
